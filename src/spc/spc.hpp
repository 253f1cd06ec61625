// spc — the library's consolidated public surface.
//
// One include pulls in everything an application needs:
//
//   #include "spc/spc.hpp"
//
//   spc::Triplets t = spc::load_mtx("matrix.mtx");          // or gen/
//   spc::SpmvInstance inst(t, spc::Format::kCsrDu, 4);      // one matrix
//   spc::engine::Engine eng;                                // or many
//   eng.register_matrix("A", t, {.auto_format = true});
//   spc::engine::Future f = eng.submit("A", x);
//
// Layering (each header is also individually includable and
// self-contained — the api_surface test compiles every one standalone):
//
//   support/   types, errors, Status, env registry, topology, timing
//   mm/        Triplets, Vector, Matrix Market I/O, reordering, stats
//   gen/       synthetic matrix generators and the named corpus
//   formats/   the storage encodings (CSR, CSR-DU, CSR-VI, symmetric, ...)
//   parallel/  the pinned ThreadPool, partitioning, scheduling
//   spmv/      SpmvInstance — one matrix prepared for repeated y = A*x
//   tune/      per-matrix autotuner (auto_instance / pick_format + cache)
//   engine/    spc::engine::Engine — concurrent multi-tenant serving
//   solvers/   iterative solvers built on SpmvInstance (CG, ...)
//   obs/       metrics registry, JSONL sinks, tracing, perf counters
#pragma once

// support/ — foundation types and process-wide services.
#include "spc/support/env.hpp"
#include "spc/support/error.hpp"
#include "spc/support/status.hpp"
#include "spc/support/timing.hpp"
#include "spc/support/topology.hpp"
#include "spc/support/types.hpp"

// mm/ — matrices and vectors as data.
#include "spc/mm/mtx.hpp"
#include "spc/mm/ops.hpp"
#include "spc/mm/reorder.hpp"
#include "spc/mm/stats.hpp"
#include "spc/mm/triplets.hpp"
#include "spc/mm/vector.hpp"

// gen/ — synthetic inputs.
#include "spc/gen/corpus.hpp"
#include "spc/gen/generators.hpp"

// formats/ — the storage encodings. instance.hpp includes the formats it
// runs; the §III-A/B comparators (format classes only) and serialization
// are listed here.
#include "spc/formats/coo.hpp"
#include "spc/formats/csc.hpp"
#include "spc/formats/dcsr.hpp"
#include "spc/formats/dia.hpp"
#include "spc/formats/jds.hpp"
#include "spc/formats/serialize.hpp"

// spmv/ + parallel/ — prepared execution.
#include "spc/parallel/thread_pool.hpp"
#include "spc/spmv/instance.hpp"
#include "spc/spmv/spmm.hpp"

// tune/ — per-matrix format selection.
#include "spc/tune/tuner.hpp"

// engine/ — the multi-tenant serving core.
#include "spc/engine/engine.hpp"

// solvers/ — iterative methods on top of SpmvInstance.
#include "spc/solvers/iterative.hpp"
#include "spc/solvers/multi_rhs.hpp"
#include "spc/solvers/refinement.hpp"

// obs/ — observability.
#include "spc/obs/metrics.hpp"
#include "spc/obs/metrics_io.hpp"
