// Ablation: work scheduling — static owner-computes vs chunked
// self-scheduling vs NUMA-aware work stealing, across formats and
// thread counts.
//
// The static nnz-balanced split is optimal when cost per non-zero is
// uniform, but compression skews it: CSR-DU decode cost varies with
// delta structure, cache misses vary with column locality, and a
// co-scheduled daemon stalls one worker's whole range. The dynamic
// schedules split each worker's range into cache-sized row-aligned
// chunks; "steal" lets idle workers drain other deques, preferring
// same-NUMA-node victims so stolen chunks keep their page locality.
// Chunks never split a row, so results are bit-identical to static at
// the scalar tier (see dispatch_fuzz_test) — this ablation measures
// pure scheduling cost/benefit.
//
// Rows are schedule x format x threads per matrix; the summary then
// aggregates per (class, schedule) at the highest thread count, which
// is where the acceptance question lives: does stealing cut busy-time
// imbalance on skewed classes (graph, kronecker, irregular) without
// costing ns/nnz on regular ones (fem, banded)?
//
// JSONL (under SPC_METRICS) carries "schedule", "sched_chunks", and
// "steals"; profile_report groups by (format, isa, numa, schedule,
// threads).
//
// Usage: ablation_schedule [--smoke]
//   --smoke: a few matrices, few iterations — CI wiring check, not a
//   measurement.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "spc/bench/harness.hpp"
#include "spc/support/strutil.hpp"

namespace spc {
namespace {

struct CellStat {
  double log_ns_sum = 0.0;  ///< for the geo-mean of ns/nnz
  double imb_sum = 0.0;
  std::uint64_t steals = 0;
  std::size_t n = 0;
};

void run(bool smoke) {
  // The sweep sets schedules programmatically; a stray SPC_SCHED in the
  // environment would override every cell to one value.
  ::unsetenv("SPC_SCHED");

  BenchConfig cfg = BenchConfig::from_env();
  if (smoke) {
    cfg.iterations = 8;
    cfg.warmup = 1;
    cfg.max_matrices = cfg.max_matrices ? cfg.max_matrices : 3;
    cfg.threads = {4};
  }
  std::cout << "=== Ablation: work scheduling ===\n[" << cfg.describe()
            << (smoke ? ", smoke" : "") << "]\n";

  const Format formats[] = {Format::kCsr, Format::kCsrDu, Format::kCsrVi};
  const Schedule schedules[] = {Schedule::kStatic, Schedule::kChunked,
                                Schedule::kSteal};

  std::size_t max_threads = 1;
  for (const std::size_t n : cfg.threads) {
    max_threads = std::max(max_threads, n);
  }

  TextTable table({"matrix", "cls", "format", "sched", "threads", "MFLOPS",
                   "vs static", "imbalance", "chunks", "steals"});
  // (class, schedule) at max_threads -> aggregate for the summary.
  std::map<std::pair<std::string, std::string>, CellStat> by_class;

  for_each_matrix(cfg, [&](MatrixCase& mc) {
    for (const Format fmt : formats) {
      for (const std::size_t n : cfg.threads) {
        if (n < 2) {
          continue;  // scheduling only matters multithreaded
        }
        double mflops_static = 0.0;
        for (const Schedule sched : schedules) {
          InstanceOptions opts;
          opts.pin_threads = cfg.pin_threads;
          opts.schedule = sched;
          SpmvInstance inst(mc.mat, fmt, n, opts);
          RunMetrics m = time_spmv_metrics(inst, cfg.iterations, cfg.warmup);
          if (sched == Schedule::kStatic) {
            mflops_static = m.mflops;
          }
          table.add_row(
              {mc.name, mc.cls, format_name(fmt),
               schedule_name(inst.schedule()), std::to_string(n),
               fmt_fixed(m.mflops, 1),
               mflops_static > 0.0 ? fmt_fixed(m.mflops / mflops_static, 2)
                                   : "-",
               m.imbalance > 0.0 ? fmt_fixed(m.imbalance, 2) : "-",
               m.sched_chunks ? std::to_string(m.sched_chunks) : "-",
               inst.schedule() == Schedule::kSteal ? std::to_string(m.steals)
                                                   : "-"});
          emit_metrics_record("ablation_schedule", mc, inst, m, 0.0, {});

          if (n == max_threads) {
            const double nnz_total = static_cast<double>(inst.nnz()) *
                                     static_cast<double>(cfg.iterations);
            CellStat& c =
                by_class[{mc.cls, schedule_name(inst.schedule())}];
            if (nnz_total > 0.0 && m.seconds > 0.0) {
              c.log_ns_sum += std::log(m.seconds * 1e9 / nnz_total);
              c.imb_sum += m.imbalance;
              c.steals += m.steals;
              ++c.n;
            }
          }
        }
      }
    }
  });
  table.print(std::cout);

  TextTable summary({"cls", "sched", "cells", "geomean ns/nnz",
                     "mean imbalance", "steals"});
  for (const auto& [key, c] : by_class) {
    if (c.n == 0) {
      continue;
    }
    const double dn = static_cast<double>(c.n);
    summary.add_row({key.first, key.second, std::to_string(c.n),
                     fmt_fixed(std::exp(c.log_ns_sum / dn), 3),
                     fmt_fixed(c.imb_sum / dn, 2),
                     key.second == "steal" ? std::to_string(c.steals) : "-"});
  }
  std::cout << "\nper-(class, schedule) aggregate at " << max_threads
            << " threads:\n";
  summary.print(std::cout);
  std::cout << "\nnote: \"sched\" is the schedule in effect after "
               "resolution (dynamic schedules need a multithreaded "
               "row-partitioned format); "
               "\"imbalance\" is max/mean worker busy time over the timed "
               "loop; \"steals\" counts chunks executed by non-owners. "
               "On hosts with fewer CPUs than threads, the dynamic rows "
               "measure time-slicing, not scheduling — compare only at "
               "thread counts the hardware can actually run.\n";
}

}  // namespace
}  // namespace spc

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::cerr << "usage: ablation_schedule [--smoke]\n";
      return 2;
    }
  }
  spc::run(smoke);
  return 0;
}
