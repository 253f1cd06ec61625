// Serving-engine configuration.
//
// The engine owns one shared NUMA-pinned ThreadPool and a registry of
// resident matrices; these options shape the pool, the admission queue,
// and the dispatchers once, at engine construction. Per-registration
// and per-request knobs live in RegisterOptions / SubmitOptions.
#pragma once

#include <cstddef>
#include <cstdint>

#include "spc/spmv/instance.hpp"
#include "spc/support/status.hpp"
#include "spc/support/topology.hpp"
#include "spc/tune/tuner.hpp"

namespace spc::engine {

/// What submit() does when the bounded admission queue is full.
enum class OverflowPolicy {
  kReject,   ///< fail fast with kResourceExhausted (default: overload
             ///< must surface as rejections, never as unbounded latency)
  kBlock,    ///< wait for a slot (applies backpressure to the client)
  kTimeout,  ///< wait up to submit_timeout_ms, then kResourceExhausted
};

struct EngineOptions {
  /// Worker threads in the shared pool; 0 = one per hardware CPU.
  std::size_t pool_threads = 0;
  /// Pin workers per `placement` (the paper's model; also what NUMA
  /// data placement needs). Off leaves scheduling to the OS.
  bool pin_threads = true;
  Placement placement = Placement::kCloseFirst;
  /// Dispatcher threads draining the admission queue. Each pops a batch,
  /// groups it by matrix, and executes on the shared pool (or degrades
  /// to its own thread, see serial_fallback).
  std::size_t dispatchers = 2;
  /// Admission-queue capacity; submits beyond it hit `overflow`.
  std::size_t queue_capacity = 1024;
  OverflowPolicy overflow = OverflowPolicy::kReject;
  /// kTimeout policy: how long a full-queue submit may wait for a slot.
  std::uint64_t submit_timeout_ms = 100;
  /// Most requests one dispatcher pops per queue round-trip. Popped
  /// requests are grouped per matrix, so consecutive runs reuse the
  /// matrix's cache-resident slices.
  std::size_t batch_max = 8;
  /// Degraded mode: when the shared pool is mid-dispatch for another
  /// matrix, run the request serially on the dispatcher's own thread
  /// (bit-identical for the row-partitioned formats) instead of queueing
  /// behind the pool.
  bool serial_fallback = true;
  /// Instance knobs applied to every registered matrix (schedule,
  /// sym-reduce, DU encoder, ...). pin_threads/placement inside are
  /// ignored — the engine's shared pool is already built.
  InstanceOptions instance;

  /// Checks the option values: at least one dispatcher, a nonzero queue
  /// and batch size, a nonzero timeout when the timeout policy is
  /// selected, and instance.validate(). Returns ok() or an
  /// kInvalidArgument naming the bad field; the Engine constructor
  /// throws InvalidArgument with the same message.
  Status validate() const;
};

/// Per-matrix registration knobs.
struct RegisterOptions {
  /// Pick the format with the autotuner (spc::tune::pick_format — a
  /// warm tuning cache answers without probing). False uses `format`.
  bool auto_format = false;
  Format format = Format::kCsr;
  /// Pooled warm-up runs executed at registration, so first-request
  /// latency excludes cold caches and lazy page faults.
  std::size_t warm_runs = 0;
  /// Autotuner knobs when auto_format (cache path, probe shape, ...).
  tune::TuneOptions tune;
};

/// Per-request knobs.
struct SubmitOptions {
  /// Cancel the request if it has not *started* executing this many
  /// milliseconds after submit (0 = no deadline). Expired requests
  /// complete with kDeadlineExceeded instead of occupying the pool.
  std::uint64_t deadline_ms = 0;
};

}  // namespace spc::engine
