// Persistent worker pool for multithreaded SpMV.
//
// The paper parallelizes explicitly with pthreads, binds each thread to a
// predefined processor with sched_setaffinity, and schedules threads
// "as close as possible" (§VI-A). This pool reproduces that: workers are
// created once, optionally pinned according to a placement plan, and the
// timed region only pays a dispatch/join handshake — no thread creation.
//
// Observability: every run() records each worker's busy nanoseconds
// (last value and a resettable running total) in a cache-line-padded
// per-worker slot, and each worker attaches an obs::PerfSession
// (perf_event_open group) to itself at startup unless SPC_COUNTERS=0 or
// the platform forbids it. The harness drives counters_start()/
// counters_stop() around timed loops and reads last/total imbalance.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "spc/obs/perf_counters.hpp"
#include "spc/support/topology.hpp"
#include "spc/support/types.hpp"

namespace spc {

class ThreadPool {
 public:
  /// Spawns `nthreads` workers. When `cpu_plan` is non-empty, worker i is
  /// pinned to cpu_plan[i % plan.size()]. An empty plan leaves scheduling
  /// to the OS. The constructor returns only after every worker has
  /// finished its startup (pinning + counter attach), so fully_pinned()
  /// and counters_available() are immediately meaningful.
  explicit ThreadPool(std::size_t nthreads,
                      const std::vector<int>& cpu_plan = {});

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  std::size_t size() const { return workers_.size(); }

  /// True when every pin request was honoured by the kernel.
  bool fully_pinned() const { return fully_pinned_; }

  /// The cpu each worker was asked to pin to, after the modulo wrap
  /// (-1 per worker when no plan was given). Size == size().
  const std::vector<int>& worker_cpus() const { return worker_cpus_; }

  /// Number of workers whose pin target is already used by an earlier
  /// worker — nonzero when `cpu_plan` wrapped modulo its size and two
  /// workers share a CPU (oversubscription). Also exported as the
  /// `spc.pool.shared_cpu_workers` gauge so double-pinning is never
  /// silent in metrics.
  std::size_t shared_cpu_workers() const { return shared_cpu_workers_; }

  /// Runs fn(tid) on every worker (tid in [0, size())) and blocks until
  /// all have finished. Exceptions thrown by fn propagate (first wins).
  /// Convenience wrapper over the raw form below (one extra indirect
  /// call per worker; nothing allocates either way).
  ///
  /// Called from one of this pool's own workers, run() and try_run()
  /// throw InvalidArgument instead of waiting for a dispatch that could
  /// never finish (the caller is one of the workers it waits for).
  /// Running a different pool from a worker is fine.
  void run(const std::function<void(std::size_t)>& fn);

  /// The non-allocating dispatch primitive: a plain function pointer
  /// plus a context pointer, so per-run hot paths (SpmvInstance) never
  /// construct, copy, or indirect through a std::function. Same
  /// semantics as run(fn) otherwise.
  ///
  /// Safe to call from several threads at once: dispatches are
  /// serialized, and a caller that finds the pool mid-dispatch waits
  /// its turn (FIFO is not guaranteed across waiters).
  using RawJob = void (*)(void* ctx, std::size_t tid);
  void run(RawJob fn, void* ctx);

  /// Non-blocking variant: dispatches and blocks until the job
  /// completes when the pool is idle, returns false immediately (doing
  /// nothing) when another caller's dispatch is in flight. Lets a
  /// caller with a fallback path (e.g. serial execution) detect
  /// saturation instead of queueing behind it.
  bool try_run(RawJob fn, void* ctx);

  /// True while some caller's dispatch is in flight. Advisory only: the
  /// answer may be stale by the time the caller acts on it — pair with
  /// try_run() when the decision has to be race-free.
  bool busy() const;

  /// Total dispatches completed since construction (both run overloads).
  std::uint64_t dispatch_count() const {
    return dispatch_count_.load(std::memory_order_relaxed);
  }

  /// Busy nanoseconds worker `tid` spent inside the most recent run().
  std::uint64_t last_busy_ns(std::size_t tid) const;

  /// Load-imbalance factor of the most recent run(): max/mean worker
  /// busy time. 1.0 = perfectly balanced; 0.0 before any run.
  double last_imbalance() const;

  /// Accumulated busy nanoseconds since the last busy_reset().
  std::uint64_t total_busy_ns(std::size_t tid) const;

  /// Imbalance factor over the accumulated totals (a whole timed loop).
  double total_imbalance() const;

  /// Zeroes the accumulated busy totals (call before a timed loop).
  void busy_reset();

  /// True when every worker holds a usable perf-counter session.
  bool counters_available() const;

  /// Why counters are unavailable ("" when they are available).
  std::string counters_reason() const;

  /// Zeroes and enables every worker's counter group. No-op fallback
  /// when counters are unavailable.
  void counters_start();

  /// Disables the groups and returns the summed readings across
  /// workers. When unavailable, the result carries available=false and
  /// the reason — never an error.
  obs::CounterReadings counters_stop();

 private:
  void worker_main(std::size_t tid, int cpu);

  /// Throws InvalidArgument when the calling thread is one of this
  /// pool's workers.
  void check_not_own_worker() const;

  /// Publishes the job, wakes workers, and blocks until all are done.
  /// Expects `lk` held and `dispatching_` false; releases the lock
  /// before rethrowing a worker exception so the pool stays usable.
  void dispatch_locked(std::unique_lock<std::mutex>& lk, RawJob fn,
                       void* ctx);

  /// Per-worker observability slot; padded so worker writes never share
  /// a cache line.
  struct alignas(kCacheLineBytes) WorkerSlot {
    std::atomic<std::uint64_t> last_busy_ns{0};
    std::atomic<std::uint64_t> total_busy_ns{0};
    std::unique_ptr<obs::PerfSession> perf;  ///< set by the worker at startup
  };

  std::vector<WorkerSlot> slots_;
  std::vector<std::thread> workers_;
  std::vector<int> worker_cpus_;
  std::size_t shared_cpu_workers_ = 0;
  mutable std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::condition_variable cv_idle_;  ///< signalled when a dispatch ends
  RawJob job_fn_ = nullptr;
  void* job_ctx_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t remaining_ = 0;
  std::size_t ready_ = 0;  ///< workers that completed startup
  std::atomic<std::uint64_t> dispatch_count_{0};
  bool stop_ = false;
  bool dispatching_ = false;  ///< a caller's dispatch is in flight
  bool fully_pinned_ = true;
  std::exception_ptr first_error_;
};

}  // namespace spc
