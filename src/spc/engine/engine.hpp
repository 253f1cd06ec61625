// spc::engine::Engine — a concurrent multi-tenant SpMV serving core.
//
// One engine owns one shared NUMA-pinned ThreadPool and a registry of
// resident matrices. Each matrix is registered once (optionally
// autotuned via spc::tune, with its cache making repeat registrations
// instant), prepared once against the shared pool, and served
// repeatedly: clients submit (matrix_id, x) pairs and get a Future; a
// bounded MPMC admission queue feeds dispatcher threads that batch
// requests per matrix and execute them on the pool. Overload surfaces
// per EngineOptions::overflow (reject / block / timeout), and when the
// pool is saturated a dispatcher degrades a request to a bit-identical
// serial run on its own thread rather than queueing behind the pool.
//
// Lifecycle: construct -> register_matrix (+ warm) -> submit/run_sync
// -> drain -> shutdown (the destructor shuts down too). See
// docs/SERVING.md.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "spc/engine/future.hpp"
#include "spc/engine/options.hpp"
#include "spc/mm/triplets.hpp"
#include "spc/obs/metrics.hpp"
#include "spc/parallel/thread_pool.hpp"
#include "spc/spmv/instance.hpp"

namespace spc::engine {

class Engine {
 public:
  /// Builds the shared pool and starts the dispatchers. Throws
  /// InvalidArgument when opts.validate() fails.
  explicit Engine(const EngineOptions& opts = {});

  /// shutdown(), then joins everything.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // ---- Registry -------------------------------------------------------

  /// Encodes `t` (autotuned when ropts.auto_format) and prepares it
  /// against the shared pool under id `id`. The pool's workers build the
  /// slices: registration waits for the pool like a request and holds it
  /// while the build runs, so requests arriving meanwhile queue or take
  /// the serial fallback. kAlreadyExists when the id is taken,
  /// kInvalidArgument when encoding refuses the matrix or the call comes
  /// from one of the pool's own workers, kResourceExhausted when an
  /// allocation fails, kInternal on any other library fault (a failed
  /// internal check), kUnavailable after shutdown. A failed registration
  /// leaves the registry unchanged. Registration is synchronous; when it
  /// returns ok() the matrix is resident and servable.
  Status register_matrix(const std::string& id, const Triplets& t,
                         const RegisterOptions& ropts = {});

  /// Removes `id` from the registry. In-flight requests on it finish
  /// normally (they hold the instance alive); new submits get kNotFound.
  Status unregister_matrix(const std::string& id);

  bool has_matrix(const std::string& id) const;

  /// Registered ids, unordered.
  std::vector<std::string> matrix_ids() const;

  struct MatrixInfo {
    Format format = Format::kCsr;
    index_t nrows = 0;
    index_t ncols = 0;
    usize_t nnz = 0;
    std::size_t nthreads = 0;
    bool tuned = false;          ///< format chosen by the autotuner
    bool tune_cache_hit = false;
    std::string tune_source;     ///< "cache" | "probe" | "cost-model" | ""
    std::uint64_t runs = 0;      ///< completed engine runs
    /// Requested-vs-resolved configuration fallbacks of the instance.
    std::vector<InstanceDecision> decisions;
  };
  Status matrix_info(const std::string& id, MatrixInfo* out) const;

  /// Runs `iters` pooled passes over `id` with a constant input, so the
  /// first real request pays no cold caches or lazy page faults.
  Status warm(const std::string& id, std::size_t iters = 1);

  // ---- Serving --------------------------------------------------------

  /// Enqueues y = A(id)*x and returns immediately with a Future. `x` is
  /// moved into the request. The future completes with:
  ///   ok                  — value() holds y
  ///   kNotFound           — no such matrix id
  ///   kInvalidArgument    — x has the wrong dimension
  ///   kResourceExhausted  — queue full (reject/timeout policies)
  ///   kDeadlineExceeded   — deadline passed before execution started
  ///   kCancelled          — cancel() won the race with the dispatcher
  ///   kUnavailable        — engine shut down
  /// Rejections complete the future rather than throwing, so clients
  /// have one code path. Thread-safe.
  Future submit(const std::string& id, Vector x,
                const SubmitOptions& sopts = {});

  /// Blocking convenience: submit + wait; on ok(), *y receives the
  /// result (moved, no copy).
  Status run_sync(const std::string& id, const Vector& x, Vector* y,
                  const SubmitOptions& sopts = {});

  /// Blocks until the queue is empty and no request is executing.
  void drain();

  /// Stops admission (further submits complete kUnavailable), serves
  /// everything already queued, and joins the dispatchers. Idempotent.
  void shutdown();

  // ---- Introspection --------------------------------------------------

  /// Requests currently queued (excludes executing ones).
  std::size_t queue_depth() const;

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;  ///< with ok() status
    std::uint64_t rejected = 0;   ///< queue-full rejections/timeouts
    std::uint64_t cancelled = 0;
    std::uint64_t deadline_missed = 0;
    std::uint64_t serial_runs = 0;  ///< degraded-mode executions
    std::uint64_t batches = 0;      ///< dispatcher queue round-trips
  };
  Stats stats() const;

  /// The shared worker pool (valid for the engine's lifetime).
  ThreadPool& pool() { return *pool_; }

  const EngineOptions& options() const { return opts_; }

 private:
  struct MatrixEntry {
    std::string id;
    std::unique_ptr<SpmvInstance> inst;
    std::atomic<std::uint64_t> runs{0};
  };

  struct Request {
    std::shared_ptr<MatrixEntry> entry;
    std::shared_ptr<RequestState> state;
  };

  void dispatcher_main();
  /// Executes one admitted request (deadline/cancel checks, pool run or
  /// serial fallback) and completes its future.
  void execute(Request& req);
  std::shared_ptr<MatrixEntry> find_entry(const std::string& id) const;

  EngineOptions opts_;
  std::shared_ptr<ThreadPool> pool_;
  std::vector<std::thread> dispatchers_;

  mutable std::shared_mutex reg_mu_;
  std::unordered_map<std::string, std::shared_ptr<MatrixEntry>> matrices_;

  // Bounded MPMC admission queue. A plain ring under a mutex: the
  // critical sections are a few pointer moves, and the mutex keeps the
  // blocking overflow policies and shutdown exact (and TSan-clean).
  mutable std::mutex queue_mu_;
  std::condition_variable queue_push_cv_;  ///< waits for space
  std::condition_variable queue_pop_cv_;   ///< waits for work
  std::deque<Request> queue_;
  bool closed_ = false;

  // drain(): in-flight = popped but not yet completed.
  std::atomic<std::size_t> in_flight_{0};
  std::condition_variable drain_cv_;  ///< paired with queue_mu_

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> deadline_missed_{0};
  std::atomic<std::uint64_t> serial_runs_{0};
  std::atomic<std::uint64_t> batches_{0};

  // Cached obs instruments (lock-free hot path).
  obs::Counter* m_submitted_ = nullptr;
  obs::Counter* m_completed_ = nullptr;
  obs::Counter* m_rejected_ = nullptr;
  obs::Counter* m_cancelled_ = nullptr;
  obs::Counter* m_deadline_ = nullptr;
  obs::Counter* m_serial_ = nullptr;
  obs::Counter* m_batches_ = nullptr;
  obs::Gauge* m_depth_ = nullptr;
  obs::LatencyHisto* m_queue_ns_ = nullptr;
  obs::LatencyHisto* m_exec_ns_ = nullptr;
  obs::LatencyHisto* m_latency_ns_ = nullptr;
};

}  // namespace spc::engine
