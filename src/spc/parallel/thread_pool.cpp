#include "spc/parallel/thread_pool.hpp"

#include <algorithm>
#include <set>

#include "spc/obs/metrics.hpp"
#include "spc/support/error.hpp"
#include "spc/support/timing.hpp"

namespace spc {

namespace {

// The pool whose worker the current thread is (nullptr elsewhere).
thread_local const ThreadPool* t_worker_of = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t nthreads,
                       const std::vector<int>& cpu_plan)
    : slots_(nthreads) {
  SPC_CHECK_MSG(nthreads >= 1, "thread pool needs at least one worker");
  workers_.reserve(nthreads);
  worker_cpus_.reserve(nthreads);
  std::set<int> used_cpus;
  for (std::size_t t = 0; t < nthreads; ++t) {
    const int cpu =
        cpu_plan.empty() ? -1 : cpu_plan[t % cpu_plan.size()];
    worker_cpus_.push_back(cpu);
    if (cpu >= 0 && !used_cpus.insert(cpu).second) {
      ++shared_cpu_workers_;
    }
    workers_.emplace_back([this, t, cpu] { worker_main(t, cpu); });
  }
  obs::Registry::global()
      .gauge("spc.pool.shared_cpu_workers")
      .set(static_cast<double>(shared_cpu_workers_));
  // Wait for every worker's startup (pinning result, counter attach) so
  // fully_pinned() / counters_available() don't race worker creation.
  // The predicate counts against slots_ — never workers_, which is still
  // being emplaced into while the first workers start up.
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [&] { return ready_ == slots_.size(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::worker_main(std::size_t tid, int cpu) {
  t_worker_of = this;
  const bool pinned = cpu < 0 || pin_thread_to_cpu(cpu);
  // Attach the hardware-counter group to this thread (the fds measure
  // the thread they were opened on; control happens from the outside).
  if (obs::counters_enabled()) {
    slots_[tid].perf = std::make_unique<obs::PerfSession>();
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!pinned) {
      fully_pinned_ = false;
    }
    ++ready_;
    if (ready_ == slots_.size()) {
      cv_done_.notify_all();
    }
  }
  std::uint64_t seen_generation = 0;
  for (;;) {
    RawJob job = nullptr;
    void* ctx = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_start_.wait(lk, [&] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) {
        return;
      }
      seen_generation = generation_;
      job = job_fn_;
      ctx = job_ctx_;
    }
    const std::uint64_t t0 = now_ns();
    try {
      job(ctx, tid);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!first_error_) {
        first_error_ = std::current_exception();
      }
    }
    const std::uint64_t t1 = now_ns();
    const std::uint64_t busy = t1 >= t0 ? t1 - t0 : 0;
    slots_[tid].last_busy_ns.store(busy, std::memory_order_relaxed);
    slots_[tid].total_busy_ns.fetch_add(busy, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--remaining_ == 0) {
        cv_done_.notify_all();
      }
    }
  }
}

void ThreadPool::run(const std::function<void(std::size_t)>& fn) {
  // Trampoline through the raw path; `fn` outlives the run because the
  // caller blocks until every worker is done.
  run(
      [](void* ctx, std::size_t tid) {
        (*static_cast<const std::function<void(std::size_t)>*>(ctx))(tid);
      },
      const_cast<void*>(static_cast<const void*>(&fn)));
}

void ThreadPool::check_not_own_worker() const {
  if (t_worker_of == this) {
    throw InvalidArgument(
        "ThreadPool::run called from one of the pool's own workers: the "
        "dispatch would wait for the calling worker forever");
  }
}

void ThreadPool::run(RawJob fn, void* ctx) {
  check_not_own_worker();
  std::unique_lock<std::mutex> lk(mu_);
  cv_idle_.wait(lk, [&] { return !dispatching_; });
  dispatch_locked(lk, fn, ctx);
}

bool ThreadPool::try_run(RawJob fn, void* ctx) {
  check_not_own_worker();
  std::unique_lock<std::mutex> lk(mu_);
  if (dispatching_) {
    return false;
  }
  dispatch_locked(lk, fn, ctx);
  return true;
}

bool ThreadPool::busy() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dispatching_;
}

void ThreadPool::dispatch_locked(std::unique_lock<std::mutex>& lk,
                                 RawJob fn, void* ctx) {
  dispatching_ = true;
  job_fn_ = fn;
  job_ctx_ = ctx;
  remaining_ = workers_.size();
  first_error_ = nullptr;
  ++generation_;
  cv_start_.notify_all();
  cv_done_.wait(lk, [&] { return remaining_ == 0; });
  job_fn_ = nullptr;
  job_ctx_ = nullptr;
  dispatching_ = false;
  dispatch_count_.fetch_add(1, std::memory_order_relaxed);
  std::exception_ptr err = std::move(first_error_);
  first_error_ = nullptr;
  lk.unlock();
  // Wake exactly one queued caller; each finished dispatch admits the
  // next, so every waiter eventually runs.
  cv_idle_.notify_one();
  if (err) {
    std::rethrow_exception(err);
  }
}

std::uint64_t ThreadPool::last_busy_ns(std::size_t tid) const {
  SPC_CHECK_MSG(tid < slots_.size(), "worker id out of range");
  return slots_[tid].last_busy_ns.load(std::memory_order_relaxed);
}

std::uint64_t ThreadPool::total_busy_ns(std::size_t tid) const {
  SPC_CHECK_MSG(tid < slots_.size(), "worker id out of range");
  return slots_[tid].total_busy_ns.load(std::memory_order_relaxed);
}

namespace {

double imbalance_of(const std::vector<std::uint64_t>& busy) {
  std::uint64_t max = 0;
  std::uint64_t sum = 0;
  for (const std::uint64_t b : busy) {
    max = std::max(max, b);
    sum += b;
  }
  if (sum == 0) {
    return 0.0;
  }
  const double mean =
      static_cast<double>(sum) / static_cast<double>(busy.size());
  return static_cast<double>(max) / mean;
}

}  // namespace

double ThreadPool::last_imbalance() const {
  std::vector<std::uint64_t> busy(slots_.size());
  for (std::size_t t = 0; t < slots_.size(); ++t) {
    busy[t] = slots_[t].last_busy_ns.load(std::memory_order_relaxed);
  }
  return imbalance_of(busy);
}

double ThreadPool::total_imbalance() const {
  std::vector<std::uint64_t> busy(slots_.size());
  for (std::size_t t = 0; t < slots_.size(); ++t) {
    busy[t] = slots_[t].total_busy_ns.load(std::memory_order_relaxed);
  }
  return imbalance_of(busy);
}

void ThreadPool::busy_reset() {
  for (auto& s : slots_) {
    s.total_busy_ns.store(0, std::memory_order_relaxed);
  }
}

bool ThreadPool::counters_available() const {
  for (const auto& s : slots_) {
    if (!s.perf || !s.perf->available()) {
      return false;
    }
  }
  return true;
}

std::string ThreadPool::counters_reason() const {
  if (!obs::counters_enabled()) {
    return "disabled (SPC_COUNTERS=0)";
  }
  for (const auto& s : slots_) {
    if (!s.perf) {
      return "no session attached";
    }
    if (!s.perf->available()) {
      return s.perf->reason();
    }
  }
  return "";
}

void ThreadPool::counters_start() {
  for (auto& s : slots_) {
    if (s.perf) {
      s.perf->start();
    }
  }
}

obs::CounterReadings ThreadPool::counters_stop() {
  for (auto& s : slots_) {
    if (s.perf) {
      s.perf->stop();
    }
  }
  if (!counters_available()) {
    obs::CounterReadings r;
    r.reason = counters_reason();
    return r;
  }
  obs::CounterReadings total = slots_[0].perf->read();
  for (std::size_t t = 1; t < slots_.size(); ++t) {
    total += slots_[t].perf->read();
  }
  return total;
}

}  // namespace spc
