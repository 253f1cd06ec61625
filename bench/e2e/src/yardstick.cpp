#include "yardstick.hpp"

#include <pthread.h>

#include <algorithm>

#include "spc/support/timing.hpp"

namespace e2e {

Team::Team(std::size_t k) {
  const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
  for (std::size_t t = 0; t < k; ++t) {
    threads_.emplace_back([this, t] { main(t); });
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(t % ncpu, &set);
    // Best effort: an unpinned team still measures, just less alike the
    // library's pinned pool.
    pthread_setaffinity_np(threads_.back().native_handle(), sizeof(set), &set);
  }
}

Team::~Team() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& th : threads_) {
    th.join();
  }
}

void Team::run(const std::function<void(std::size_t)>& job) {
  std::unique_lock<std::mutex> lk(mu_);
  job_ = &job;
  remaining_ = threads_.size();
  ++gen_;
  start_cv_.notify_all();
  done_cv_.wait(lk, [&] { return remaining_ == 0; });
  job_ = nullptr;
}

void Team::main(std::size_t tid) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      start_cv_.wait(lk, [&] { return stop_ || gen_ != seen; });
      if (stop_) {
        return;
      }
      seen = gen_;
      job = job_;
    }
    (*job)(tid);
    std::lock_guard<std::mutex> lk(mu_);
    if (--remaining_ == 0) {
      done_cv_.notify_one();
    }
  }
}

PinCaller::PinCaller(std::size_t cpu) {
  const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % ncpu, &set);
  restore_ = pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) == 0 &&
             pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

PinCaller::~PinCaller() {
  if (restore_) {
    pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
  }
}

PlainCsr::PlainCsr(const spc::Triplets& t, std::size_t parts)
    : row_ptr_(static_cast<std::size_t>(t.nrows()) + 1, 0) {
  col_.reserve(t.nnz());
  val_.reserve(t.nnz());
  for (const spc::Entry& e : t.entries()) {  // sorted row-major
    ++row_ptr_[e.row + 1];
    col_.push_back(e.col);
    val_.push_back(e.val);
  }
  for (std::size_t i = 1; i < row_ptr_.size(); ++i) {
    row_ptr_[i] += row_ptr_[i - 1];
  }
  for (std::size_t p = 0; p <= parts; ++p) {
    const std::uint64_t target = val_.size() * p / parts;
    bounds_.push_back(static_cast<std::size_t>(
        std::lower_bound(row_ptr_.begin(), row_ptr_.end(), target) - row_ptr_.begin()));
  }
  bounds_.back() = row_ptr_.size() - 1;
}

void PlainCsr::rows(const double* x, double* y, std::size_t r0, std::size_t r1) const {
  for (std::size_t r = r0; r < r1; ++r) {
    double s = 0.0;
    for (std::uint64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      s += val_[k] * x[col_[k]];
    }
    y[r] = s;
  }
}

std::uint64_t PlainCsr::run1(const spc::Vector& x, spc::Vector& y) const {
  const std::uint64_t t0 = spc::now_ns();
  rows(x.data(), y.data(), 0, row_ptr_.size() - 1);
  return spc::now_ns() - t0;
}

std::uint64_t PlainCsr::run_team(Team& team, const spc::Vector& x, spc::Vector& y) const {
  const std::uint64_t t0 = spc::now_ns();
  team.run([&](std::size_t t) {
    if (t + 1 < bounds_.size()) {
      rows(x.data(), y.data(), bounds_[t], bounds_[t + 1]);
    }
  });
  return spc::now_ns() - t0;
}

}  // namespace e2e
