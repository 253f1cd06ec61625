// The yardstick: a plain CSR SpMV owned by the benchmark, timed next to
// every library measurement so end-to-end metrics can be reported as
// ratios to it.
//
// On a shared machine the speed of memory and cores drifts by tens of
// percent over a minute (neighbours' load, turbo), and every timing in
// a run drifts with it. A ratio to a loop of the same kind, measured in
// the same seconds, cancels that drift. The loop lives here, outside
// the library, so no change to the library can move it; its threads
// are this file's own for the same reason.
#pragma once

#include <sched.h>

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "spc/mm/triplets.hpp"
#include "spc/mm/vector.hpp"

namespace e2e {

/// k threads, thread t pinned to cpu t, running one job at a time.
class Team {
 public:
  explicit Team(std::size_t k);
  ~Team();
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  /// Runs job(t) on every thread and returns when all have finished.
  void run(const std::function<void(std::size_t)>& job);

 private:
  void main(std::size_t tid);

  std::mutex mu_;  ///< guards job_, gen_, remaining_, stop_
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::uint64_t gen_ = 0;
  std::size_t remaining_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// Pins the calling thread to one cpu for its lifetime, then restores
/// the thread's previous affinity. Serial measurements rotate through
/// the cpus so one cpu slowed by a neighbour skews a quarter of them,
/// not all.
class PinCaller {
 public:
  explicit PinCaller(std::size_t cpu);
  ~PinCaller();
  PinCaller(const PinCaller&) = delete;
  PinCaller& operator=(const PinCaller&) = delete;

 private:
  cpu_set_t saved_{};
  bool restore_ = false;
};

/// The paper's baseline CSR loop: 32-bit columns, 64-bit values, rows
/// split by nnz among the team's threads.
class PlainCsr {
 public:
  PlainCsr(const spc::Triplets& t, std::size_t parts);

  /// y = A*x over all rows on the calling thread; returns elapsed ns.
  std::uint64_t run1(const spc::Vector& x, spc::Vector& y) const;
  /// y = A*x split over the team; returns elapsed ns.
  std::uint64_t run_team(Team& team, const spc::Vector& x, spc::Vector& y) const;

 private:
  void rows(const double* x, double* y, std::size_t r0, std::size_t r1) const;

  std::vector<std::uint64_t> row_ptr_;
  std::vector<std::uint32_t> col_;
  std::vector<double> val_;
  std::vector<std::size_t> bounds_;  ///< parts + 1 row boundaries
};

}  // namespace e2e
