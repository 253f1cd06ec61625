#include "spc/parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "spc/support/error.hpp"

namespace spc {
namespace {

TEST(ThreadPool, RunsEveryWorkerExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.run([&](std::size_t tid) { hits[tid]++; });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, TidsAreDistinctAndInRange) {
  ThreadPool pool(6);
  std::mutex mu;
  std::set<std::size_t> seen;
  pool.run([&](std::size_t tid) {
    std::lock_guard<std::mutex> lk(mu);
    seen.insert(tid);
  });
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.rbegin(), 5u);
}

TEST(ThreadPool, ManySequentialDispatches) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 500; ++i) {
    pool.run([&](std::size_t) { counter++; });
  }
  EXPECT_EQ(counter.load(), 1500);
}

TEST(ThreadPool, WorkIsActuallyConcurrentlyDispatched) {
  // All workers must enter the job before any can leave: a barrier
  // implemented with atomics would deadlock if the pool serialized jobs.
  constexpr std::size_t kN = 4;
  ThreadPool pool(kN);
  std::atomic<std::size_t> arrived{0};
  pool.run([&](std::size_t) {
    arrived++;
    while (arrived.load() < kN) {
      std::this_thread::yield();
    }
  });
  EXPECT_EQ(arrived.load(), kN);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run([&](std::size_t tid) {
                 if (tid == 2) {
                   throw Error("boom");
                 }
               }),
               Error);
  // Pool must stay usable after an exception.
  std::atomic<int> counter{0};
  pool.run([&](std::size_t) { counter++; });
  EXPECT_EQ(counter.load(), 4);
}

TEST(ThreadPool, RawCallablePathRunsEveryWorker) {
  // The non-allocating dispatch primitive: plain function pointer plus
  // context, no std::function anywhere.
  ThreadPool pool(4);
  struct Ctx {
    std::atomic<int> hits[4];
  } ctx;
  for (auto& h : ctx.hits) {
    h.store(0);
  }
  pool.run(
      [](void* c, std::size_t tid) {
        static_cast<Ctx*>(c)->hits[tid].fetch_add(1);
      },
      &ctx);
  for (const auto& h : ctx.hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, RawCallablePropagatesExceptionsAndStaysUsable) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.run(
                   [](void*, std::size_t tid) {
                     if (tid == 1) {
                       throw Error("raw boom");
                     }
                   },
                   nullptr),
               Error);
  std::atomic<int> counter{0};
  pool.run([](void* c, std::size_t) { static_cast<std::atomic<int>*>(c)->fetch_add(1); },
           &counter);
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPool, RawAndFunctionDispatchesInterleave) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.run([&](std::size_t) { counter++; });
    pool.run([](void* c, std::size_t) { static_cast<std::atomic<int>*>(c)->fetch_add(1); },
             &counter);
  }
  EXPECT_EQ(counter.load(), 400);
}

TEST(ThreadPool, SingleWorkerPool) {
  ThreadPool pool(1);
  int value = 0;
  pool.run([&](std::size_t tid) {
    EXPECT_EQ(tid, 0u);
    value = 42;
  });
  EXPECT_EQ(value, 42);
}

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool pool(0), Error);
}

TEST(ThreadPool, PinningPlanAccepted) {
  // Pin all workers to cpu 0 (always present). Pinning may soft-fail in
  // restricted environments; fully_pinned() reports it either way.
  ThreadPool pool(2, {0, 0});
  std::atomic<int> counter{0};
  pool.run([&](std::size_t) { counter++; });
  EXPECT_EQ(counter.load(), 2);
  (void)pool.fully_pinned();
}

TEST(ThreadPool, OversizedPlanWraps) {
  ThreadPool pool(5, {0});
  std::atomic<int> counter{0};
  pool.run([&](std::size_t) { counter++; });
  EXPECT_EQ(counter.load(), 5);
}

TEST(ThreadPool, ReportsWorkerCpusAndSharedPins) {
  // Plan shorter than the pool wraps modulo its size; that must be
  // visible (workers 1..4 share cpu 0 with worker 0), not silent.
  ThreadPool pool(5, {0});
  ASSERT_EQ(pool.worker_cpus().size(), 5u);
  for (const int c : pool.worker_cpus()) {
    EXPECT_EQ(c, 0);
  }
  EXPECT_EQ(pool.shared_cpu_workers(), 4u);
}

TEST(ThreadPool, DuplicatePlanEntriesCountAsShared) {
  ThreadPool pool(2, {0, 0});
  EXPECT_EQ(pool.worker_cpus(), (std::vector<int>{0, 0}));
  EXPECT_EQ(pool.shared_cpu_workers(), 1u);
}

TEST(ThreadPool, DistinctPlanHasNoSharedPins) {
  ThreadPool pool(2, {0, 1});
  EXPECT_EQ(pool.worker_cpus(), (std::vector<int>{0, 1}));
  EXPECT_EQ(pool.shared_cpu_workers(), 0u);
}

TEST(ThreadPool, UnpinnedPoolReportsNoCpusAndNoSharing) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_cpus(), (std::vector<int>{-1, -1, -1}));
  EXPECT_EQ(pool.shared_cpu_workers(), 0u);
}

TEST(ThreadPool, DestructionWithoutRunIsClean) {
  ThreadPool pool(8);
  SUCCEED();
}

TEST(ThreadPool, RepeatedExceptionsNeitherDeadlockNorPoisonThePool) {
  // Regression: every worker throws, many times in a row. Each run()
  // must propagate one exception ("first wins") and leave the pool in a
  // dispatchable state — a lost notify or a stuck generation would hang
  // this loop long before 50 iterations.
  ThreadPool pool(4);
  for (int i = 0; i < 50; ++i) {
    EXPECT_THROW(
        pool.run([&](std::size_t tid) {
          throw Error("boom " + std::to_string(tid));
        }),
        Error);
    std::atomic<int> counter{0};
    pool.run([&](std::size_t) { counter++; });
    EXPECT_EQ(counter.load(), 4);
  }
}

TEST(ThreadPool, BusyTimeIsAccountedPerWorker) {
  ThreadPool pool(2);
  pool.busy_reset();
  EXPECT_DOUBLE_EQ(pool.last_imbalance(), 0.0);  // no run yet
  pool.run([](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });
  for (std::size_t t = 0; t < pool.size(); ++t) {
    EXPECT_GT(pool.last_busy_ns(t), 0u);
    EXPECT_EQ(pool.total_busy_ns(t), pool.last_busy_ns(t));
  }
  EXPECT_GE(pool.last_imbalance(), 1.0);

  // Totals accumulate across runs; last_busy_ns tracks only the latest.
  pool.run([](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });
  for (std::size_t t = 0; t < pool.size(); ++t) {
    EXPECT_GT(pool.total_busy_ns(t), pool.last_busy_ns(t));
  }
  EXPECT_GE(pool.total_imbalance(), 1.0);

  pool.busy_reset();
  EXPECT_EQ(pool.total_busy_ns(0), 0u);
  EXPECT_DOUBLE_EQ(pool.total_imbalance(), 0.0);
}

TEST(ThreadPool, ImbalanceReflectsSkewedWork) {
  // Worker 0 does ~20x the work of worker 1: max/mean must land well
  // above 1 (perfectly balanced) even with scheduler slack.
  ThreadPool pool(2);
  pool.busy_reset();
  pool.run([](std::size_t tid) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(tid == 0 ? 40 : 2));
  });
  EXPECT_GT(pool.last_imbalance(), 1.2);
  EXPECT_LE(pool.last_imbalance(), 2.0);  // max/mean with 2 workers caps at 2
}

TEST(ThreadPool, CounterControlIsSafeWhateverThePlatformAllows) {
  // On locked-down machines (perf_event_paranoid, seccomp) counters are
  // unavailable; either way the control surface must be callable and
  // self-consistent.
  ThreadPool pool(2);
  pool.counters_start();
  pool.run([](std::size_t) {});
  const obs::CounterReadings r = pool.counters_stop();
  EXPECT_EQ(r.available, pool.counters_available());
  if (!r.available) {
    EXPECT_FALSE(r.reason.empty());
    EXPECT_EQ(pool.counters_reason(), r.reason);
  } else {
    EXPECT_GT(r.cycles, 0u);
  }
}


TEST(ThreadPool, ConcurrentCallersSerializeWithoutLossOrDeadlock) {
  ThreadPool pool(2);
  constexpr int kCallers = 8;
  constexpr int kRunsEach = 25;
  std::atomic<int> executions{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int i = 0; i < kRunsEach; ++i) {
        pool.run([&](std::size_t) {
          executions.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : callers) {
    t.join();
  }
  // Every dispatch ran on every worker exactly once.
  EXPECT_EQ(executions.load(),
            kCallers * kRunsEach * static_cast<int>(pool.size()));
  EXPECT_EQ(pool.dispatch_count(),
            static_cast<std::uint64_t>(kCallers * kRunsEach));
  EXPECT_FALSE(pool.busy());
}

TEST(ThreadPool, ConcurrentCallerExceptionsReachTheirOwnCaller) {
  ThreadPool pool(2);
  std::atomic<int> caught{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&, c] {
      for (int i = 0; i < 10; ++i) {
        try {
          pool.run([&](std::size_t tid) {
            if (c % 2 == 0 && tid == 0) {
              throw Error("boom");
            }
          });
        } catch (const Error&) {
          caught.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : callers) {
    t.join();
  }
  // The two throwing callers each saw all 10 of their exceptions; the
  // clean callers saw none (a worker exception must not leak into a
  // different caller's dispatch).
  EXPECT_EQ(caught.load(), 20);
}

TEST(ThreadPool, TryRunReportsSaturationAndRunsWhenIdle) {
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<bool> occupying{false};
  std::thread occupier([&] {
    pool.run([&](std::size_t) {
      occupying.store(true);
      while (!release.load()) {
        std::this_thread::yield();
      }
    });
  });
  while (!occupying.load()) {
    std::this_thread::yield();
  }
  // Pool is mid-dispatch: try_run must refuse without blocking.
  std::atomic<int> ran{0};
  auto job = [](void* ctx, std::size_t) {
    static_cast<std::atomic<int>*>(ctx)->fetch_add(1);
  };
  EXPECT_FALSE(pool.try_run(job, &ran));
  EXPECT_TRUE(pool.busy());
  EXPECT_EQ(ran.load(), 0);
  release.store(true);
  occupier.join();
  // Idle again: try_run dispatches and blocks to completion.
  EXPECT_TRUE(pool.try_run(job, &ran));
  EXPECT_EQ(ran.load(), static_cast<int>(pool.size()));
  EXPECT_FALSE(pool.busy());
}

// A worker that runs its own pool would wait for itself: run() and
// try_run() throw instead, the error reaches the outer run() like any
// worker exception, and the pool stays usable.
TEST(ThreadPool, RunFromOwnWorkerThrowsInsteadOfHanging) {
  ThreadPool pool(3);
  auto noop = [](void*, std::size_t) {};
  std::atomic<int> refused{0};
  EXPECT_THROW(pool.run([&](std::size_t tid) {
    if (tid == 1) {
      pool.run([](std::size_t) {});
    }
  }),
               Error);
  pool.run([&](std::size_t) {
    try {
      pool.try_run(noop, nullptr);
    } catch (const Error&) {
      refused.fetch_add(1);
    }
  });
  EXPECT_EQ(refused.load(), 3);
  std::atomic<int> hits{0};
  pool.run([&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 3);
}

TEST(ThreadPool, WorkerMayRunAnotherPool) {
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::atomic<int> hits{0};
  outer.run([&](std::size_t tid) {
    if (tid == 0) {
      inner.run([&](std::size_t) { hits.fetch_add(1); });
    }
  });
  EXPECT_EQ(hits.load(), 2);
}

}  // namespace
}  // namespace spc
