// Functional tests for the serving engine: registry lifecycle, the
// Future contract, every overflow policy, deadlines, cancellation,
// drain/shutdown semantics, and bit-identity of engine-served results
// against a directly-run instance at the scalar tier.
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "spc/engine/engine.hpp"
#include "spc/gen/generators.hpp"
#include "spc/support/timing.hpp"
#include "test_util.hpp"

namespace spc::engine {
namespace {

EngineOptions small_engine(std::size_t pool_threads = 2) {
  EngineOptions o;
  o.pool_threads = pool_threads;
  o.pin_threads = false;  // CI cpusets refuse affinity masks
  o.dispatchers = 1;
  return o;
}

RegisterOptions no_tune_cache() {
  RegisterOptions r;
  r.tune.use_cache = false;
  return r;
}

/// Holds the engine's shared pool mid-dispatch until released, so tests
/// can deterministically fill the admission queue / expire deadlines.
class PoolHold {
 public:
  explicit PoolHold(Engine& eng) {
    holder_ = std::thread([&eng, this] {
      eng.pool().run(+[](void* ctx, std::size_t tid) {
        auto* self = static_cast<PoolHold*>(ctx);
        if (tid == 0) {
          self->entered_.store(true);
        }
        while (!self->release_.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
      }, this);
    });
    while (!entered_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  void release() {
    release_.store(true, std::memory_order_release);
    if (holder_.joinable()) {
      holder_.join();
    }
  }
  ~PoolHold() { release(); }

 private:
  std::thread holder_;
  std::atomic<bool> entered_{false};
  std::atomic<bool> release_{false};
};

TEST(EngineOptionsValidate, RejectsBadFieldsWithDiagnostics) {
  EngineOptions o;
  o.dispatchers = 0;
  Status st = o.validate();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("dispatchers"), std::string::npos);

  o = EngineOptions{};
  o.queue_capacity = 0;
  EXPECT_EQ(o.validate().code(), StatusCode::kInvalidArgument);

  o = EngineOptions{};
  o.batch_max = 0;
  EXPECT_EQ(o.validate().code(), StatusCode::kInvalidArgument);

  o = EngineOptions{};
  o.overflow = OverflowPolicy::kTimeout;
  o.submit_timeout_ms = 0;
  st = o.validate();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("submit_timeout_ms"), std::string::npos);

  // Nested instance options are validated through the same call.
  o = EngineOptions{};
  o.instance.du.max_unit = 0;
  EXPECT_EQ(o.validate().code(), StatusCode::kInvalidArgument);

  EXPECT_THROW(Engine bad(o), InvalidArgument);
}

TEST(EngineRegistry, LifecycleAndIntrospection) {
  Engine eng(small_engine());
  const Triplets t = test::paper_matrix();

  EXPECT_FALSE(eng.has_matrix("fig1"));
  ASSERT_TRUE(eng.register_matrix("fig1", t).ok());
  EXPECT_TRUE(eng.has_matrix("fig1"));

  const Status dup = eng.register_matrix("fig1", t);
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_NE(dup.message().find("fig1"), std::string::npos);

  RegisterOptions ropts;
  ropts.format = Format::kCsrDu;
  ASSERT_TRUE(eng.register_matrix("du", t, ropts).ok());
  EXPECT_EQ(eng.matrix_ids().size(), 2u);

  Engine::MatrixInfo info;
  ASSERT_TRUE(eng.matrix_info("du", &info).ok());
  EXPECT_EQ(info.format, Format::kCsrDu);
  EXPECT_EQ(info.nrows, 6);
  EXPECT_EQ(info.ncols, 6);
  EXPECT_EQ(info.nnz, t.nnz());
  EXPECT_FALSE(info.tuned);
  EXPECT_EQ(info.runs, 0u);

  EXPECT_TRUE(eng.warm("du", 2).ok());
  EXPECT_EQ(eng.warm("nope").code(), StatusCode::kNotFound);

  EXPECT_TRUE(eng.unregister_matrix("du").ok());
  EXPECT_EQ(eng.unregister_matrix("du").code(), StatusCode::kNotFound);
  EXPECT_FALSE(eng.has_matrix("du"));
}

TEST(EngineRegistry, AutoFormatStampsTuneProvenance) {
  Engine eng(small_engine());
  RegisterOptions ropts = no_tune_cache();
  ropts.auto_format = true;
  ASSERT_TRUE(
      eng.register_matrix("lap", gen_laplacian_2d(12, 12), ropts).ok());
  Engine::MatrixInfo info;
  ASSERT_TRUE(eng.matrix_info("lap", &info).ok());
  EXPECT_TRUE(info.tuned);
  EXPECT_FALSE(info.tune_source.empty());
}

TEST(EngineRegistry, Csr16PastItsWidthIsInvalidAndRegistersNothing) {
  Engine eng(small_engine());
  ASSERT_TRUE(eng.register_matrix("fig1", test::paper_matrix()).ok());
  Triplets wide(2, 65537);
  wide.add(0, 65536, 1.0);
  wide.add(1, 0, 2.0);
  wide.sort_and_combine();
  RegisterOptions ropts;
  ropts.format = Format::kCsr16;
  const Status st = eng.register_matrix("wide", wide, ropts);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("65536"), std::string::npos) << st.message();
  EXPECT_FALSE(eng.has_matrix("wide"));
  EXPECT_EQ(eng.matrix_ids(), std::vector<std::string>{"fig1"});
}

// Registration builds the slices on the engine's pool, so a registration
// from one of that pool's workers would wait for itself: it returns a
// Status instead, and the engine keeps serving.
TEST(EngineRegistry, RegisterFromAPoolWorkerReturnsAStatus) {
  Engine eng(small_engine(3));
  const Triplets t = test::paper_matrix();
  Status st = Status::Ok();
  eng.pool().run([&](std::size_t tid) {
    if (tid == 0) {
      st = eng.register_matrix("inside", t);
    }
  });
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("own workers"), std::string::npos)
      << st.message();
  EXPECT_FALSE(eng.has_matrix("inside"));
  ASSERT_TRUE(eng.register_matrix("outside", t).ok());
  Vector y;
  ASSERT_TRUE(eng.run_sync("outside", const_vector(6, 1.0), &y).ok());
  EXPECT_LT(rel_error(test::reference_spmv(t, const_vector(6, 1.0)), y),
            1e-12);
}

// A fault while the tuner probes is not the caller's mistake: a library
// error reads as kInternal, an allocation failure as kResourceExhausted,
// and neither escapes as an exception. The registry stays as it was, so
// the same id registers afterwards.
TEST(EngineRegistry, ProbeFaultsReadAsInternalOrExhausted) {
  Engine eng(small_engine());
  const Triplets t = gen_laplacian_2d(12, 12);
  struct Case {
    StatusCode code;
    std::function<void()> fault;
  };
  const Case cases[] = {
      {StatusCode::kInternal, [] { throw Error("probe fault"); }},
      {StatusCode::kResourceExhausted, [] { throw std::bad_alloc(); }},
  };
  for (const Case& c : cases) {
    RegisterOptions ropts = no_tune_cache();
    ropts.auto_format = true;
    int probes = 0;
    ropts.tune.probe_timer = [&](SpmvInstance&, const Vector&,
                                 Vector&) -> std::uint64_t {
      ++probes;
      c.fault();
      return 0;
    };
    Status st = Status::Ok();
    EXPECT_NO_THROW(st = eng.register_matrix("lap", t, ropts));
    EXPECT_EQ(probes, 1) << "the matrix must leave two candidates to probe";
    EXPECT_EQ(st.code(), c.code) << st.to_string();
    EXPECT_FALSE(eng.has_matrix("lap"));
    EXPECT_TRUE(eng.matrix_ids().empty());

    ropts.tune.probe_timer = nullptr;
    ASSERT_TRUE(eng.register_matrix("lap", t, ropts).ok());
    ASSERT_TRUE(eng.unregister_matrix("lap").ok());
  }
}

// Registrations take the pool for their build while requests to another
// matrix are in flight: both finish, and every response stays exact.
TEST(EngineRegistry, RegistersWhileServingAnotherMatrix) {
  test::ScopedEnv isa("SPC_ISA", "scalar");
  EngineOptions o = small_engine(4);
  o.dispatchers = 2;
  o.serial_fallback = true;
  Engine eng(o);
  const Triplets a = gen_laplacian_2d(40, 40);
  Rng rng(5);
  const Vector xa = random_vector(a.ncols(), rng);
  InstanceOptions iopts;
  iopts.pin_threads = false;
  SpmvInstance direct(a, Format::kCsr, 4, iopts);
  Vector ya(a.nrows(), 0.0);
  direct.run(xa, ya);
  ASSERT_TRUE(eng.register_matrix("a", a).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> served{0};
  std::atomic<int> wrong{0};
  std::thread client([&] {
    while (!stop.load()) {
      std::vector<Future> inflight;
      for (int i = 0; i < 8; ++i) {
        inflight.push_back(eng.submit("a", xa));
      }
      for (Future& f : inflight) {
        if (!f.status().ok() ||
            std::memcmp(f.value().data(), ya.data(),
                        ya.size() * sizeof(value_t)) != 0) {
          wrong.fetch_add(1);
        }
        served.fetch_add(1);
      }
    }
  });
  while (served.load() == 0) {
    std::this_thread::yield();
  }
  for (const Format f : {Format::kCsr, Format::kCsrVi, Format::kCsrDuVi}) {
    Rng br(11);
    const Triplets b =
        gen_ragged(300, 300, 9, 0.2, br, ValueModel::pooled(20));
    RegisterOptions ropts;
    ropts.format = f;
    const std::string id = "b-" + format_name(f);
    ASSERT_TRUE(eng.register_matrix(id, b, ropts).ok()) << id;
    Rng xr(12);
    const Vector xb = random_vector(b.ncols(), xr);
    Vector yb;
    ASSERT_TRUE(eng.run_sync(id, xb, &yb).ok()) << id;
    EXPECT_LT(rel_error(test::reference_spmv(b, xb), yb), 1e-12) << id;
  }
  stop.store(true);
  client.join();
  EXPECT_GT(served.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
}

TEST(EngineSubmit, ErrorsCompleteTheFutureInsteadOfThrowing) {
  Engine eng(small_engine());
  ASSERT_TRUE(eng.register_matrix("fig1", test::paper_matrix()).ok());

  Future nf = eng.submit("ghost", const_vector(6, 1.0));
  EXPECT_EQ(nf.status().code(), StatusCode::kNotFound);

  Future df = eng.submit("fig1", const_vector(5, 1.0));
  const Status dst = df.status();
  EXPECT_EQ(dst.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dst.message().find('6'), std::string::npos);
  EXPECT_NE(dst.message().find('5'), std::string::npos);
}

TEST(EngineSubmit, ServedResultIsBitIdenticalToDirectRunAtScalar) {
  test::ScopedEnv isa("SPC_ISA", "scalar");
  const Triplets t = gen_laplacian_2d(20, 20);
  Rng rng(7);
  const Vector x = random_vector(t.ncols(), rng);

  // Every format, the symmetric ones included: the direct instance has
  // the engine pool's two workers, so even their reduction matches.
  for (const Format f : all_formats()) {
    InstanceOptions iopts;
    iopts.pin_threads = false;
    SpmvInstance direct(t, f, 2, iopts);
    Vector y_direct(t.nrows(), 0.0);
    direct.run(x, y_direct);

    EngineOptions eopts = small_engine();
    Engine eng(eopts);
    RegisterOptions ropts;
    ropts.format = f;
    ASSERT_TRUE(eng.register_matrix("m", t, ropts).ok());

    Vector y_served;
    ASSERT_TRUE(eng.run_sync("m", x, &y_served).ok());
    ASSERT_EQ(y_served.size(), y_direct.size());
    EXPECT_EQ(std::memcmp(y_served.data(), y_direct.data(),
                          y_direct.size() * sizeof(value_t)),
              0)
        << "format " << format_name(f);
  }
}

TEST(EngineSubmit, FutureCarriesTimingAndRunsCount) {
  Engine eng(small_engine());
  ASSERT_TRUE(eng.register_matrix("fig1", test::paper_matrix()).ok());
  Future f = eng.submit("fig1", const_vector(6, 1.0));
  ASSERT_TRUE(f.status().ok());
  EXPECT_GT(f.exec_ns(), 0u);
  EXPECT_EQ(f.value().size(), 6u);

  eng.drain();
  Engine::MatrixInfo info;
  ASSERT_TRUE(eng.matrix_info("fig1", &info).ok());
  EXPECT_EQ(info.runs, 1u);
}

TEST(EngineOverflow, RejectPolicySurfacesExhaustedNotHangs) {
  EngineOptions o = small_engine();
  o.queue_capacity = 2;
  o.batch_max = 1;
  o.serial_fallback = false;  // force the dispatcher to wait on the pool
  Engine eng(o);
  ASSERT_TRUE(eng.register_matrix("fig1", test::paper_matrix()).ok());

  PoolHold hold(eng);
  // One request occupies the dispatcher (blocked on the held pool); the
  // next two fill the queue; everything beyond must reject immediately.
  std::vector<Future> futs;
  for (int i = 0; i < 8; ++i) {
    futs.push_back(eng.submit("fig1", const_vector(6, 1.0)));
  }
  std::size_t rejected = 0;
  for (Future& f : futs) {
    // Rejected futures are complete already; the rest finish once the
    // pool is released below.
    if (f.done() && f.status().code() == StatusCode::kResourceExhausted) {
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 5u);  // 8 submitted, 1 executing + 2 queued at most
  hold.release();
  for (Future& f : futs) {
    const StatusCode c = f.status().code();
    EXPECT_TRUE(c == StatusCode::kOk || c == StatusCode::kResourceExhausted)
        << status_code_name(c);
  }
  EXPECT_EQ(eng.stats().rejected, rejected);
}

TEST(EngineOverflow, BlockPolicyAppliesBackpressureThenCompletes) {
  EngineOptions o = small_engine();
  o.queue_capacity = 1;
  o.batch_max = 1;
  o.serial_fallback = false;
  o.overflow = OverflowPolicy::kBlock;
  Engine eng(o);
  ASSERT_TRUE(eng.register_matrix("fig1", test::paper_matrix()).ok());

  PoolHold hold(eng);
  Future f0 = eng.submit("fig1", const_vector(6, 1.0));  // executing
  Future f1 = eng.submit("fig1", const_vector(6, 1.0));  // queued

  std::atomic<bool> blocked_submit_returned{false};
  Future f2;
  std::thread client([&] {
    f2 = eng.submit("fig1", const_vector(6, 1.0));  // blocks: queue full
    blocked_submit_returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(blocked_submit_returned.load());

  hold.release();
  client.join();
  EXPECT_TRUE(f0.status().ok());
  EXPECT_TRUE(f1.status().ok());
  EXPECT_TRUE(f2.status().ok());
  EXPECT_EQ(eng.stats().rejected, 0u);
}

TEST(EngineOverflow, TimeoutPolicyRejectsAfterTheWait) {
  EngineOptions o = small_engine();
  o.queue_capacity = 1;
  o.batch_max = 1;
  o.serial_fallback = false;
  o.overflow = OverflowPolicy::kTimeout;
  o.submit_timeout_ms = 30;
  Engine eng(o);
  ASSERT_TRUE(eng.register_matrix("fig1", test::paper_matrix()).ok());

  PoolHold hold(eng);
  Future f0 = eng.submit("fig1", const_vector(6, 1.0));
  Future f1 = eng.submit("fig1", const_vector(6, 1.0));
  const std::uint64_t t0 = now_ns();
  Future f2 = eng.submit("fig1", const_vector(6, 1.0));
  const std::uint64_t waited_ms = (now_ns() - t0) / 1'000'000;
  EXPECT_EQ(f2.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(waited_ms, 25u);
  hold.release();
  EXPECT_TRUE(f0.status().ok());
  EXPECT_TRUE(f1.status().ok());
}

TEST(EngineDeadline, ExpiredRequestsCompleteDeadlineExceeded) {
  EngineOptions o = small_engine();
  o.batch_max = 1;
  o.serial_fallback = false;
  Engine eng(o);
  ASSERT_TRUE(eng.register_matrix("fig1", test::paper_matrix()).ok());

  PoolHold hold(eng);
  Future blocker = eng.submit("fig1", const_vector(6, 1.0));
  SubmitOptions sopts;
  sopts.deadline_ms = 1;
  Future doomed = eng.submit("fig1", const_vector(6, 1.0), sopts);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  hold.release();
  EXPECT_TRUE(blocker.status().ok());
  EXPECT_EQ(doomed.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(eng.stats().deadline_missed, 1u);
}

TEST(EngineCancel, QueuedRequestCancelsExecutingOneFinishes) {
  EngineOptions o = small_engine();
  o.batch_max = 1;
  o.serial_fallback = false;
  Engine eng(o);
  ASSERT_TRUE(eng.register_matrix("fig1", test::paper_matrix()).ok());

  PoolHold hold(eng);
  Future executing = eng.submit("fig1", const_vector(6, 1.0));
  Future queued = eng.submit("fig1", const_vector(6, 1.0));
  queued.cancel();
  hold.release();
  EXPECT_TRUE(executing.status().ok());
  EXPECT_EQ(queued.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(eng.stats().cancelled, 1u);
}

TEST(EngineLifecycle, DrainWaitsAndShutdownRefusesNewWork) {
  Engine eng(small_engine());
  ASSERT_TRUE(eng.register_matrix("fig1", test::paper_matrix()).ok());

  std::vector<Future> futs;
  for (int i = 0; i < 16; ++i) {
    futs.push_back(eng.submit("fig1", const_vector(6, 1.0)));
  }
  eng.drain();
  EXPECT_EQ(eng.queue_depth(), 0u);
  for (Future& f : futs) {
    EXPECT_TRUE(f.done());
    EXPECT_TRUE(f.status().ok());
  }

  eng.shutdown();
  eng.shutdown();  // idempotent
  Future after = eng.submit("fig1", const_vector(6, 1.0));
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(eng.register_matrix("late", test::paper_matrix()).code(),
            StatusCode::kUnavailable);
}

TEST(EngineLifecycle, QueuedWorkIsServedThroughShutdown) {
  EngineOptions o = small_engine();
  o.batch_max = 1;
  o.serial_fallback = false;
  Engine eng(o);
  ASSERT_TRUE(eng.register_matrix("fig1", test::paper_matrix()).ok());

  std::vector<Future> futs;
  {
    PoolHold hold(eng);
    for (int i = 0; i < 6; ++i) {
      futs.push_back(eng.submit("fig1", const_vector(6, 1.0)));
    }
  }  // release the pool, then shut down: queued requests must be served
  eng.shutdown();
  for (Future& f : futs) {
    EXPECT_TRUE(f.status().ok());
  }
}

TEST(EngineFallback, SaturatedPoolDegradesToSerialBitIdentically) {
  test::ScopedEnv isa("SPC_ISA", "scalar");
  const Triplets t = gen_laplacian_2d(16, 16);
  Rng rng(3);
  const Vector x = random_vector(t.ncols(), rng);
  InstanceOptions iopts;
  iopts.pin_threads = false;
  SpmvInstance direct(t, Format::kCsr, 2, iopts);
  Vector y_direct(t.nrows(), 0.0);
  direct.run(x, y_direct);

  EngineOptions o = small_engine();
  o.serial_fallback = true;
  Engine eng(o);
  ASSERT_TRUE(eng.register_matrix("m", t).ok());

  Future f;
  {
    PoolHold hold(eng);
    f = eng.submit("m", x);
    ASSERT_TRUE(f.wait_for_ms(5000));  // must complete WITHOUT the pool
  }
  ASSERT_TRUE(f.status().ok());
  EXPECT_TRUE(f.ran_serial());
  EXPECT_EQ(eng.stats().serial_runs, 1u);
  EXPECT_EQ(std::memcmp(f.value().data(), y_direct.data(),
                        y_direct.size() * sizeof(value_t)),
            0);
}

}  // namespace
}  // namespace spc::engine
