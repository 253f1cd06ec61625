// SpmvInstance-level behavior of the work-stealing scheduler: policy
// resolution (options + SPC_SCHED), chunk accounting, result identity,
// and the static default staying untouched.
#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include "spc/gen/generators.hpp"
#include "spc/spmv/instance.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

Triplets skewed_matrix() {
  // Power-law-ish row lengths so chunking is non-trivial: a few dense
  // rows among many sparse ones.
  Rng rng(424242);
  Triplets t = gen_rmat(10, 20000, rng, ValueModel::random());
  return t;
}

const std::vector<Format>& sched_formats() {
  static const std::vector<Format> kFormats = {
      Format::kCsr,    Format::kCsr16,   Format::kCsrVi,
      Format::kCsrDu,  Format::kCsrDuVi,
  };
  return kFormats;
}

// Most tests here program the schedule through InstanceOptions; an
// ambient SPC_SCHED (the CI steal leg exports one suite-wide) would
// override every one of them, so they pin it to empty (= use options).

TEST(SchedInstance, StaticIsTheDefaultAndCarriesNoChunkState) {
  test::ScopedEnv sched("SPC_SCHED", "");
  const Triplets t = skewed_matrix();
  SpmvInstance inst(t, Format::kCsr, 4);
  EXPECT_EQ(inst.schedule(), Schedule::kStatic);
  EXPECT_EQ(inst.sched_chunks(), 0u);
  EXPECT_EQ(inst.sched_steals_total(), 0u);
}

TEST(SchedInstance, OptionsSelectTheSchedule) {
  test::ScopedEnv sched("SPC_SCHED", "");
  const Triplets t = skewed_matrix();
  InstanceOptions opts;
  opts.pin_threads = false;
  opts.chunk_nnz = 1024;
  opts.schedule = Schedule::kSteal;
  SpmvInstance inst(t, Format::kCsr, 4, opts);
  EXPECT_EQ(inst.schedule(), Schedule::kSteal);
  EXPECT_GT(inst.sched_chunks(), 4u);
}

TEST(SchedInstance, DerivedTargetKeepsStealGranular) {
  // With the L2-derived target a small matrix would collapse to one
  // chunk per worker — useless for stealing. The derived path shrinks
  // the target toward >= 4 chunks per worker; an explicit chunk_nnz is
  // honored verbatim.
  test::ScopedEnv sched("SPC_SCHED", "");
  test::ScopedEnv chunk("SPC_CHUNK_NNZ", "");
  Rng rng(21);
  const Triplets t = test::random_triplets(2000, 2000, 40000, rng);
  InstanceOptions opts;
  opts.pin_threads = false;
  opts.schedule = Schedule::kSteal;
  {
    SpmvInstance inst(t, Format::kCsr, 4, opts);
    EXPECT_GE(inst.sched_chunks(), 8u);
  }
  {
    opts.chunk_nnz = usize_t{1} << 20;  // far above nnz: one per worker
    SpmvInstance inst(t, Format::kCsr, 4, opts);
    EXPECT_EQ(inst.sched_chunks(), 4u);
  }
}

TEST(SchedInstance, EnvOverridesOptions) {
  const Triplets t = skewed_matrix();
  InstanceOptions opts;
  opts.pin_threads = false;
  opts.chunk_nnz = 1024;
  test::ScopedEnv env("SPC_SCHED", "steal");
  SpmvInstance inst(t, Format::kCsr, 4, opts);
  EXPECT_EQ(inst.schedule(), Schedule::kSteal);
}

TEST(SchedInstance, SerialInstancesStayStatic) {
  test::ScopedEnv sched("SPC_SCHED", "");
  const Triplets t = skewed_matrix();
  InstanceOptions opts;
  opts.schedule = Schedule::kSteal;
  SpmvInstance inst(t, Format::kCsr, 1, opts);
  EXPECT_EQ(inst.schedule(), Schedule::kStatic);
}

TEST(SchedInstance, ExecutedChunkCountsSumToPlanTimesRuns) {
  test::ScopedEnv sched("SPC_SCHED", "");
  const Triplets t = skewed_matrix();
  Rng xr(9);
  const Vector x = random_vector(t.ncols(), xr);
  Vector y(t.nrows(), 0.0);
  InstanceOptions opts;
  opts.pin_threads = false;
  opts.chunk_nnz = 1024;
  opts.schedule = Schedule::kSteal;
  SpmvInstance inst(t, Format::kCsr, 4, opts);
  const std::size_t chunks = inst.sched_chunks();
  ASSERT_GT(chunks, 0u);
  constexpr std::uint64_t kRuns = 5;
  for (std::uint64_t i = 0; i < kRuns; ++i) {
    inst.run(x, y);
  }
  std::uint64_t executed = 0;
  for (std::size_t th = 0; th < inst.nthreads(); ++th) {
    executed += inst.sched_executed(th);
  }
  EXPECT_EQ(executed, kRuns * chunks);
  // Steals are opportunistic — only the invariant total is exact; stolen
  // chunks are a subset of executed ones.
  EXPECT_LE(inst.sched_steals_total(), executed);
  inst.sched_reset();
  for (std::size_t th = 0; th < inst.nthreads(); ++th) {
    EXPECT_EQ(inst.sched_executed(th), 0u);
    EXPECT_EQ(inst.sched_stolen(th), 0u);
  }
}

TEST(SchedInstance, TinyChunksForceManyChunksAndStayExact) {
  // chunk_nnz far below row lengths: one chunk per row or close to it —
  // the most deque traffic per nnz the scheduler can see.
  Rng rng(10);
  const Triplets t = test::random_triplets(200, 200, 6000, rng);
  Rng xr(11);
  const Vector x = random_vector(t.ncols(), xr);
  const Vector y_ref = test::reference_spmv(t, x);
  test::ScopedEnv isa("SPC_ISA", "scalar");
  test::ScopedEnv sched("SPC_SCHED", "");
  InstanceOptions opts;
  opts.pin_threads = false;
  opts.chunk_nnz = 1;
  opts.schedule = Schedule::kSteal;
  SpmvInstance inst(t, Format::kCsr, 4, opts);
  EXPECT_GT(inst.sched_chunks(), 100u);
  for (int i = 0; i < 10; ++i) {
    Vector y(t.nrows(), std::numeric_limits<double>::quiet_NaN());
    inst.run(x, y);
    ASSERT_EQ(max_abs_diff(y_ref, y), 0.0) << "run " << i;
  }
}

TEST(SchedInstance, EveryFormatMatchesStaticBitForBitAtScalar) {
  const Triplets t = skewed_matrix();
  Rng xr(12);
  const Vector x = random_vector(t.ncols(), xr);
  test::ScopedEnv isa("SPC_ISA", "scalar");
  test::ScopedEnv sched("SPC_SCHED", "");
  InstanceOptions opts;
  opts.pin_threads = false;
  opts.chunk_nnz = 2048;
  for (const Format f : sched_formats()) {
    if (f == Format::kCsr16 && !csr16_applicable(t)) {
      continue;
    }
    Vector y_static(t.nrows(), 0.0);
    {
      opts.schedule = Schedule::kStatic;
      SpmvInstance inst(t, f, 4, opts);
      inst.run(x, y_static);
    }
    opts.schedule = Schedule::kSteal;
    SpmvInstance inst(t, f, 4, opts);
    ASSERT_EQ(inst.schedule(), Schedule::kSteal) << format_name(f);
    Vector y(t.nrows(), std::numeric_limits<double>::quiet_NaN());
    inst.run(x, y);
    EXPECT_EQ(max_abs_diff(y_static, y), 0.0) << format_name(f);
  }
}

TEST(SchedInstance, StealOnPinnedWorkersMatchesUnpinnedStatic) {
  // Pinned workers record their nodes, which order each thief's
  // victims; chunk closures still bind to their owner's slice, so y is
  // the bits of an unpinned static run.
  const Triplets t = skewed_matrix();
  Rng xr(13);
  const Vector x = random_vector(t.ncols(), xr);
  test::ScopedEnv isa("SPC_ISA", "scalar");
  test::ScopedEnv sched("SPC_SCHED", "");
  InstanceOptions unpinned;
  unpinned.pin_threads = false;
  InstanceOptions pinned;
  pinned.chunk_nnz = 2048;
  pinned.schedule = Schedule::kSteal;
  for (const Format f : sched_formats()) {
    if (f == Format::kCsr16 && !csr16_applicable(t)) {
      continue;
    }
    Vector y_static(t.nrows(), 0.0);
    SpmvInstance(t, f, 4, unpinned).run(x, y_static);
    SpmvInstance inst(t, f, 4, pinned);
    EXPECT_EQ(inst.thread_nodes().size(), 4u) << format_name(f);
    ASSERT_EQ(inst.schedule(), Schedule::kSteal) << format_name(f);
    Vector y(t.nrows(), std::numeric_limits<double>::quiet_NaN());
    inst.run(x, y);
    EXPECT_EQ(max_abs_diff(y_static, y), 0.0) << format_name(f);
  }
}

}  // namespace
}  // namespace spc
