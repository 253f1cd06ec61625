// Kernel-vs-reference fuzzing across the dispatch matrix: every
// dispatch-routed format × every ISA tier available on this host ×
// serial and multithreaded execution, against the scalar CSR oracle,
// over a swarm of deterministically-seeded random matrices.
//
// The scalar tier must match the oracle bit-for-bit for the row-order
// formats (same accumulation order); vector tiers reassociate per-row
// sums into lane partials, so they are held to a relative-error bound
// instead (a few ulps — the reassociation of ~row_length addends).
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>

#include "spc/gen/generators.hpp"
#include "spc/spmv/dispatch.hpp"
#include "spc/spmv/instance.hpp"
#include "spc/support/topology.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

// Reassociating a length-k sum perturbs it by at most ~k ulps; the
// matrices below stay under ~4k nnz per row, so 1e-12 is generous while
// still catching any indexing bug (which produces O(1) errors).
constexpr double kVectorTol = 1e-12;

// ~20 deterministic draws spanning the structures the kernels
// specialize on: dense-ish rows (contiguous AVX loads), banded
// (RLE-friendly strides), ragged (unit-length tails), rmat (irregular
// gathers), pooled values (small VI tables), plus degenerate shapes.
Triplets fuzz_matrix(int seed) {
  Rng rng(7000 + seed);
  switch (seed % 7) {
    case 0:
      return test::random_triplets(
          1 + static_cast<index_t>(rng.next_below(300)),
          1 + static_cast<index_t>(rng.next_below(300)),
          rng.next_below(5000), rng,
          static_cast<std::uint32_t>(rng.next_below(200)));
    case 1:
      return gen_ragged(1 + static_cast<index_t>(rng.next_below(250)),
                        1 + static_cast<index_t>(rng.next_below(250)),
                        1 + static_cast<index_t>(rng.next_below(30)),
                        0.4 * rng.next_double(), rng,
                        ValueModel::pooled(12));
    case 2:
      return gen_banded(32 + static_cast<index_t>(rng.next_below(300)),
                        1 + static_cast<index_t>(rng.next_below(50)),
                        1 + static_cast<index_t>(rng.next_below(10)), rng,
                        ValueModel::random());
    case 3:
      return gen_rmat(6 + static_cast<std::uint32_t>(rng.next_below(4)),
                      400 + rng.next_below(3000), rng,
                      ValueModel::pooled(6));
    case 4:
      return gen_fem_blocks(
          4 + static_cast<index_t>(rng.next_below(30)),
          1 + static_cast<index_t>(rng.next_below(4)),
          1 + static_cast<index_t>(rng.next_below(5)), rng,
          ValueModel::random());
    case 5: {
      // Long dense rows: exercises the vector kernels' main loops for
      // many iterations and the stride-1 RLE decode.
      const index_t n = 4 + static_cast<index_t>(rng.next_below(8));
      Triplets t(n, 512);
      for (index_t r = 0; r < n; ++r) {
        for (index_t c = 0; c < 512; ++c) {
          t.add(r, c, rng.next_double(-2.0, 2.0));
        }
      }
      t.sort_and_combine();
      return t;
    }
    default: {
      // Tiny/degenerate shapes: single row, single column, 1x1 — all
      // tail-path, no main-loop iterations.
      switch (seed % 3) {
        case 0:
          return test::random_triplets(1, 97, 60, rng);
        case 1:
          return test::random_triplets(97, 1, 60, rng);
        default:
          return test::random_triplets(1, 1, 1, rng);
      }
    }
  }
}

const std::vector<Format>& dispatch_formats() {
  static const std::vector<Format> kFormats = {
      Format::kCsr,      Format::kCsr16,   Format::kCsrVi,
      Format::kCsrDu,    Format::kCsrDuRle, Format::kCsrDuVi,
      Format::kDcsr,     Format::kCoo,
  };
  return kFormats;
}

class DispatchFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DispatchFuzz, EveryFormatEveryTierMatchesScalarCsrOracle) {
  const Triplets t = fuzz_matrix(GetParam());
  if (t.nnz() == 0) {
    GTEST_SKIP() << "degenerate draw";
  }
  Rng xr(9000 + GetParam());
  const Vector x = random_vector(t.ncols(), xr);
  const Vector y_ref = test::reference_spmv(t, x);

  InstanceOptions opts;
  opts.pin_threads = false;
  for (const IsaTier tier : available_isa_tiers()) {
    test::ScopedEnv isa("SPC_ISA", isa_tier_name(tier).c_str());
    for (const Format f : dispatch_formats()) {
      if (f == Format::kCsr16 && !csr16_applicable(t)) {
        continue;
      }
      for (const std::size_t threads : {1u, 4u}) {
        SpmvInstance inst(t, f, threads, opts);
        ASSERT_LE(static_cast<int>(inst.isa_tier()),
                  static_cast<int>(tier));
        Vector y(t.nrows(), std::numeric_limits<double>::quiet_NaN());
        inst.run(x, y);
        const std::string what = format_name(f) + " @" +
                                 isa_tier_name(tier) + " x" +
                                 std::to_string(threads) + " seed " +
                                 std::to_string(GetParam());
        // Row-order formats at the scalar tier share the oracle's exact
        // accumulation order; COO scatters, so tolerance there.
        if (tier == IsaTier::kScalar && f != Format::kCoo) {
          EXPECT_EQ(max_abs_diff(y_ref, y), 0.0) << what;
        } else {
          EXPECT_LT(rel_error(y_ref, y), kVectorTol) << what;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Swarm, DispatchFuzz, ::testing::Range(0, 21));

// Every repackable format under every SPC_NUMA policy must produce the
// byte-for-byte result of the policy-off run: the first-touch repack
// copies slices verbatim and the kernels run in the same order, so at
// the scalar tier even the floating-point accumulation is identical.
const std::vector<Format>& numa_formats() {
  static const std::vector<Format> kFormats = {
      Format::kCsr,    Format::kCsr16,    Format::kCsrVi,
      Format::kCsrDu,  Format::kCsrDuRle, Format::kCsrDuVi,
      Format::kBcsr,   Format::kEll,
  };
  return kFormats;
}

class NumaFuzz : public ::testing::TestWithParam<int> {};

TEST_P(NumaFuzz, RepackedSlicesAreBitIdenticalAcrossPolicies) {
  const Triplets t = fuzz_matrix(GetParam());
  if (t.nnz() == 0) {
    GTEST_SKIP() << "degenerate draw";
  }
  Rng xr(9100 + GetParam());
  const Vector x = random_vector(t.ncols(), xr);

  test::ScopedEnv isa("SPC_ISA", "scalar");
  InstanceOptions opts;
  opts.pin_threads = true;  // placement needs pinned workers
  constexpr std::size_t kThreads = 4;
  for (const Format f : numa_formats()) {
    if (f == Format::kCsr16 && !csr16_applicable(t)) {
      continue;
    }
    Vector y_off(t.nrows(), 0.0);
    {
      test::ScopedEnv numa("SPC_NUMA", "off");
      SpmvInstance inst(t, f, kThreads, opts);
      EXPECT_EQ(inst.numa_policy(), NumaPolicy::kOff);
      inst.run(x, y_off);
    }
    for (const char* policy : {"local", "replicate", "interleaved"}) {
      test::ScopedEnv numa("SPC_NUMA", policy);
      SpmvInstance inst(t, f, kThreads, opts);
      EXPECT_NE(inst.numa_policy(), NumaPolicy::kOff)
          << format_name(f) << " " << policy;
      Vector y(t.nrows(), std::numeric_limits<double>::quiet_NaN());
      inst.run(x, y);
      EXPECT_EQ(max_abs_diff(y_off, y), 0.0)
          << format_name(f) << " " << policy << " seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Swarm, NumaFuzz, ::testing::Range(0, 21));

// Scheduler determinism: chunk boundaries are row-aligned, so whatever
// worker executes a chunk, every row's dot product keeps its serial
// accumulation order — SPC_SCHED must not change results at all at the
// scalar tier, and stays within reassociation noise at vector tiers
// (where the per-row sum itself is lane-split, exactly as under static).
class SchedFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SchedFuzz, DynamicSchedulesMatchStaticAcrossFormatsAndTiers) {
  const Triplets t = fuzz_matrix(GetParam());
  if (t.nnz() == 0) {
    GTEST_SKIP() << "degenerate draw";
  }
  Rng xr(9200 + GetParam());
  const Vector x = random_vector(t.ncols(), xr);
  const Vector y_ref = test::reference_spmv(t, x);

  InstanceOptions opts;
  opts.pin_threads = false;
  // Far below the L2-derived default so the fuzz matrices (a few knnz)
  // actually split into many chunks and steals genuinely happen.
  opts.chunk_nnz = 64;
  for (const IsaTier tier : available_isa_tiers()) {
    test::ScopedEnv isa("SPC_ISA", isa_tier_name(tier).c_str());
    for (const Format f : numa_formats()) {
      if (f == Format::kCsr16 && !csr16_applicable(t)) {
        continue;
      }
      Vector y_static(t.nrows(), 0.0);
      {
        test::ScopedEnv sched("SPC_SCHED", "static");
        SpmvInstance inst(t, f, 4, opts);
        ASSERT_EQ(inst.schedule(), Schedule::kStatic);
        inst.run(x, y_static);
      }
      // Static must itself be correct before it can anchor the others.
      // (Tolerance, not bit-identity: BCSR pads blocks with explicit
      // zeros and so accumulates in a different order than the oracle.)
      ASSERT_LT(rel_error(y_ref, y_static), kVectorTol) << format_name(f);
      for (const char* name : {"chunked", "steal"}) {
        test::ScopedEnv sched("SPC_SCHED", name);
        SpmvInstance inst(t, f, 4, opts);
        Vector y(t.nrows(), std::numeric_limits<double>::quiet_NaN());
        inst.run(x, y);
        const std::string what = format_name(f) + " " + name + " @" +
                                 isa_tier_name(tier) + " seed " +
                                 std::to_string(GetParam());
        if (tier == IsaTier::kScalar) {
          // Same kernel, same rows, same per-row accumulation order —
          // the executor assignment must be invisible in the bits.
          EXPECT_EQ(max_abs_diff(y_static, y), 0.0) << what;
        } else {
          EXPECT_LT(rel_error(y_ref, y), kVectorTol) << what;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Swarm, SchedFuzz, ::testing::Range(0, 21));

// run_on_caller() is the serving engine's serial fallback and a serial
// pass on a pooled instance: whenever it runs it must reproduce the
// pooled run's bits, and it may refuse only where can_run_on_caller()
// says so — exactly the formats that bind no serial kernel (CSC, DIA,
// JDS) and tiled instances under NUMA placement. Swept over every
// non-symmetric format x SPC_TILE x SPC_NUMA x SPC_SCHED at the scalar
// tier and the active one.
class CallerFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CallerFuzz, RunOnCallerMatchesPooledRunBitForBit) {
  const Triplets t = fuzz_matrix(GetParam());
  if (t.nnz() == 0) {
    GTEST_SKIP() << "degenerate draw";
  }
  Rng xr(9300 + GetParam());
  const Vector x = random_vector(t.ncols(), xr);
  const Vector y_ref = test::reference_spmv(t, x);
  // Finite, so a row left unwritten fails the reference check (NaN would
  // slip through max_abs_diff).
  constexpr value_t kUnwritten = -1e300;

  // One pinned pool lent to every instance, as the serving engine does
  // (NUMA placement needs pinned workers).
  const auto pool = std::make_shared<ThreadPool>(
      4, plan_placement(discover_topology(), 4, Placement::kCloseFirst));
  InstanceOptions opts;
  opts.chunk_nnz = 64;  // several chunks per worker, so steals happen
  std::vector<IsaTier> tiers = {IsaTier::kScalar};
  if (active_isa_tier() != IsaTier::kScalar) {
    tiers.push_back(active_isa_tier());
  }
  for (const IsaTier tier : tiers) {
    test::ScopedEnv isa("SPC_ISA", isa_tier_name(tier).c_str());
    for (const char* tile : {"off", "4k"}) {
      test::ScopedEnv tile_env("SPC_TILE", tile);
      for (const char* numa : {"off", "replicate"}) {
        test::ScopedEnv numa_env("SPC_NUMA", numa);
        for (const char* sched : {"static", "steal"}) {
          test::ScopedEnv sched_env("SPC_SCHED", sched);
          for (const Format f : all_formats()) {
            if (format_requires_symmetry(f) ||
                (f == Format::kCsr16 && !csr16_applicable(t))) {
              continue;
            }
            SpmvInstance inst(t, f, pool, opts);
            const std::string what =
                format_name(f) + " tile=" + tile + " numa=" + numa +
                " sched=" + sched + " @" + isa_tier_name(tier) +
                " seed " + std::to_string(GetParam());
            Vector y_pool(t.nrows(), kUnwritten);
            inst.run(x, y_pool);
            EXPECT_LT(rel_error(y_ref, y_pool), kVectorTol) << what;

            const bool refuses =
                f == Format::kCsc || f == Format::kDia ||
                f == Format::kJds ||
                (inst.tiling_active() &&
                 inst.numa_policy() != NumaPolicy::kOff);
            EXPECT_EQ(inst.can_run_on_caller(), !refuses) << what;
            Vector y_caller(t.nrows(), kUnwritten);
            const bool ran = inst.run_on_caller(x, y_caller);
            EXPECT_EQ(ran, inst.can_run_on_caller()) << what;
            if (ran) {
              EXPECT_EQ(std::memcmp(y_caller.data(), y_pool.data(),
                                    y_pool.size() * sizeof(value_t)),
                        0)
                  << what;
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Swarm, CallerFuzz, ::testing::Range(0, 21));

}  // namespace
}  // namespace spc
