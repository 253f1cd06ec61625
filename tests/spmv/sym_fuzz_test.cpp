// Fuzz sweep for the symmetric conflict-window reduction. The contract
// under test: at SPC_ISA=scalar, the window and private-y schemes are
// *bit-identical* for every (format, threads, schedule) cell —
// both fold the same per-thread partial sums in ascending thread order,
// so the reduction layout is interchangeable by construction. Neither
// is bit-identical to serial (the per-thread grouping reassociates
// foreign scatter contributions), so serial agreement is held to 1e-12
// relative error instead.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include "spc/gen/generators.hpp"
#include "spc/spmv/instance.hpp"
#include "spc/spmv/sym_spmv.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

constexpr double kTol = 1e-12;

// A + A^T: numerically symmetric by construction.
Triplets symmetrized(const Triplets& a) {
  Triplets s(a.nrows(), a.ncols());
  for (const Entry& e : a.entries()) {
    s.add(e.row, e.col, e.val);
    s.add(e.col, e.row, e.val);
  }
  s.sort_and_combine();
  return s;
}

// Mirrored random pairs with a full diagonal; built through a map keyed
// on the upper triangle so collisions cannot break symmetry.
Triplets random_symmetric(index_t n, usize_t offdiag_pairs, Rng& rng) {
  std::map<std::pair<index_t, index_t>, value_t> upper;
  for (index_t i = 0; i < n; ++i) {
    upper[{i, i}] = 2.0 + rng.next_double();
  }
  for (usize_t k = 0; k < offdiag_pairs; ++k) {
    const auto r = static_cast<index_t>(rng.next_below(n));
    const auto c = static_cast<index_t>(rng.next_below(n));
    if (r == c) {
      continue;
    }
    upper[{std::min(r, c), std::max(r, c)}] = rng.next_double(-1.0, 1.0);
  }
  Triplets t(n, n);
  for (const auto& [rc, v] : upper) {
    t.add(rc.first, rc.second, v);
    if (rc.first != rc.second) {
      t.add(rc.second, rc.first, v);
    }
  }
  t.sort_and_combine();
  return t;
}

// Seed-indexed matrix family: random mirrored pairs, pooled symmetric
// bands (VI-friendly), and 5-point Laplacians of varying aspect.
Triplets fuzz_matrix(std::uint64_t seed) {
  Rng rng(seed * 977 + 13);
  const auto n = static_cast<index_t>(150 + rng.next_below(350));
  switch (seed % 3) {
    case 0:
      return random_symmetric(n, static_cast<usize_t>(n) * 4, rng);
    case 1:
      return symmetrized(gen_banded(
          n, static_cast<index_t>(5 + seed % 23),
          static_cast<index_t>(3 + seed % 7), rng,
          ValueModel::pooled(static_cast<std::uint32_t>(4 + seed % 40))));
    default:
      return gen_laplacian_2d(static_cast<index_t>(10 + seed),
                              static_cast<index_t>(8 + seed));
  }
}

// The sweep body: for both symmetric formats, every thread count must
// produce a window result bit-identical to the private result, and
// both within kTol of the serial kernel.
void expect_window_matches_private(const Triplets& t,
                                   const std::string& label,
                                   std::uint64_t xseed) {
  test::ScopedEnv isa("SPC_ISA", "scalar");
  test::ScopedEnv red("SPC_SYM_REDUCE", "");  // opts decide, not the env
  Rng xr(xseed * 31 + 7);
  const Vector x = random_vector(t.ncols(), xr);
  const Vector ref = test::reference_spmv(t, x);

  for (const Format f : {Format::kSymCsr, Format::kSymCsrVi}) {
    InstanceOptions base;
    base.pin_threads = false;
    SpmvInstance serial(t, f, 1, base);
    Vector y_serial(t.nrows(), 0.0);
    serial.run(x, y_serial);
    ASSERT_LT(rel_error(ref, y_serial), kTol)
        << label << " " << format_name(f) << " serial";

    for (const std::size_t threads : {2, 4, 8}) {
      InstanceOptions opts = base;
      opts.sym_reduce = SymReduce::kWindow;
      SpmvInstance win(t, f, threads, opts);
      ASSERT_EQ(win.sym_reduce(), SymReduce::kWindow);
      Vector y_win(t.nrows(), std::numeric_limits<double>::quiet_NaN());
      win.run(x, y_win);

      opts.sym_reduce = SymReduce::kPrivate;
      SpmvInstance priv(t, f, threads, opts);
      ASSERT_EQ(priv.sym_reduce(), SymReduce::kPrivate);
      Vector y_priv(t.nrows(), std::numeric_limits<double>::quiet_NaN());
      priv.run(x, y_priv);

      const std::string cell = label + " " + std::string(format_name(f)) +
                               " x" + std::to_string(threads);
      EXPECT_EQ(max_abs_diff(y_win, y_priv), 0.0) << cell;
      EXPECT_LT(rel_error(ref, y_win), kTol) << cell;
    }
  }
}

class SymFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SymFuzz, WindowBitIdenticalToPrivateAcrossCells) {
  const std::uint64_t seed = GetParam();
  expect_window_matches_private(fuzz_matrix(seed),
                                "seed " + std::to_string(seed), seed);
}

INSTANTIATE_TEST_SUITE_P(TwentyOneSeeds, SymFuzz,
                         ::testing::Range<std::uint64_t>(0, 21));

// Arrow matrix: a dense first row/column drags every thread's window
// start to row 0 — the worst case the kAuto degeneracy check exists
// for. Forced kWindow must still agree with kPrivate bit-for-bit.
TEST(SymFuzzAdversarial, ArrowMatrix) {
  const index_t n = 600;
  Triplets t(n, n);
  for (index_t i = 0; i < n; ++i) {
    t.add(i, i, 2.0 + static_cast<double>(i % 3));
  }
  for (index_t i = 1; i < n; ++i) {
    const value_t v = 1.0 + static_cast<double>(i % 5);
    t.add(i, 0, v);
    t.add(0, i, v);
  }
  t.sort_and_combine();
  expect_window_matches_private(t, "arrow", 101);
}

// Dense middle row (and, by symmetry, column): scatters concentrate on
// one shared row in the middle of the partition.
TEST(SymFuzzAdversarial, DenseMiddleRow) {
  const index_t n = 500;
  const index_t mid = n / 2;
  Rng rng(55);
  Triplets t = random_symmetric(n, 800, rng);
  Triplets dense(n, n);
  for (const Entry& e : t.entries()) {
    dense.add(e.row, e.col, e.val);
  }
  for (index_t j = 0; j < n; ++j) {
    if (j != mid) {
      dense.add(mid, j, 0.25);
      dense.add(j, mid, 0.25);
    }
  }
  dense.sort_and_combine();
  expect_window_matches_private(dense, "dense-mid-row", 102);
}

// Diagonal-only: the lower triangle is empty, every window is empty,
// and the reduction must degrade to a no-op in both modes.
TEST(SymFuzzAdversarial, DiagonalOnly) {
  const index_t n = 64;
  Triplets t(n, n);
  for (index_t i = 0; i < n; ++i) {
    t.add(i, i, static_cast<value_t>(i + 1));
  }
  t.sort_and_combine();
  expect_window_matches_private(t, "diag-only", 103);
}

// More threads than rows: partitions with empty ranges must not scatter
// or fold anything out of bounds.
TEST(SymFuzzAdversarial, TinyMatrices) {
  for (const index_t n : {1, 2, 3, 5}) {
    Triplets t(n, n);
    for (index_t i = 0; i < n; ++i) {
      t.add(i, i, 1.5);
      if (i > 0) {
        t.add(i, i - 1, 0.5);
        t.add(i - 1, i, 0.5);
      }
    }
    t.sort_and_combine();
    expect_window_matches_private(t, "tiny n=" + std::to_string(n),
                                  104 + static_cast<std::uint64_t>(n));
  }
}

// SPC_SYM_REDUCE overrides whatever the options request — the knob the
// ablation relies on being unset.
TEST(SymFuzzEnv, EnvOverridesRequestedMode) {
  test::ScopedEnv isa("SPC_ISA", "scalar");
  const Triplets t = gen_laplacian_2d(20, 20);
  InstanceOptions opts;
  opts.pin_threads = false;
  {
    test::ScopedEnv red("SPC_SYM_REDUCE", "private");
    opts.sym_reduce = SymReduce::kAuto;
    SpmvInstance inst(t, Format::kSymCsr, 4, opts);
    EXPECT_EQ(inst.sym_reduce(), SymReduce::kPrivate);
  }
  {
    test::ScopedEnv red("SPC_SYM_REDUCE", "window");
    opts.sym_reduce = SymReduce::kPrivate;
    SpmvInstance inst(t, Format::kSymCsr, 4, opts);
    EXPECT_EQ(inst.sym_reduce(), SymReduce::kWindow);
  }
}

// The work-stealing schedule is demoted to static for the symmetric
// formats (stealing would break the window ownership invariant), with a
// decisions() entry; the result must still match private-y bit-for-bit.
TEST(SymFuzzEnv, StealDemotesToStatic) {
  test::ScopedEnv isa("SPC_ISA", "scalar");
  test::ScopedEnv red("SPC_SYM_REDUCE", "");
  Rng rng(77);
  const Triplets t = random_symmetric(300, 1200, rng);
  Rng xr(78);
  const Vector x = random_vector(300, xr);

  InstanceOptions opts;
  opts.pin_threads = false;
  opts.schedule = Schedule::kSteal;
  opts.sym_reduce = SymReduce::kWindow;
  SpmvInstance win(t, Format::kSymCsr, 4, opts);
  EXPECT_EQ(win.schedule(), Schedule::kStatic);
  EXPECT_EQ(win.sched_chunks(), 0u);
  ASSERT_FALSE(win.decisions().empty());
  EXPECT_EQ(win.decisions()[0].aspect, "schedule");
  EXPECT_EQ(win.decisions()[0].requested, "steal");
  EXPECT_EQ(win.decisions()[0].resolved, "static");
  Vector y_win(300, 0.0);
  win.run(x, y_win);

  opts.sym_reduce = SymReduce::kPrivate;
  SpmvInstance priv(t, Format::kSymCsr, 4, opts);
  Vector y_priv(300, 1.0);
  priv.run(x, y_priv);
  EXPECT_EQ(max_abs_diff(y_win, y_priv), 0.0);
  EXPECT_LT(rel_error(test::reference_spmv(t, x), y_win), kTol);
}

}  // namespace
}  // namespace spc
