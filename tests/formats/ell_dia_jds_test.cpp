#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "spc/formats/dia.hpp"
#include "spc/formats/ell.hpp"
#include "spc/formats/jds.hpp"
#include "spc/gen/generators.hpp"
#include "spc/spmv/kernels.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

Triplets nonzero_random(index_t nrows, index_t ncols, usize_t n,
                        std::uint64_t seed) {
  // Values strictly nonzero: zeros are indistinguishable from padding in
  // ELL/DIA round trips (same caveat as BCSR fill).
  Rng rng(seed);
  Triplets t(nrows, ncols);
  for (usize_t k = 0; k < n; ++k) {
    t.add(static_cast<index_t>(rng.next_below(nrows)),
          static_cast<index_t>(rng.next_below(ncols)),
          1.0 + rng.next_double());
  }
  t.sort_and_dedup_keep_first();
  return t;
}

// ------------------------------------------------------------------ ELL

TEST(Ell, RoundTripPaperMatrix) {
  const Triplets orig = test::paper_matrix();
  const Ell m = Ell::from_triplets(orig);
  EXPECT_EQ(m.width(), 4u);  // paper matrix: longest row has 4 entries
  test::expect_triplets_eq(orig, m.to_triplets());
}

TEST(Ell, PaddingRepeatsLastColumn) {
  Triplets t(2, 8);
  t.add(0, 3, 1.0);
  t.add(1, 1, 2.0);
  t.add(1, 5, 3.0);
  t.sort_and_combine();
  const Ell m = Ell::from_triplets(t);
  ASSERT_EQ(m.width(), 2u);
  EXPECT_EQ(m.col_ind()[0], 3u);
  EXPECT_EQ(m.col_ind()[1], 3u);  // padding repeats col 3
  EXPECT_DOUBLE_EQ(m.values()[1], 0.0);
}

TEST(Ell, PaddingRatioOnUniformRows) {
  const Triplets t = gen_laplacian_2d(20, 20);
  const Ell m = Ell::from_triplets(t);
  EXPECT_EQ(m.width(), 5u);
  EXPECT_LT(m.padding_ratio(), 1.35);  // mostly interior rows of 5
}

TEST(Ell, WidthGuardRejectsSkew) {
  Triplets t(100, 2000);
  for (index_t c = 0; c < 2000; ++c) {
    t.add(0, c, 1.0);  // one huge row
  }
  for (index_t r = 1; r < 100; ++r) {
    t.add(r, r, 1.0);
  }
  t.sort_and_combine();
  EXPECT_THROW(Ell::from_triplets(t, 8.0), InvalidArgument);
  EXPECT_NO_THROW(Ell::from_triplets(t, 0.0));  // unguarded
}

TEST(Ell, EmptyRowsAndEmptyMatrix) {
  Triplets t(4, 4);
  t.add(2, 1, 5.0);
  t.sort_and_combine();
  test::expect_triplets_eq(t, Ell::from_triplets(t).to_triplets());
  Triplets empty(3, 3);
  const Ell m = Ell::from_triplets(empty);
  EXPECT_EQ(m.width(), 0u);
  EXPECT_TRUE(m.to_triplets().empty());
}

// ------------------------------------------------------------------ DIA

TEST(Dia, RoundTripTridiagonal) {
  Triplets t(6, 6);
  for (index_t i = 0; i < 6; ++i) {
    if (i > 0) {
      t.add(i, i - 1, 1.0);
    }
    t.add(i, i, 2.0);
    if (i + 1 < 6) {
      t.add(i, i + 1, 3.0);
    }
  }
  t.sort_and_combine();
  const Dia m = Dia::from_triplets(t);
  EXPECT_EQ(m.ndiags(), 3u);
  EXPECT_EQ(m.offsets(), (std::vector<std::int64_t>{-1, 0, 1}));
  test::expect_triplets_eq(t, m.to_triplets());
}

TEST(Dia, LaplacianHasFiveDiagonals) {
  const Triplets t = gen_laplacian_2d(10, 10);
  const Dia m = Dia::from_triplets(t);
  EXPECT_EQ(m.ndiags(), 5u);  // offsets -10, -1, 0, 1, 10
  test::expect_triplets_eq(t, m.to_triplets());
}

TEST(Dia, DiagGuardRejectsScatter) {
  const Triplets t = nonzero_random(200, 200, 2000, 3);
  EXPECT_THROW(Dia::from_triplets(t, 16), InvalidArgument);
  EXPECT_NO_THROW(Dia::from_triplets(t, 0));
}

TEST(Dia, RectangularMatrix) {
  Triplets t(3, 7);
  t.add(0, 5, 1.0);
  t.add(2, 0, 2.0);
  t.add(1, 6, 3.0);
  t.sort_and_combine();
  test::expect_triplets_eq(t, Dia::from_triplets(t).to_triplets());
}

TEST(Dia, TallMatrixReadsOnlyNcolsOfX) {
  // nrows > ncols: the sub-diagonals run off the right edge too, so the
  // kernel must stop every diagonal at column ncols-1. x sits at the
  // front of a longer buffer whose tail is NaN; any read past x[3]
  // poisons y.
  const Triplets t = nonzero_random(40, 4, 120, 5);
  const Dia m = Dia::from_triplets(t);
  Vector buf(44, std::numeric_limits<value_t>::quiet_NaN());
  Rng xr(6);
  for (index_t c = 0; c < 4; ++c) {
    buf[c] = xr.next_double(-1.0, 1.0);
  }
  const Vector x(buf.begin(), buf.begin() + 4);
  const Vector ref = test::reference_spmv(t, x);

  Vector y(40, -1.0);
  spmv(m, buf.data(), y.data());
  // The multithreaded path runs the same kernel over row ranges.
  Vector y_ranges(40, -1.0);
  for (index_t r = 0; r < 40; r += 13) {
    spmv_dia_range(m, buf.data(), y_ranges.data(), r,
                   std::min<index_t>(40, r + 13));
  }
  // Per-row EXPECT_NEAR, not rel_error: a NaN row must fail the test.
  for (index_t r = 0; r < 40; ++r) {
    EXPECT_NEAR(y[r], ref[r], 1e-12) << "row " << r;
    EXPECT_NEAR(y_ranges[r], ref[r], 1e-12) << "row " << r;
  }
}

// ------------------------------------------------------------------ JDS

TEST(Jds, RoundTripPaperMatrix) {
  const Triplets orig = test::paper_matrix();
  const Jds m = Jds::from_triplets(orig);
  EXPECT_EQ(m.njdiags(), 4u);  // longest row
  EXPECT_EQ(m.nnz(), orig.nnz());
  test::expect_triplets_eq(orig, m.to_triplets());
}

TEST(Jds, PermSortsRowsByLengthDesc) {
  const Jds m = Jds::from_triplets(test::paper_matrix());
  // Row lengths in Fig 1: 2,3,1,3,3,4 — so perm starts with row 5 (4
  // entries), then the 3-entry rows 1,3,4 in stable order, then 0, then 2.
  EXPECT_EQ(m.perm()[0], 5u);
  EXPECT_EQ(m.perm()[1], 1u);
  EXPECT_EQ(m.perm()[2], 3u);
  EXPECT_EQ(m.perm()[3], 4u);
  EXPECT_EQ(m.perm()[4], 0u);
  EXPECT_EQ(m.perm()[5], 2u);
}

TEST(Jds, JaggedDiagonalsShrinkMonotonically) {
  const Triplets t = nonzero_random(300, 300, 4000, 5);
  const Jds m = Jds::from_triplets(t);
  for (index_t j = 1; j < m.njdiags(); ++j) {
    EXPECT_LE(m.jd_ptr()[j + 1] - m.jd_ptr()[j],
              m.jd_ptr()[j] - m.jd_ptr()[j - 1]);
  }
  test::expect_triplets_eq(t, m.to_triplets());
}

TEST(Jds, HandlesEmptyRows) {
  Triplets t(10, 10);
  t.add(3, 2, 1.0);
  t.add(3, 7, 2.0);
  t.add(8, 1, 3.0);
  t.sort_and_combine();
  test::expect_triplets_eq(t, Jds::from_triplets(t).to_triplets());
}

TEST(Jds, EmptyMatrix) {
  Triplets t(5, 5);
  const Jds m = Jds::from_triplets(t);
  EXPECT_EQ(m.njdiags(), 0u);
  EXPECT_TRUE(m.to_triplets().empty());
}

class ClassicFormatsRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ClassicFormatsRoundTrip, RandomMatrices) {
  const Triplets t = nonzero_random(
      1 + static_cast<index_t>(GetParam() * 37 % 150),
      1 + static_cast<index_t>(GetParam() * 53 % 150),
      200 + static_cast<usize_t>(GetParam()) * 111, 1000 + GetParam());
  test::expect_triplets_eq(t, Ell::from_triplets(t).to_triplets());
  test::expect_triplets_eq(t, Dia::from_triplets(t).to_triplets());
  test::expect_triplets_eq(t, Jds::from_triplets(t).to_triplets());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassicFormatsRoundTrip,
                         ::testing::Range(1, 11));

}  // namespace
}  // namespace spc
