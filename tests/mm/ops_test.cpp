#include "spc/mm/ops.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "spc/formats/sym_csr.hpp"
#include "spc/gen/generators.hpp"
#include "spc/mm/vector.hpp"
#include "spc/tune/features.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

TEST(Ops, TransposeSwapsCoordinates) {
  const Triplets t = test::paper_matrix();
  const Triplets tt = transpose(t);
  EXPECT_EQ(tt.nrows(), t.ncols());
  EXPECT_EQ(tt.ncols(), t.nrows());
  EXPECT_EQ(tt.nnz(), t.nnz());
  test::expect_triplets_eq(t, transpose(tt));
}

TEST(Ops, TransposeRectangular) {
  Triplets t(2, 5);
  t.add(0, 4, 1.5);
  t.add(1, 0, -2.0);
  t.sort_and_combine();
  const Triplets tt = transpose(t);
  EXPECT_EQ(tt.entries()[0], (Entry{0, 1, -2.0}));
  EXPECT_EQ(tt.entries()[1], (Entry{4, 0, 1.5}));
}

TEST(Ops, ScaleMultipliesValues) {
  const Triplets t = test::paper_matrix();
  const Triplets s = scale(t, -2.0);
  ASSERT_EQ(s.nnz(), t.nnz());
  for (usize_t i = 0; i < t.nnz(); ++i) {
    EXPECT_DOUBLE_EQ(s.entries()[i].val, -2.0 * t.entries()[i].val);
  }
}

TEST(Ops, AddMergesStructures) {
  Triplets a(2, 2), b(2, 2);
  a.add(0, 0, 1.0);
  a.add(1, 1, 2.0);
  a.sort_and_combine();
  b.add(0, 0, 3.0);
  b.add(0, 1, 4.0);
  b.sort_and_combine();
  const Triplets c = add(a, b);
  ASSERT_EQ(c.nnz(), 3u);
  EXPECT_DOUBLE_EQ(c.entries()[0].val, 4.0);  // (0,0) summed
  EXPECT_DOUBLE_EQ(c.entries()[1].val, 4.0);  // (0,1)
  EXPECT_DOUBLE_EQ(c.entries()[2].val, 2.0);  // (1,1)
}

TEST(Ops, AddRejectsDimensionMismatch) {
  Triplets a(2, 2), b(3, 2);
  EXPECT_THROW(add(a, b), Error);
}

TEST(Ops, SymmetrizeProducesSymmetricMatrix) {
  Rng rng(1);
  const Triplets t = test::random_triplets(50, 50, 400, rng);
  const Triplets s = symmetrize(t);
  const Triplets st = transpose(s);
  EXPECT_TRUE(equal(s, st));
  // A + At halves preserve row sums: frobenius within bounds.
  EXPECT_LE(frobenius_norm(s), frobenius_norm(t) + 1e-12);
}

TEST(Ops, ExtractTriangles) {
  const Triplets t = test::paper_matrix();
  const Triplets lower = extract_triangle(t, Triangle::kLower, true);
  const Triplets strict_upper =
      extract_triangle(t, Triangle::kUpper, false);
  // Lower + strict upper reassembles the matrix.
  test::expect_triplets_eq(t, add(lower, strict_upper));
  for (const Entry& e : lower.entries()) {
    EXPECT_LE(e.col, e.row);
  }
  for (const Entry& e : strict_upper.entries()) {
    EXPECT_GT(e.col, e.row);
  }
}

TEST(Ops, EqualIsExact) {
  const Triplets a = test::paper_matrix();
  Triplets b = test::paper_matrix();
  EXPECT_TRUE(equal(a, b));
  Triplets c = test::paper_matrix();
  // Perturb one value.
  Triplets d(6, 6);
  for (const Entry& e : c.entries()) {
    d.add(e.row, e.col, e.val == 5.4 ? 5.4000001 : e.val);
  }
  d.sort_and_combine();
  EXPECT_FALSE(equal(a, d));
}

TEST(Ops, FrobeniusNorm) {
  Triplets t(2, 2);
  t.add(0, 0, 3.0);
  t.add(1, 1, 4.0);
  t.sort_and_combine();
  EXPECT_DOUBLE_EQ(frobenius_norm(t), 5.0);
}

TEST(Ops, MaxEntryDiffOverUnion) {
  Triplets a(2, 2), b(2, 2);
  a.add(0, 0, 1.0);
  a.add(0, 1, 5.0);
  a.sort_and_combine();
  b.add(0, 0, 1.25);
  b.add(1, 1, -2.0);
  b.sort_and_combine();
  // diffs: (0,0): 0.25; (0,1): 5 only in a; (1,1): 2 only in b.
  EXPECT_DOUBLE_EQ(max_entry_diff(a, b), 5.0);
  EXPECT_DOUBLE_EQ(max_entry_diff(a, a), 0.0);
}

TEST(Ops, TransposeConsistentWithSpmv) {
  // y = Aᵀ x computed two ways.
  Rng rng(2);
  const Triplets t = test::random_triplets(40, 60, 500, rng);
  Rng xr(3);
  const Vector x = random_vector(40, xr);
  const Vector y1 = test::reference_spmv(transpose(t), x);
  // Direct: y[c] += v * x[r].
  Vector y2(60, 0.0);
  for (const Entry& e : t.entries()) {
    y2[e.col] += e.val * x[e.row];
  }
  EXPECT_LT(max_abs_diff(y1, y2), 1e-12);
}

TEST(Dense, FromDenseToDenseRoundTrip) {
  const value_t data[6] = {1.0, 0.0, 2.0, 0.0, 0.0, -3.0};
  const Triplets t = from_dense(data, 2, 3);
  EXPECT_EQ(t.nnz(), 3u);
  EXPECT_TRUE(t.is_sorted_unique());
  const Vector back = to_dense(t);
  for (int i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(back[i], data[i]);
  }
}

TEST(Dense, ToDenseOfPaperMatrixMatchesFig1) {
  const Vector d = to_dense(test::paper_matrix());
  EXPECT_DOUBLE_EQ(d[0 * 6 + 0], 5.4);
  EXPECT_DOUBLE_EQ(d[1 * 6 + 5], 8.8);
  EXPECT_DOUBLE_EQ(d[2 * 6 + 0], 0.0);
  EXPECT_DOUBLE_EQ(d[5 * 6 + 3], 3.7);
}

TEST(Kronecker, SmallProductIsExact) {
  Triplets a(2, 2);
  a.add(0, 0, 2.0);
  a.add(1, 0, 3.0);
  a.sort_and_combine();
  Triplets b(2, 2);
  b.add(0, 1, 5.0);
  b.sort_and_combine();
  const Triplets k = gen_kronecker(a, b);
  EXPECT_EQ(k.nrows(), 4u);
  ASSERT_EQ(k.nnz(), 2u);
  // a(0,0)*b(0,1) at (0,1); a(1,0)*b(0,1) at (2,1).
  EXPECT_EQ(k.entries()[0], (Entry{0, 1, 10.0}));
  EXPECT_EQ(k.entries()[1], (Entry{2, 1, 15.0}));
}

TEST(Kronecker, LaplacianIdentityStructure) {
  // I ⊗ A stacks A along the diagonal.
  Triplets eye(3, 3);
  for (index_t i = 0; i < 3; ++i) {
    eye.add(i, i, 1.0);
  }
  eye.sort_and_combine();
  const Triplets a = gen_laplacian_2d(4, 4);
  const Triplets k = gen_kronecker(eye, a);
  EXPECT_EQ(k.nnz(), 3 * a.nnz());
  EXPECT_EQ(k.nrows(), 3 * a.nrows());
}

TEST(VectorCompare, NanDifferenceIsInfinitelyFar) {
  // A NaN-initialised y whose row a kernel never wrote must not compare
  // equal to the reference.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(max_abs_diff(Vector{0.0, kNan}, Vector{0.0, 0.0}), kInf);
  EXPECT_EQ(max_abs_diff(Vector{0.0, 0.0}, Vector{0.0, kNan}), kInf);
  EXPECT_EQ(max_abs_diff(Vector{kNan, 1.0}, Vector{kNan, 1.0}), kInf);
  EXPECT_EQ(rel_error(Vector{1.0, 2.0}, Vector{kNan, 2.0}), kInf);
  EXPECT_EQ(max_abs_diff(Vector{1.0, -2.0}, Vector{1.5, -2.0}), 0.5);
}

// Tridiagonal 3x3 whose (1,0)/(0,1) pair carries `lower` and `upper`.
Triplets mirror_pair(value_t lower, value_t upper) {
  Triplets t(3, 3);
  for (index_t i = 0; i < 3; ++i) {
    t.add(i, i, 2.0);
  }
  t.add(1, 0, lower);
  t.add(0, 1, upper);
  t.add(2, 1, -1.0);
  t.add(1, 2, -1.0);
  t.sort_and_combine();
  return t;
}

bool numeric_eq(value_t a, value_t b) { return a == b; }

bool bitwise_eq(value_t a, value_t b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

TEST(MirrorCheck, SignedZeroMirrorIsNumericallyButNotBitwiseEqual) {
  const Triplets t = mirror_pair(0.0, -0.0);
  const MirrorCheck num = check_mirrors(t, numeric_eq);
  EXPECT_TRUE(num.pattern);
  EXPECT_TRUE(num.values);
  const MirrorCheck bits = check_mirrors(t, bitwise_eq);
  EXPECT_TRUE(bits.pattern);
  EXPECT_FALSE(bits.values);
  // Each caller keeps its own equality.
  EXPECT_TRUE(SymCsr::applicable(t));
  const tune::TuneFeatures f = tune::extract_features(t);
  EXPECT_TRUE(f.structurally_symmetric);
  EXPECT_FALSE(f.value_symmetric);
}

TEST(MirrorCheck, NanMirrorIsBitwiseButNeverNumericallyEqual) {
  const value_t nan = std::numeric_limits<value_t>::quiet_NaN();
  const Triplets t = mirror_pair(nan, nan);
  EXPECT_FALSE(check_mirrors(t, numeric_eq).values);
  EXPECT_TRUE(check_mirrors(t, bitwise_eq).values);
  EXPECT_FALSE(SymCsr::applicable(t));
  const tune::TuneFeatures f = tune::extract_features(t);
  EXPECT_TRUE(f.structurally_symmetric);
  EXPECT_TRUE(f.value_symmetric);
}

TEST(MirrorCheck, MissingMirrorBreaksThePattern) {
  // A lower entry without its upper mirror...
  Triplets lower_only(3, 3);
  lower_only.add(0, 0, 1.0);
  lower_only.add(2, 0, 1.0);
  lower_only.sort_and_combine();
  // ...and an upper entry without its lower mirror (the triangle counts
  // differ although every lower entry finds its mirror).
  Triplets upper_extra = mirror_pair(1.0, 1.0);
  upper_extra.add(0, 2, 1.0);
  upper_extra.sort_and_combine();
  for (const Triplets* t : {&lower_only, &upper_extra}) {
    const MirrorCheck m = check_mirrors(*t, numeric_eq);
    EXPECT_FALSE(m.pattern);
    EXPECT_FALSE(m.values);
    EXPECT_FALSE(SymCsr::applicable(*t));
    const tune::TuneFeatures f = tune::extract_features(*t);
    EXPECT_FALSE(f.structurally_symmetric);
    EXPECT_FALSE(f.value_symmetric);
  }
}

TEST(MirrorCheck, RectangularIsNeverSymmetric) {
  Triplets t(3, 4);
  t.add(0, 0, 1.0);
  t.add(1, 1, 1.0);
  t.sort_and_combine();
  const MirrorCheck m = check_mirrors(t, numeric_eq);
  EXPECT_FALSE(m.pattern);
  EXPECT_FALSE(m.values);
  EXPECT_FALSE(SymCsr::applicable(t));
  const tune::TuneFeatures f = tune::extract_features(t);
  EXPECT_FALSE(f.structurally_symmetric);
  EXPECT_FALSE(f.value_symmetric);
}

TEST(MirrorCheck, AgreesWithTransposeOnRandomMatrices) {
  for (int seed = 0; seed < 8; ++seed) {
    Rng rng(700 + seed);
    const Triplets t = symmetrize(test::random_triplets(60, 60, 400, rng));
    const MirrorCheck m = check_mirrors(t, numeric_eq);
    EXPECT_TRUE(m.pattern);
    EXPECT_TRUE(m.values);
    // Shifting one stored value breaks value symmetry only.
    Triplets skew(t.nrows(), t.ncols());
    bool changed = false;
    for (const Entry& e : t.entries()) {
      const bool hit = !changed && e.row != e.col;
      skew.add(e.row, e.col, hit ? e.val + 1.0 : e.val);
      changed = changed || hit;
    }
    skew.sort_and_combine();
    const MirrorCheck s = check_mirrors(skew, numeric_eq);
    EXPECT_TRUE(s.pattern);
    EXPECT_EQ(s.values, !changed);
    EXPECT_EQ(s.values, equal(skew, transpose(skew)));
  }
}

}  // namespace
}  // namespace spc
