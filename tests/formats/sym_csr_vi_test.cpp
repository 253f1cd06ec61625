#include "spc/formats/sym_csr_vi.hpp"

#include <gtest/gtest.h>

#include <set>

#include "spc/formats/csr_vi.hpp"
#include "spc/formats/sym_csr.hpp"
#include "spc/gen/generators.hpp"
#include "spc/spmv/kernels.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

constexpr double kTol = 1e-12;

// Symmetric band with values drawn from a small pool (plus a pooled
// diagonal), so the shared table stays narrow.
Triplets pooled_symmetric(index_t n, index_t half_bw, index_t per_row,
                          std::uint32_t pool, std::uint64_t seed) {
  Rng rng(seed);
  const Triplets a =
      gen_banded(n, half_bw, per_row, rng, ValueModel::pooled(pool));
  Triplets s(n, n);
  for (const Entry& e : a.entries()) {
    s.add(e.row, e.col, e.val);
    s.add(e.col, e.row, e.val);
  }
  for (index_t i = 0; i < n; ++i) {
    s.add(i, i, 1.0 + static_cast<double>(i % 4));
  }
  s.sort_and_combine();
  return s;
}

TEST(SymCsrVi, ApplicabilityMatchesSymCsr) {
  const Triplets sym = gen_laplacian_2d(10, 10);
  EXPECT_TRUE(SymCsrVi::applicable(sym));
  EXPECT_FALSE(SymCsrVi::applicable(test::paper_matrix()));
  EXPECT_THROW(SymCsrVi::from_triplets(test::paper_matrix()),
               InvalidArgument);
}

TEST(SymCsrVi, RoundTripAndCounts) {
  const Triplets t = pooled_symmetric(120, 12, 5, 6, 31);
  const SymCsrVi m = SymCsrVi::from_triplets(t);
  EXPECT_EQ(m.nrows(), t.nrows());
  EXPECT_EQ(m.nnz(), t.nnz());
  // stored = dense diagonal + strict lower = (nnz + n) / 2 for a
  // matrix with a full diagonal.
  EXPECT_EQ(m.stored(), (t.nnz() + t.nrows()) / 2);
  test::expect_triplets_eq(t, m.to_triplets());
}

TEST(SymCsrVi, SharedTableCoversDiagonalAndLower) {
  const Triplets t = pooled_symmetric(200, 15, 6, 5, 32);
  const SymCsrVi m = SymCsrVi::from_triplets(t);
  // Every distinct stored value appears exactly once in the table.
  std::set<value_t> distinct;
  for (index_t r = 0; r < m.nrows(); ++r) {
    distinct.insert(m.diag_index().value_at(r));
  }
  for (usize_t k = 0; k < m.col_ind().size(); ++k) {
    distinct.insert(m.value_index().value_at(k));
  }
  EXPECT_EQ(m.value_index().table().size(), distinct.size());
  EXPECT_GT(m.ttu(), 5.0);  // pooled values: strongly VI-friendly
  // Narrow pool fits a byte-wide index.
  EXPECT_EQ(m.value_index().width(), ViWidth::kU8);
}

TEST(SymCsrVi, WidthWidensWithUniqueCount) {
  // ~700 distinct values force the u16 index.
  Rng rng(33);
  const Triplets a = gen_banded(600, 30, 10, rng, ValueModel::pooled(700));
  Triplets s(600, 600);
  for (const Entry& e : a.entries()) {
    s.add(e.row, e.col, e.val);
    s.add(e.col, e.row, e.val);
  }
  s.sort_and_combine();
  const SymCsrVi m = SymCsrVi::from_triplets(s);
  if (m.value_index().table().size() > 256) {
    EXPECT_EQ(m.value_index().width(), ViWidth::kU16);
  }
}

TEST(SymCsrVi, BeatsSymCsrBytesOnPooledValues) {
  const Triplets t = pooled_symmetric(2000, 25, 9, 8, 34);
  const SymCsrVi vi = SymCsrVi::from_triplets(t);
  const SymCsr plain = SymCsr::from_triplets(t);
  // 8-byte values become 1-byte indices: the value stream shrinks 8x,
  // the index stream is untouched.
  EXPECT_LT(vi.bytes(), plain.bytes());
  // And both sit well under full CSR-VI (which stores each off-diagonal
  // twice).
  const CsrVi full = CsrVi::from_triplets(t);
  EXPECT_LT(vi.bytes(), full.bytes() * 7 / 10);
}

TEST(SymCsrVi, SerialKernelMatchesReference) {
  const Triplets t = pooled_symmetric(300, 20, 7, 10, 35);
  Rng xr(36);
  const Vector x = random_vector(300, xr);
  const Vector ref = test::reference_spmv(t, x);
  const SymCsrVi m = SymCsrVi::from_triplets(t);
  Vector y(300, -1.0);
  spmv(m, x.data(), y.data());
  EXPECT_LT(rel_error(ref, y), kTol);
}

TEST(SymCsrVi, SerialKernelMatchesSymCsrBitwise) {
  // Same traversal order, same arithmetic — the value indirection must
  // not change a single bit vs SymCsr.
  const Triplets t = pooled_symmetric(250, 18, 6, 7, 37);
  Rng xr(38);
  const Vector x = random_vector(250, xr);
  const SymCsr a = SymCsr::from_triplets(t);
  const SymCsrVi b = SymCsrVi::from_triplets(t);
  Vector ya(250, 0.0);
  Vector yb(250, 1.0);
  spmv(a, x.data(), ya.data());
  spmv(b, x.data(), yb.data());
  EXPECT_EQ(max_abs_diff(ya, yb), 0.0);
}

TEST(SymCsrVi, ImplicitZeroDiagonalResolves) {
  // Rows without a stored diagonal entry must read 0.0 through the
  // table, not garbage.
  Triplets t(4, 4);
  t.add(0, 0, 2.0);
  t.add(2, 0, 1.5);
  t.add(0, 2, 1.5);
  t.add(3, 3, 2.0);
  t.sort_and_combine();
  const SymCsrVi m = SymCsrVi::from_triplets(t);
  EXPECT_DOUBLE_EQ(m.diag_index().value_at(1), 0.0);
  EXPECT_DOUBLE_EQ(m.diag_index().value_at(2), 0.0);
  const Vector x = {1.0, 1.0, 1.0, 1.0};
  Vector y(4, -1.0);
  spmv(m, x.data(), y.data());
  EXPECT_DOUBLE_EQ(y[0], 3.5);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 1.5);
  EXPECT_DOUBLE_EQ(y[3], 2.0);
}

}  // namespace
}  // namespace spc
