#include "spc/formats/csr_du_vi.hpp"

#include <gtest/gtest.h>

#include "spc/formats/csr.hpp"
#include "spc/gen/generators.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

TEST(CsrDuVi, RoundTripPaperMatrix) {
  const Triplets orig = test::paper_matrix();
  test::expect_triplets_eq(orig,
                           CsrDuVi::from_triplets(orig).to_triplets());
}

TEST(CsrDuVi, DropsDuplicateValueArray) {
  const CsrDuVi m = CsrDuVi::from_triplets(test::paper_matrix());
  EXPECT_TRUE(m.du().values().empty());
  EXPECT_EQ(m.du().full().values, nullptr);
  EXPECT_EQ(m.nnz(), 16u);
  EXPECT_EQ(m.du().nnz(), 16u);
  EXPECT_EQ(m.value_index().table().size(), 9u);
  // The index side is the plain DU encoding's ctl stream, byte for byte.
  const CsrDu du = CsrDu::from_triplets(test::paper_matrix());
  EXPECT_EQ(m.du().ctl(), du.ctl());
  EXPECT_EQ(m.du().unit_count(), du.unit_count());
}

TEST(CsrDuVi, BytesSmallerThanBothParentsOnFriendlyMatrix) {
  // Banded structure (DU-friendly) + pooled values (VI-friendly).
  Rng rng(11);
  const Triplets t =
      gen_banded(3000, 30, 10, rng, ValueModel::pooled(32));
  const CsrDuVi duvi = CsrDuVi::from_triplets(t);
  const CsrDu du = CsrDu::from_triplets(t);
  const CsrVi vi = CsrVi::from_triplets(t);
  const Csr csr = Csr::from_triplets(t);
  EXPECT_LT(duvi.bytes(), du.bytes());
  EXPECT_LT(duvi.bytes(), vi.bytes());
  EXPECT_LT(duvi.bytes(), csr.bytes() / 2);
}

TEST(CsrDuVi, WidthFollowsUniqueCount) {
  Triplets t(30, 30);
  for (index_t r = 0; r < 30; ++r) {
    for (index_t c = 0; c < 30; ++c) {
      t.add(r, c, static_cast<value_t>(r * 30 + c));
    }
  }
  t.sort_and_combine();
  const CsrDuVi m = CsrDuVi::from_triplets(t);
  EXPECT_EQ(m.value_index().width(), ViWidth::kU16);
  test::expect_triplets_eq(t, m.to_triplets());
}

TEST(CsrDuVi, EmptyRowsSupported) {
  Triplets t(12, 12);
  t.add(2, 3, 1.0);
  t.add(2, 4, 1.0);
  t.add(9, 0, 2.0);
  t.sort_and_combine();
  test::expect_triplets_eq(t,
                           CsrDuVi::from_triplets(t).to_triplets());
}

class CsrDuViRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(CsrDuViRoundTrip, RandomMatrices) {
  Rng rng(500 + GetParam());
  const index_t nrows = 1 + static_cast<index_t>(rng.next_below(200));
  const index_t ncols = 1 + static_cast<index_t>(rng.next_below(50000));
  const std::uint32_t pool =
      static_cast<std::uint32_t>(rng.next_below(300));
  const Triplets t = test::random_triplets(
      nrows, ncols, rng.next_below(4000), rng, pool);
  test::expect_triplets_eq(t,
                           CsrDuVi::from_triplets(t).to_triplets());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrDuViRoundTrip, ::testing::Range(0, 12));

}  // namespace
}  // namespace spc
