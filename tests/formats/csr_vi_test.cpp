#include "spc/formats/csr_vi.hpp"

#include <gtest/gtest.h>

#include "spc/formats/csr.hpp"
#include "spc/gen/generators.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

TEST(CsrVi, PaperFig4GoldenLayout) {
  // Fig 4: unique values in first-occurrence order and per-nnz indices.
  const CsrVi m = CsrVi::from_triplets(test::paper_matrix());
  const std::vector<value_t> uniq = {5.4, 1.1, 6.3, 7.7, 8.8,
                                     2.9, 3.7, 9.0, 4.5};
  ASSERT_EQ(m.value_index().table().size(), uniq.size());
  for (std::size_t i = 0; i < uniq.size(); ++i) {
    EXPECT_DOUBLE_EQ(m.value_index().table()[i], uniq[i]) << i;
  }
  // values: 5.4 1.1 6.3 7.7 8.8 1.1 2.9 3.7 2.9 9.0 1.1 4.5 1.1 2.9 3.7 1.1
  const std::vector<std::uint8_t> ind = {0, 1, 2, 3, 4, 1, 5, 6,
                                         5, 7, 1, 8, 1, 5, 6, 1};
  ASSERT_EQ(m.value_index().width(), ViWidth::kU8);
  for (std::size_t i = 0; i < ind.size(); ++i) {
    EXPECT_EQ(m.value_index().raw()[i], ind[i]) << i;
  }
}

TEST(CsrVi, SharesCsrIndexStructure) {
  const CsrVi vi = CsrVi::from_triplets(test::paper_matrix());
  const Csr csr = Csr::from_triplets(test::paper_matrix());
  ASSERT_EQ(vi.row_ptr().size(), csr.row_ptr().size());
  for (std::size_t i = 0; i < csr.row_ptr().size(); ++i) {
    EXPECT_EQ(vi.row_ptr()[i], csr.row_ptr()[i]);
  }
  for (usize_t i = 0; i < csr.nnz(); ++i) {
    EXPECT_EQ(vi.col_ind()[i], csr.col_ind()[i]);
    EXPECT_DOUBLE_EQ(vi.value_index().value_at(i), csr.values()[i]);
  }
}

TEST(CsrVi, RoundTripPaperMatrix) {
  const Triplets orig = test::paper_matrix();
  test::expect_triplets_eq(orig,
                           CsrVi::from_triplets(orig).to_triplets());
}

TEST(CsrVi, WidthSelection) {
  EXPECT_EQ(vi_width_for(1), ViWidth::kU8);
  EXPECT_EQ(vi_width_for(256), ViWidth::kU8);
  EXPECT_EQ(vi_width_for(257), ViWidth::kU16);
  EXPECT_EQ(vi_width_for(65536), ViWidth::kU16);
  EXPECT_EQ(vi_width_for(65537), ViWidth::kU32);
}

TEST(CsrVi, U16WidthRoundTrip) {
  // Force more than 256 unique values.
  Triplets t(40, 40);
  for (index_t r = 0; r < 40; ++r) {
    for (index_t c = 0; c < 40; ++c) {
      t.add(r, c, static_cast<value_t>(r * 40 + c) * 0.125);
    }
  }
  t.sort_and_combine();
  const CsrVi m = CsrVi::from_triplets(t);
  EXPECT_EQ(m.value_index().width(), ViWidth::kU16);
  EXPECT_EQ(m.value_index().table().size(), 1600u);
  test::expect_triplets_eq(t, m.to_triplets());
}

TEST(CsrVi, TtuComputation) {
  Rng rng(2);
  const Triplets t =
      gen_random_uniform(400, 400, 10, rng, ValueModel::pooled(8));
  const CsrVi m = CsrVi::from_triplets(t);
  EXPECT_LE(m.value_index().table().size(), 8u);
  EXPECT_GT(m.ttu(), kViTtuThreshold);
}

TEST(CsrVi, CompressesPooledValues) {
  Rng rng(7);
  const Triplets t =
      gen_random_uniform(2000, 2000, 10, rng, ValueModel::pooled(100));
  const CsrVi vi = CsrVi::from_triplets(t);
  const Csr csr = Csr::from_triplets(t);
  // val_ind is u8 here: value side shrinks from 8B to ~1B per nnz.
  EXPECT_LT(vi.bytes(), csr.bytes());
  EXPECT_EQ(vi.value_index().width(), ViWidth::kU8);
}

TEST(CsrVi, RandomValuesGiveNoCompression) {
  Rng rng(8);
  const Triplets t = test::random_triplets(300, 300, 4000, rng);
  const CsrVi vi = CsrVi::from_triplets(t);
  const Csr csr = Csr::from_triplets(t);
  // Every value distinct: indices + unique table exceed the plain array.
  EXPECT_LT(vi.ttu(), 1.5);
  EXPECT_GT(vi.bytes(), csr.bytes());
}

TEST(CsrVi, BitPatternIdentityDistinguishesSignedZero) {
  Triplets t(1, 2);
  t.add(0, 0, 0.0);
  t.add(0, 1, -0.0);
  t.sort_and_combine();
  const CsrVi m = CsrVi::from_triplets(t);
  EXPECT_EQ(m.value_index().table().size(), 2u);  // +0.0, -0.0 differ
}

TEST(CsrVi, EmptyMatrix) {
  Triplets t(3, 3);
  const CsrVi m = CsrVi::from_triplets(t);
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_EQ(m.value_index().table().size(), 0u);
  EXPECT_EQ(m.ttu(), 0.0);
}

class CsrViRoundTrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CsrViRoundTrip, PooledRandomMatrices) {
  Rng rng(100 + GetParam());
  const std::uint32_t pool = GetParam();
  const Triplets t = test::random_triplets(250, 250, 3000, rng, pool);
  test::expect_triplets_eq(t, CsrVi::from_triplets(t).to_triplets());
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, CsrViRoundTrip,
                         ::testing::Values(0u, 1u, 2u, 5u, 50u, 255u, 256u,
                                           400u, 1000u));

}  // namespace
}  // namespace spc
