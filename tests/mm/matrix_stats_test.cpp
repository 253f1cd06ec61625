#include "spc/mm/stats.hpp"

#include <gtest/gtest.h>

#include "spc/formats/csr_vi.hpp"
#include "spc/gen/generators.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

TEST(DeltaClass, BoundariesMatchByteWidths) {
  EXPECT_EQ(delta_class_for(0), DeltaClass::kU8);
  EXPECT_EQ(delta_class_for(255), DeltaClass::kU8);
  EXPECT_EQ(delta_class_for(256), DeltaClass::kU16);
  EXPECT_EQ(delta_class_for(65535), DeltaClass::kU16);
  EXPECT_EQ(delta_class_for(65536), DeltaClass::kU32);
  EXPECT_EQ(delta_class_for(0xFFFFFFFFULL), DeltaClass::kU32);
  EXPECT_EQ(delta_class_for(0x100000000ULL), DeltaClass::kU64);
}

TEST(DeltaClass, Widths) {
  EXPECT_EQ(delta_class_bytes(DeltaClass::kU8), 1u);
  EXPECT_EQ(delta_class_bytes(DeltaClass::kU16), 2u);
  EXPECT_EQ(delta_class_bytes(DeltaClass::kU32), 4u);
  EXPECT_EQ(delta_class_bytes(DeltaClass::kU64), 8u);
}

TEST(MatrixStats, PaperMatrix) {
  const MatrixStats s = compute_stats(test::paper_matrix());
  EXPECT_EQ(s.nrows, 6u);
  EXPECT_EQ(s.ncols, 6u);
  EXPECT_EQ(s.nnz, 16u);
  EXPECT_EQ(s.row_len_min, 1u);
  EXPECT_EQ(s.row_len_max, 4u);
  EXPECT_EQ(s.empty_rows, 0u);
  // Distinct values: 5.4 1.1 6.3 7.7 8.8 2.9 3.7 9.0 4.5 = 9 unique.
  EXPECT_EQ(s.unique_values, 9u);
  EXPECT_NEAR(s.ttu, 16.0 / 9.0, 1e-12);
  // All deltas (incl. leading absolute columns) fit one byte.
  EXPECT_EQ(s.delta_class_count[0], 16u);
  EXPECT_EQ(s.delta_class_count[1], 0u);
  EXPECT_DOUBLE_EQ(s.u8_delta_fraction(), 1.0);
}

TEST(MatrixStats, WorkingSetFormulaMatchesPaper) {
  // ws = nnz*(idx+val) + (nrows+1)*idx + (nrows+ncols)*val  (§II-B)
  const MatrixStats s = compute_stats(test::paper_matrix());
  const usize_t expect_csr = 16 * (4 + 8) + 7 * 4;
  EXPECT_EQ(s.csr_bytes(), expect_csr);
  EXPECT_EQ(s.working_set_bytes(), expect_csr + 12 * 8);
  // Short-index variant shrinks only the index terms.
  EXPECT_EQ(s.csr_bytes(2, 8), 16u * 10 + 7 * 2);
}

TEST(MatrixStats, BandwidthOfTridiagonal) {
  Triplets t(5, 5);
  for (index_t i = 0; i < 5; ++i) {
    if (i > 0) {
      t.add(i, i - 1, 1.0);
    }
    t.add(i, i, 2.0);
    if (i + 1 < 5) {
      t.add(i, i + 1, 3.0);
    }
  }
  t.sort_and_combine();
  const MatrixStats s = compute_stats(t);
  EXPECT_EQ(s.bandwidth, 1u);
  EXPECT_EQ(s.unique_values, 3u);
}

TEST(MatrixStats, CountsEmptyRows) {
  Triplets t(5, 5);
  t.add(0, 0, 1.0);
  t.add(4, 4, 1.0);
  t.sort_and_combine();
  const MatrixStats s = compute_stats(t);
  EXPECT_EQ(s.empty_rows, 3u);
  EXPECT_EQ(s.row_len_min, 0u);
  EXPECT_EQ(s.row_len_max, 1u);
}

TEST(MatrixStats, DeltaClassesForWideMatrix) {
  Triplets t(1, 200000);
  t.add(0, 0, 1.0);
  t.add(0, 10, 1.0);       // u8 delta
  t.add(0, 1000, 1.0);     // 990 -> u16
  t.add(0, 150000, 1.0);   // 149000 -> u32
  t.sort_and_combine();
  const MatrixStats s = compute_stats(t);
  EXPECT_EQ(s.delta_class_count[0], 2u);  // leading 0 and delta 10
  EXPECT_EQ(s.delta_class_count[1], 1u);
  EXPECT_EQ(s.delta_class_count[2], 1u);
  EXPECT_EQ(s.delta_class_count[3], 0u);
}

TEST(MatrixStats, TtuReflectsValuePool) {
  Rng rng(5);
  const Triplets t =
      gen_random_uniform(500, 500, 8, rng, ValueModel::pooled(10));
  const MatrixStats s = compute_stats(t);
  EXPECT_LE(s.unique_values, 10u);
  EXPECT_GT(s.ttu, kViTtuThreshold);
}

TEST(MatrixStats, LaplacianIsViFriendly) {
  const MatrixStats s = compute_stats(gen_laplacian_2d(32, 32));
  EXPECT_EQ(s.unique_values, 2u);  // 4.0 and -1.0
  EXPECT_GT(s.ttu, 100.0);
}

TEST(MatrixStats, RequiresSortedInput) {
  Triplets t(2, 2);
  t.add(1, 1, 1.0);
  t.add(0, 0, 1.0);
  EXPECT_THROW(compute_stats(t), Error);
}

}  // namespace
}  // namespace spc
