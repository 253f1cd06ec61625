#include "spc/mm/triplets.hpp"

#include <gtest/gtest.h>

#include "spc/formats/bcsr.hpp"
#include "spc/formats/coo.hpp"
#include "spc/formats/csc.hpp"
#include "spc/formats/csr.hpp"
#include "spc/formats/csr_du.hpp"
#include "spc/formats/csr_du_vi.hpp"
#include "spc/formats/csr_f32.hpp"
#include "spc/formats/csr_vi.hpp"
#include "spc/formats/dcsr.hpp"
#include "spc/formats/dia.hpp"
#include "spc/formats/ell.hpp"
#include "spc/formats/jds.hpp"
#include "spc/formats/sym_csr.hpp"
#include "spc/formats/sym_csr_vi.hpp"
#include "spc/gen/generators.hpp"
#include "spc/mm/stats.hpp"
#include "spc/spmv/instance.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

TEST(Triplets, StartsEmpty) {
  Triplets t(4, 5);
  EXPECT_EQ(t.nrows(), 4u);
  EXPECT_EQ(t.ncols(), 5u);
  EXPECT_EQ(t.nnz(), 0u);
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.is_sorted_unique());
}

TEST(Triplets, SortOrdersRowMajor) {
  Triplets t(3, 3);
  t.add(2, 0, 1.0);
  t.add(0, 2, 2.0);
  t.add(1, 1, 3.0);
  t.add(0, 0, 4.0);
  EXPECT_FALSE(t.is_sorted_unique());
  t.sort_and_combine();
  ASSERT_TRUE(t.is_sorted_unique());
  ASSERT_EQ(t.nnz(), 4u);
  EXPECT_EQ(t.entries()[0], (Entry{0, 0, 4.0}));
  EXPECT_EQ(t.entries()[1], (Entry{0, 2, 2.0}));
  EXPECT_EQ(t.entries()[2], (Entry{1, 1, 3.0}));
  EXPECT_EQ(t.entries()[3], (Entry{2, 0, 1.0}));
}

TEST(Triplets, CombineSumsDuplicates) {
  Triplets t(2, 2);
  t.add(0, 0, 1.0);
  t.add(0, 0, 2.5);
  t.add(1, 1, -1.0);
  t.add(0, 0, 0.5);
  t.sort_and_combine();
  ASSERT_EQ(t.nnz(), 2u);
  EXPECT_DOUBLE_EQ(t.entries()[0].val, 4.0);
  EXPECT_DOUBLE_EQ(t.entries()[1].val, -1.0);
}

TEST(Triplets, CombineKeepsZeroSums) {
  // Structural zeros remain: formats must preserve them.
  Triplets t(1, 2);
  t.add(0, 0, 1.0);
  t.add(0, 0, -1.0);
  t.sort_and_combine();
  ASSERT_EQ(t.nnz(), 1u);
  EXPECT_DOUBLE_EQ(t.entries()[0].val, 0.0);
}

TEST(Triplets, ValidateAcceptsInBounds) {
  Triplets t(2, 2);
  t.add(1, 1, 1.0);
  EXPECT_NO_THROW(t.validate());
}

TEST(Triplets, ValidateAcceptsBoundaryEntry) {
  Triplets t(3, 3);
  t.add(2, 2, 1.0);
  EXPECT_NO_THROW(t.validate());
}

#ifdef NDEBUG
TEST(Triplets, ValidateRejectsOutOfBounds) {
  // In release builds add() skips the debug bounds assert; validate() is
  // the release-mode integrity check (the Matrix Market reader relies on
  // its own bounds checks instead).
  Triplets t(2, 2);
  t.add(2, 0, 1.0);
  EXPECT_THROW(t.validate(), InvalidArgument);
}
#endif

TEST(Triplets, ResizeDimsGrows) {
  Triplets t(2, 2);
  t.add(1, 1, 1.0);
  t.resize_dims(5, 6);
  EXPECT_EQ(t.nrows(), 5u);
  EXPECT_EQ(t.ncols(), 6u);
  EXPECT_NO_THROW(t.validate());
}

TEST(Triplets, ResizeDimsRejectsShrink) {
  Triplets t(4, 4);
  EXPECT_THROW(t.resize_dims(2, 4), Error);
}

TEST(Triplets, IsSortedUniqueDetectsDuplicates) {
  Triplets t(2, 2);
  t.add(0, 1, 1.0);
  t.add(0, 1, 2.0);
  EXPECT_FALSE(t.is_sorted_unique());
}

TEST(Triplets, BothSortsRecordSortednessAndAddClearsIt) {
  Triplets t(3, 3);
  EXPECT_FALSE(t.sort_recorded());
  t.add(1, 1, 1.0);
  t.add(0, 0, 2.0);
  t.sort_and_combine();
  EXPECT_TRUE(t.sort_recorded());
  // An in-order add still clears the record; the scan then decides.
  t.add(2, 2, 3.0);
  EXPECT_FALSE(t.sort_recorded());
  EXPECT_TRUE(t.is_sorted_unique());
  t.add(0, 1, 4.0);
  EXPECT_FALSE(t.is_sorted_unique());
  t.sort_and_dedup_keep_first();
  EXPECT_TRUE(t.sort_recorded());
  EXPECT_TRUE(t.is_sorted_unique());
  EXPECT_EQ(t.nnz(), 4u);
}

TEST(Triplets, CopyKeepsTheRecord) {
  const Triplets t = test::paper_matrix();
  ASSERT_TRUE(t.sort_recorded());
  const Triplets copy = t;
  EXPECT_TRUE(copy.sort_recorded());
  Triplets assigned;
  assigned = t;
  EXPECT_TRUE(assigned.sort_recorded());
  // ...and a copy's own add() leaves the original's record alone.
  Triplets grown = t;
  grown.add(0, 5, 1.0);
  EXPECT_FALSE(grown.sort_recorded());
  EXPECT_TRUE(t.sort_recorded());
}

TEST(Triplets, OutOfOrderAddAfterSortIsRejectedByEveryEncoder) {
  // Square, numerically symmetric and sorted, so every encoder would
  // accept it before the stray entry.
  Triplets t = gen_laplacian_2d(4, 4);
  ASSERT_TRUE(t.sort_recorded());
  t.add(0, 3, 1.0);  // row 0 after row 15: out of order
  ASSERT_FALSE(t.is_sorted_unique());

  EXPECT_THROW(Csr::from_triplets(t), Error);
  EXPECT_THROW(Csr16::from_triplets(t), Error);
  EXPECT_THROW(Bcsr::from_triplets(t, 2, 2), Error);
  EXPECT_THROW(Ell::from_triplets(t), Error);
  EXPECT_THROW(CsrDu::from_triplets(t), Error);
  EXPECT_THROW(CsrVi::from_triplets(t), Error);
  EXPECT_THROW(CsrDuVi::from_triplets(t), Error);
  EXPECT_THROW(SymCsr::from_triplets(t), Error);
  EXPECT_THROW(SymCsrVi::from_triplets(t), Error);
  EXPECT_THROW(Dcsr::from_triplets(t), Error);
  EXPECT_THROW(Dia::from_triplets(t), Error);
  EXPECT_THROW(Jds::from_triplets(t), Error);
  EXPECT_THROW(Coo::from_triplets(t), Error);
  EXPECT_THROW(Csc::from_triplets(t), Error);
  EXPECT_THROW(CsrF32::from_triplets(t), Error);
  EXPECT_THROW(compute_stats(t), Error);

  InstanceOptions opts;
  opts.pin_threads = false;
  for (const Format f : all_formats()) {
    EXPECT_THROW(SpmvInstance(t, f, 2, opts), Error) << format_name(f);
  }
}

TEST(Triplets, PaperMatrixShape) {
  const Triplets t = test::paper_matrix();
  EXPECT_EQ(t.nrows(), 6u);
  EXPECT_EQ(t.ncols(), 6u);
  EXPECT_EQ(t.nnz(), 16u);
  EXPECT_TRUE(t.is_sorted_unique());
}

}  // namespace
}  // namespace spc
