#include "spc/parallel/partition.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "spc/formats/csr.hpp"
#include "spc/gen/generators.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

aligned_vector<index_t> row_ptr_of(const Triplets& t) {
  return Csr::from_triplets(t).row_ptr();
}

TEST(Partition, CoversAllRowsMonotonically) {
  Rng rng(1);
  const Triplets t = test::random_triplets(1000, 1000, 20000, rng);
  const auto rp = row_ptr_of(t);
  for (const std::size_t n : {1u, 2u, 3u, 4u, 8u, 16u}) {
    const RowPartition p = partition_rows_by_nnz(rp, n);
    ASSERT_EQ(p.nthreads(), n);
    EXPECT_EQ(p.bounds.front(), 0u);
    EXPECT_EQ(p.bounds.back(), 1000u);
    for (std::size_t i = 1; i < p.bounds.size(); ++i) {
      EXPECT_LE(p.bounds[i - 1], p.bounds[i]);
    }
  }
}

TEST(Partition, NnzBalanceWithinOneRow) {
  // Uniform row lengths: every thread's share may differ from ideal by at
  // most one row's worth of non-zeros.
  Triplets t(1024, 64);
  for (index_t r = 0; r < 1024; ++r) {
    for (index_t c = 0; c < 5; ++c) {
      t.add(r, c * 7 % 64, 1.0);
    }
  }
  t.sort_and_combine();
  const auto rp = row_ptr_of(t);
  const RowPartition p = partition_rows_by_nnz(rp, 8);
  const double ideal = static_cast<double>(rp.back()) / 8.0;
  for (std::size_t th = 0; th < 8; ++th) {
    EXPECT_NEAR(static_cast<double>(p.nnz_of(th, rp)), ideal, 5.0);
  }
  EXPECT_LT(partition_imbalance(p, rp), 1.01);
}

TEST(Partition, BalancesSkewedRows) {
  // One huge row among tiny ones: imbalance is bounded by that row, and
  // nnz balancing must beat the even-rows split.
  Triplets t(100, 2000);
  for (index_t c = 0; c < 2000; ++c) {
    t.add(0, c, 1.0);
  }
  for (index_t r = 1; r < 100; ++r) {
    t.add(r, r, 1.0);
  }
  t.sort_and_combine();
  const auto rp = row_ptr_of(t);
  const RowPartition by_nnz = partition_rows_by_nnz(rp, 4);
  const RowPartition even = partition_rows_even(100, 4);
  EXPECT_LT(partition_imbalance(by_nnz, rp),
            partition_imbalance(even, rp));
}

TEST(Partition, SingleThreadOwnsEverything) {
  Rng rng(2);
  const Triplets t = test::random_triplets(50, 50, 300, rng);
  const auto rp = row_ptr_of(t);
  const RowPartition p = partition_rows_by_nnz(rp, 1);
  EXPECT_EQ(p.row_begin(0), 0u);
  EXPECT_EQ(p.row_end(0), 50u);
  EXPECT_EQ(p.nnz_of(0, rp), t.nnz());
}

TEST(Partition, MoreThreadsThanRows) {
  Triplets t(3, 3);
  t.add(0, 0, 1.0);
  t.add(1, 1, 1.0);
  t.add(2, 2, 1.0);
  t.sort_and_combine();
  const auto rp = row_ptr_of(t);
  const RowPartition p = partition_rows_by_nnz(rp, 8);
  EXPECT_EQ(p.bounds.front(), 0u);
  EXPECT_EQ(p.bounds.back(), 3u);
  usize_t total = 0;
  for (std::size_t th = 0; th < 8; ++th) {
    total += p.nnz_of(th, rp);
  }
  EXPECT_EQ(total, 3u);
}

TEST(Partition, EmptyMatrix) {
  Triplets t(10, 10);
  const auto rp = row_ptr_of(t);
  const RowPartition p = partition_rows_by_nnz(rp, 4);
  EXPECT_EQ(p.bounds.back(), 10u);
  EXPECT_DOUBLE_EQ(partition_imbalance(p, rp), 1.0);
}

TEST(Partition, TripletsOverloadMatchesRowPtrOverload) {
  Rng rng(3);
  const Triplets t = test::random_triplets(500, 500, 8000, rng);
  const auto rp = row_ptr_of(t);
  for (const std::size_t n : {2u, 4u, 7u}) {
    const RowPartition a = partition_rows_by_nnz(rp, n);
    const RowPartition b = partition_rows_by_nnz(t, n);
    EXPECT_EQ(a.bounds, b.bounds);
  }
}

// The triplets overload finds each boundary by binary search over the
// entries; on any sorted input its bounds must be the row_ptr
// overload's, including on the shapes where boundary rules bite.
TEST(Partition, BinarySearchMatchesRowPtrOnEdgeShapes) {
  const auto check = [](const Triplets& t, const std::string& what) {
    const auto rp = row_ptr_of(t);
    for (const std::size_t n : {1u, 2u, 3u, 4u, 7u, 16u}) {
      EXPECT_EQ(partition_rows_by_nnz(t, n).bounds,
                partition_rows_by_nnz(rp, n).bounds)
          << what << " n=" << n;
    }
  };
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(300 + seed);
    const index_t nrows = 1 + static_cast<index_t>(rng.next_below(60));
    check(test::random_triplets(nrows, 40, rng.next_below(400), rng),
          "random seed " + std::to_string(seed));
  }
  // Leading and trailing empty rows around a dense middle.
  Triplets edges(30, 8);
  for (index_t r = 10; r < 20; ++r) {
    for (index_t c = 0; c < 8; ++c) {
      edges.add(r, c, 1.0);
    }
  }
  edges.sort_and_combine();
  check(edges, "empty edges");
  // One long row straddling every target.
  Triplets long_row(5, 100);
  long_row.add(0, 0, 1.0);
  for (index_t c = 0; c < 100; ++c) {
    long_row.add(2, c, 1.0);
  }
  long_row.add(4, 3, 1.0);
  long_row.sort_and_combine();
  check(long_row, "long row");
  // More threads than rows, and no non-zeros at all.
  check(test::paper_matrix(), "nthreads > nrows");
  Triplets empty(12, 12);
  empty.sort_and_combine();
  check(empty, "nnz == 0");
  Triplets no_rows(0, 3);
  no_rows.sort_and_combine();
  check(no_rows, "0 rows");
}

TEST(Partition, EvenSplitsRowCounts) {
  const RowPartition p = partition_rows_even(10, 4);
  EXPECT_EQ(p.bounds, (std::vector<index_t>{0, 2, 5, 7, 10}));
}

TEST(Partition, RejectsZeroThreads) {
  aligned_vector<index_t> rp = {0, 1};
  EXPECT_THROW(partition_rows_by_nnz(rp, 0), Error);
  EXPECT_THROW(partition_rows_even(5, 0), Error);
}

TEST(Partition, StraddlingRowPicksNearerBoundary) {
  // Row layout [1, 9]: the ideal split (5) falls inside the long second
  // row. Rounding the boundary up would hand thread 0 all ten non-zeros
  // and leave thread 1 empty; the nearer boundary is the 1/9 split.
  aligned_vector<index_t> rp = {0, 1, 10};
  const RowPartition p = partition_rows_by_nnz(rp, 2);
  EXPECT_EQ(p.bounds, (std::vector<index_t>{0, 1, 2}));
  EXPECT_EQ(p.nnz_of(0, rp), 1u);
  EXPECT_EQ(p.nnz_of(1, rp), 9u);
}

TEST(Partition, SingleGiantRowStaysOnOneThread) {
  // All non-zeros in one row: exactly one thread owns it, the rest get
  // (possibly empty) remainder ranges, and imbalance is nthreads — the
  // best any row-aligned partition can do — not inf/NaN.
  Triplets t(64, 4096);
  for (index_t c = 0; c < 4096; ++c) {
    t.add(20, c, 1.0);
  }
  t.sort_and_combine();
  const auto rp = row_ptr_of(t);
  const RowPartition p = partition_rows_by_nnz(rp, 8);
  EXPECT_EQ(p.bounds.front(), 0u);
  EXPECT_EQ(p.bounds.back(), 64u);
  std::size_t owners = 0;
  usize_t total = 0;
  for (std::size_t th = 0; th < 8; ++th) {
    EXPECT_LE(p.row_begin(th), p.row_end(th));
    total += p.nnz_of(th, rp);
    if (p.nnz_of(th, rp) > 0) {
      ++owners;
    }
  }
  EXPECT_EQ(owners, 1u);
  EXPECT_EQ(total, 4096u);
  EXPECT_DOUBLE_EQ(partition_imbalance(p, rp), 8.0);
}

TEST(Partition, MoreThreadsThanNonemptyRows) {
  // 10 rows but only two carry non-zeros; 8 threads must still cover all
  // rows monotonically, preserve the nnz total, and keep the imbalance
  // finite (empty threads are allowed, lost rows are not).
  Triplets t(10, 10);
  t.add(2, 1, 1.0);
  t.add(2, 3, 1.0);
  t.add(7, 0, 1.0);
  t.sort_and_combine();
  const auto rp = row_ptr_of(t);
  const RowPartition p = partition_rows_by_nnz(rp, 8);
  EXPECT_EQ(p.bounds.front(), 0u);
  EXPECT_EQ(p.bounds.back(), 10u);
  usize_t total = 0;
  for (std::size_t th = 0; th < 8; ++th) {
    EXPECT_LE(p.row_begin(th), p.row_end(th));
    total += p.nnz_of(th, rp);
  }
  EXPECT_EQ(total, 3u);
  const double imb = partition_imbalance(p, rp);
  EXPECT_TRUE(std::isfinite(imb));
  EXPECT_GE(imb, 1.0);
}

TEST(Partition, EvenSplitWithMoreThreadsThanRows) {
  // 3 rows over 8 threads: trailing ranges are empty; nnz_of must read
  // them as zero without touching row_ptr, and the imbalance stays
  // finite (8 = one row each for 3 threads, nothing for 5).
  Triplets t(3, 3);
  t.add(0, 0, 1.0);
  t.add(1, 1, 1.0);
  t.add(2, 2, 1.0);
  t.sort_and_combine();
  const auto rp = row_ptr_of(t);
  const RowPartition p = partition_rows_even(3, 8);
  ASSERT_EQ(p.nthreads(), 8u);
  EXPECT_EQ(p.bounds.front(), 0u);
  EXPECT_EQ(p.bounds.back(), 3u);
  usize_t total = 0;
  std::size_t empty = 0;
  for (std::size_t th = 0; th < 8; ++th) {
    EXPECT_LE(p.row_begin(th), p.row_end(th));
    total += p.nnz_of(th, rp);
    empty += p.row_begin(th) == p.row_end(th) ? 1 : 0;
  }
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(empty, 5u);
  const double imb = partition_imbalance(p, rp);
  EXPECT_TRUE(std::isfinite(imb));
  EXPECT_NEAR(imb, 8.0 / 3.0, 1e-9);
}

TEST(Partition, NnzOfEmptyRangeOnZeroRowMatrix) {
  // The zero-row matrix's row_ptr is the single element {0}; an empty
  // range must not index row_ptr[bounds[t+1]] blindly.
  aligned_vector<index_t> rp = {0};
  RowPartition p;
  p.bounds = {0, 0, 0};  // 2 threads, both empty
  EXPECT_EQ(p.nnz_of(0, rp), 0u);
  EXPECT_EQ(p.nnz_of(1, rp), 0u);
  EXPECT_DOUBLE_EQ(partition_imbalance(p, rp), 1.0);
  EXPECT_DOUBLE_EQ(partition_imbalance(p, {}), 1.0);
  EXPECT_DOUBLE_EQ(partition_imbalance(RowPartition{}, rp), 1.0);
}

TEST(Partition, EmptyMatrixImbalanceIsOne) {
  // nnz == 0 is the 0/0 case: define it as perfectly balanced rather
  // than NaN, for both partitioners.
  aligned_vector<index_t> rp(11, 0);  // 10 rows, all empty
  const RowPartition by_nnz = partition_rows_by_nnz(rp, 4);
  const RowPartition even = partition_rows_even(10, 4);
  EXPECT_DOUBLE_EQ(partition_imbalance(by_nnz, rp), 1.0);
  EXPECT_DOUBLE_EQ(partition_imbalance(even, rp), 1.0);
  EXPECT_EQ(by_nnz.bounds.back(), 10u);
}

class PartitionPropertySweep
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PartitionPropertySweep, EveryRowAssignedExactlyOnce) {
  Rng rng(40 + GetParam());
  const index_t nrows = 1 + static_cast<index_t>(rng.next_below(500));
  const Triplets t = test::random_triplets(
      nrows, 64, rng.next_below(4000), rng);
  const auto rp = row_ptr_of(t);
  const std::size_t nthreads = GetParam();
  const RowPartition p = partition_rows_by_nnz(rp, nthreads);
  usize_t nnz_total = 0;
  for (std::size_t th = 0; th < nthreads; ++th) {
    nnz_total += p.nnz_of(th, rp);
  }
  EXPECT_EQ(nnz_total, t.nnz());
  EXPECT_GE(partition_imbalance(p, rp), t.nnz() ? 1.0 : 1.0);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, PartitionPropertySweep,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16, 32));

}  // namespace
}  // namespace spc
