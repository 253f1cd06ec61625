// Static row partitioning for multithreaded SpMV (§II-C, Fig 2).
//
// The paper assigns each thread a contiguous block of rows such that every
// thread receives approximately the same number of non-zero elements —
// "and thus the same number of floating-point operations". A row-count
// (unbalanced) partitioner is kept as the ablation baseline.
#pragma once

#include <vector>

#include "spc/mm/triplets.hpp"
#include "spc/support/aligned.hpp"
#include "spc/support/types.hpp"

namespace spc {

/// Contiguous row ranges, one per thread. bounds[t]..bounds[t+1] is
/// thread t's range; bounds.front()==0, bounds.back()==nrows.
struct RowPartition {
  std::vector<index_t> bounds;

  std::size_t nthreads() const {
    return bounds.empty() ? 0 : bounds.size() - 1;
  }
  index_t row_begin(std::size_t t) const { return bounds[t]; }
  index_t row_end(std::size_t t) const { return bounds[t + 1]; }

  /// Non-zeros owned by thread t given the CSR row pointer. Empty
  /// ranges (bounds[t] == bounds[t+1], produced by any partitioner when
  /// nthreads > nrows) own zero non-zeros without touching row_ptr —
  /// valid even for the zero-row matrix whose row_ptr is a single 0.
  usize_t nnz_of(std::size_t t,
                 const aligned_vector<index_t>& row_ptr) const {
    const index_t b = bounds[t];
    const index_t e = bounds[t + 1];
    if (b >= e) {
      return 0;
    }
    return static_cast<usize_t>(row_ptr[e]) - row_ptr[b];
  }
};

/// Splits rows so each thread gets ~nnz/nthreads non-zeros (the paper's
/// static balancing scheme). Boundaries are row-aligned.
RowPartition partition_rows_by_nnz(const aligned_vector<index_t>& row_ptr,
                                   std::size_t nthreads);

/// The same split straight from sorted triplets, with no row_ptr to
/// build: a row's prefix nnz is the index of its first entry, so each
/// boundary is a binary search. Bounds equal the row_ptr overload's.
RowPartition partition_rows_by_nnz(const Triplets& t, std::size_t nthreads);

/// The same split of rows [row_begin, row_end) only (the steal
/// scheduler's chunks of one worker's range). Bounds are absolute rows,
/// from row_begin to row_end.
RowPartition partition_rows_by_nnz(const Triplets& t, index_t row_begin,
                                   index_t row_end, std::size_t nthreads);

/// Naive equal-row-count split (ablation baseline).
RowPartition partition_rows_even(index_t nrows, std::size_t nthreads);

/// Largest nnz assigned to any thread divided by the ideal share —
/// 1.0 is perfect balance. Used by tests and the partition ablation.
double partition_imbalance(const RowPartition& p,
                           const aligned_vector<index_t>& row_ptr);

}  // namespace spc
