#include "spc/parallel/partition.hpp"

#include <algorithm>

#include "spc/support/error.hpp"

namespace spc {

RowPartition partition_rows_by_nnz(const aligned_vector<index_t>& row_ptr,
                                   std::size_t nthreads) {
  SPC_CHECK_MSG(nthreads >= 1, "need at least one thread");
  SPC_CHECK_MSG(!row_ptr.empty(), "row_ptr must have nrows+1 entries");
  const index_t nrows = static_cast<index_t>(row_ptr.size() - 1);
  const usize_t nnz = row_ptr.back();

  RowPartition p;
  p.bounds.resize(nthreads + 1);
  p.bounds[0] = 0;
  for (std::size_t t = 1; t < nthreads; ++t) {
    // First row whose prefix nnz reaches t's ideal share. Compare in the
    // wide type: casting the target down to index_t would wrap for large
    // thread counts on near-2^32-nnz matrices.
    const usize_t target = nnz * t / nthreads;
    const auto it = std::lower_bound(
        row_ptr.begin(), row_ptr.end(), target,
        [](index_t prefix, usize_t tg) {
          return static_cast<usize_t>(prefix) < tg;
        });
    index_t row = static_cast<index_t>(it - row_ptr.begin());
    // lower_bound rounds the boundary up; when a long row straddles the
    // target, the previous boundary can be much closer to the ideal
    // split (and rounding up would leave the right-hand thread empty).
    // Pick whichever side is nearer; ties keep the upper boundary.
    if (row > 0 && row <= nrows) {
      const usize_t above = static_cast<usize_t>(row_ptr[row]) - target;
      const usize_t below = target - static_cast<usize_t>(row_ptr[row - 1]);
      if (below < above) {
        --row;
      }
    }
    row = std::min(row, nrows);
    // Keep bounds monotone even for degenerate matrices.
    p.bounds[t] = std::max(row, p.bounds[t - 1]);
  }
  p.bounds[nthreads] = nrows;
  return p;
}

RowPartition partition_rows_by_nnz(const Triplets& t, std::size_t nthreads) {
  return partition_rows_by_nnz(t, 0, t.nrows(), nthreads);
}

RowPartition partition_rows_by_nnz(const Triplets& t, index_t row_begin,
                                   index_t row_end, std::size_t nthreads) {
  SPC_CHECK_MSG(nthreads >= 1, "need at least one thread");
  SPC_CHECK_MSG(t.is_sorted_unique(),
                "partitioning requires sorted/combined triplets");
  const std::span<const Entry> rows = t.rows(row_begin, row_end);
  const usize_t lo = t.row_start(row_begin);
  const usize_t nnz = rows.size();
  // Row r's prefix nnz inside the range.
  const auto prefix = [&](index_t r) { return t.row_start(r) - lo; };

  RowPartition p;
  p.bounds.resize(nthreads + 1);
  p.bounds[0] = row_begin;
  for (std::size_t th = 1; th < nthreads; ++th) {
    // The first row whose prefix reaches the ideal share is the row after
    // the one holding entry target-1 (the range's first row for a zero
    // target). Then the row_ptr overload's rule: step back one row when
    // that boundary is nearer the target; ties keep the upper one.
    const usize_t target = nnz * th / nthreads;
    index_t row = target == 0 ? row_begin : rows[target - 1].row + 1;
    if (row > row_begin) {
      const usize_t above = prefix(row) - target;
      const usize_t below = target - prefix(row - 1);
      if (below < above) {
        --row;
      }
    }
    p.bounds[th] = std::max(row, p.bounds[th - 1]);
  }
  p.bounds[nthreads] = row_end;
  return p;
}

RowPartition partition_rows_even(index_t nrows, std::size_t nthreads) {
  SPC_CHECK_MSG(nthreads >= 1, "need at least one thread");
  RowPartition p;
  p.bounds.resize(nthreads + 1);
  for (std::size_t t = 0; t <= nthreads; ++t) {
    p.bounds[t] = static_cast<index_t>(
        static_cast<usize_t>(nrows) * t / nthreads);
  }
  return p;
}

double partition_imbalance(const RowPartition& p,
                           const aligned_vector<index_t>& row_ptr) {
  // Degenerate inputs — no partition, no rows, or no non-zeros at all
  // (every thread owns zero nnz) — read as perfectly balanced: there is
  // no work to distribute unevenly. This keeps the result finite where
  // worst/ideal would otherwise be 0/0.
  if (p.nthreads() == 0 || row_ptr.empty() || row_ptr.back() == 0) {
    return 1.0;
  }
  const usize_t nnz = row_ptr.back();
  usize_t worst = 0;
  for (std::size_t t = 0; t < p.nthreads(); ++t) {
    worst = std::max(worst, p.nnz_of(t, row_ptr));
  }
  const double ideal =
      static_cast<double>(nnz) / static_cast<double>(p.nthreads());
  return static_cast<double>(worst) / ideal;
}

}  // namespace spc
