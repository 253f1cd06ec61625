// Symmetric CSR (SSS-style) — the symmetry exploitation of Lee et al.
// (§III-C of the paper): store the diagonal densely and only the strictly
// lower triangle in CSR. Index *and* value data halve, the largest
// working-set reduction available when the matrix is symmetric — at the
// cost of a scatter into y for the implicit upper triangle, which forces
// per-thread y copies in the multithreaded kernel (spmv_sym_mt).
#pragma once

#include "spc/mm/triplets.hpp"
#include "spc/support/aligned.hpp"
#include "spc/support/types.hpp"

namespace spc {

class SymCsr {
 public:
  SymCsr() = default;

  /// True when `t` is square and numerically symmetric: every mirrored
  /// pair compares equal with `==` (±0.0 match, NaN never does).
  /// Requires sorted/combined triplets.
  static bool applicable(const Triplets& t);

  /// Builds from a symmetric matrix; throws InvalidArgument otherwise.
  static SymCsr from_triplets(const Triplets& t);

  /// Rows [row_begin, row_end) of the storage: their diagonal and strict
  /// lower triangle, with local rows (local row i is row row_begin + i)
  /// and absolute columns. The caller checks applicable() once for the
  /// whole matrix; to_triplets() is meaningful for the full range only.
  static SymCsr from_rows(const Triplets& t, index_t row_begin,
                          index_t row_end);

  index_t nrows() const { return nrows_; }
  index_t ncols() const { return ncols_; }
  /// Non-zeros of the *full* matrix rows this storage represents.
  usize_t nnz() const { return nnz_full_; }
  /// Stored elements: diagonal + strict lower triangle.
  usize_t stored() const { return diag_.size() + values_.size(); }

  const aligned_vector<value_t>& diag() const { return diag_; }
  const aligned_vector<index_t>& row_ptr() const { return row_ptr_; }
  const aligned_vector<index_t>& col_ind() const { return col_ind_; }
  const aligned_vector<value_t>& values() const { return values_; }

  usize_t bytes() const {
    return diag_.size() * sizeof(value_t) +
           row_ptr_.size() * sizeof(index_t) +
           col_ind_.size() * sizeof(index_t) +
           values_.size() * sizeof(value_t);
  }

  Triplets to_triplets() const;

 private:
  index_t nrows_ = 0;
  index_t ncols_ = 0;
  usize_t nnz_full_ = 0;
  aligned_vector<value_t> diag_;      ///< nrows entries (0 where absent)
  aligned_vector<index_t> row_ptr_;   ///< strict lower triangle, CSR
  aligned_vector<index_t> col_ind_;
  aligned_vector<value_t> values_;
};

}  // namespace spc
