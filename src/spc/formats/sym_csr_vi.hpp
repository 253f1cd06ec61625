// Symmetric CSR-VI — the paper's value compression (§V) applied to the
// SSS symmetric storage (§III-C). The dense diagonal and the strict
// lower triangle each hold a ValueIndex into ONE shared unique-value
// table: diag_ind holds n indices (implicit 0.0 diagonals resolve to the
// table's zero entry), val_ind holds one index per stored lower
// non-zero. The index width is the smallest of u8/u16/u32 that addresses
// the unique count, so value bytes drop from 8 to width per stored
// element on matrices with few distinct values — compounding with the
// symmetric halving of the index/value streams.
#pragma once

#include <cstdint>

#include "spc/formats/csr_vi.hpp"
#include "spc/mm/triplets.hpp"
#include "spc/support/aligned.hpp"
#include "spc/support/types.hpp"

namespace spc {

class SymCsrVi {
 public:
  SymCsrVi() = default;

  /// Same precondition as SymCsr: square and numerically symmetric.
  static bool applicable(const Triplets& t);

  /// Builds from a symmetric matrix; throws InvalidArgument otherwise.
  static SymCsrVi from_triplets(const Triplets& t);

  /// The shared census of a symmetric matrix: the dense diagonal (0.0
  /// where absent) first, then the strict lower triangle in row-major
  /// order, so implicit diagonal zeros join it like any stored value.
  static ValueTable value_table(const Triplets& t);

  /// Rows [row_begin, row_end) of the storage (see SymCsr::from_rows()),
  /// with value indices into `values`, which must be value_table() of
  /// the same triplets.
  static SymCsrVi from_rows(const Triplets& t, index_t row_begin,
                            index_t row_end, const ValueTable& values);

  index_t nrows() const { return nrows_; }
  index_t ncols() const { return ncols_; }
  /// Non-zeros of the *full* matrix rows this storage represents.
  usize_t nnz() const { return nnz_full_; }
  /// Stored elements: diagonal + strict lower triangle.
  usize_t stored() const {
    return static_cast<usize_t>(nrows_) + col_ind_.size();
  }

  const aligned_vector<index_t>& row_ptr() const { return row_ptr_; }
  const aligned_vector<index_t>& col_ind() const { return col_ind_; }
  /// Value side of the lower triangle (val_ind), one index per stored
  /// lower non-zero.
  const ValueIndex& value_index() const { return lower_; }
  /// Value side of the diagonal (diag_ind), one index per row; same
  /// table and width as value_index().
  const ValueIndex& diag_index() const { return diag_; }

  /// Stored-element ttu: (diag + lower) over unique, the compression
  /// ratio the shared table actually achieves.
  double ttu() const {
    const usize_t unique = lower_.table().size();
    return unique
               ? static_cast<double>(stored()) / static_cast<double>(unique)
               : 0.0;
  }

  /// row_ptr + col_ind + val_ind + diag_ind + the one vals_unique.
  usize_t bytes() const {
    return row_ptr_.size() * sizeof(index_t) +
           col_ind_.size() * sizeof(index_t) + lower_.bytes() +
           diag_.raw().size();
  }

  Triplets to_triplets() const;

 private:
  index_t nrows_ = 0;
  index_t ncols_ = 0;
  usize_t nnz_full_ = 0;
  aligned_vector<index_t> row_ptr_;  ///< strict lower triangle, CSR
  aligned_vector<index_t> col_ind_;
  ValueIndex diag_;   ///< nrows indices
  ValueIndex lower_;  ///< lower nnz indices
};

}  // namespace spc
