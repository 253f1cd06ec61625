// CSR-VI ("CSR Value Index") — the paper's value-compression format (§V).
//
// The CSR `values` array is replaced by a ValueIndex (mm/value_census.hpp):
// `vals_unique` (each distinct value once, in first-occurrence order) and
// `val_ind` (per non-zero, the index of its value in vals_unique), at the
// smallest of u8/u16/u32 that addresses the unique count. Indexing data
// (row_ptr, col_ind) are plain CSR.
//
// Worthwhile only when the total-to-unique ratio is high; the paper's
// empirical applicability criterion is ttu > 5 (§VI-E).
#pragma once

#include <cstdint>

#include "spc/mm/triplets.hpp"
#include "spc/mm/value_census.hpp"
#include "spc/support/aligned.hpp"
#include "spc/support/types.hpp"

namespace spc {

/// The paper's empirical applicability rule (§VI-E): ttu > 5.
inline constexpr double kViTtuThreshold = 5.0;

class CsrVi {
 public:
  CsrVi() = default;

  /// Builds in O(nnz) through a census of value bit patterns (§V): one
  /// pass to count the distinct values, then from_rows() over all rows.
  static CsrVi from_triplets(const Triplets& t);

  /// Builds rows [row_begin, row_end) of sorted triplets as a standalone
  /// (row_end - row_begin) x ncols matrix (local row i is row
  /// row_begin + i), with value indices into `values`, which must be
  /// row_major_values() of the same triplets: every slice then shares
  /// one vals_unique array and the indices match the whole matrix's.
  static CsrVi from_rows(const Triplets& t, index_t row_begin,
                         index_t row_end, const ValueTable& values);

  /// Reconstructs from raw arrays (the deserialization path) with full
  /// validation (shape consistency, index bounds, the width as stored).
  /// Throws ParseError on any violation.
  static CsrVi from_raw(index_t nrows, index_t ncols,
                        aligned_vector<index_t> row_ptr,
                        aligned_vector<std::uint32_t> col_ind,
                        std::uint32_t width,
                        aligned_vector<std::uint8_t> val_ind,
                        aligned_vector<value_t> vals_unique);

  index_t nrows() const { return nrows_; }
  index_t ncols() const { return ncols_; }
  usize_t nnz() const { return col_ind_.size(); }

  const aligned_vector<index_t>& row_ptr() const { return row_ptr_; }
  const aligned_vector<std::uint32_t>& col_ind() const { return col_ind_; }
  /// Value side: val_ind and vals_unique.
  const ValueIndex& value_index() const { return values_; }

  /// Total-to-unique ratio, the paper's applicability measure.
  double ttu() const {
    const usize_t unique = values_.table().size();
    return unique ? static_cast<double>(nnz()) / static_cast<double>(unique)
                  : 0.0;
  }

  /// Matrix data size: row_ptr + col_ind + val_ind + vals_unique.
  usize_t bytes() const {
    return row_ptr_.size() * sizeof(index_t) +
           col_ind_.size() * sizeof(std::uint32_t) + values_.bytes();
  }

  Triplets to_triplets() const;

 private:
  index_t nrows_ = 0;
  index_t ncols_ = 0;
  aligned_vector<index_t> row_ptr_;
  aligned_vector<std::uint32_t> col_ind_;
  ValueIndex values_;
};

}  // namespace spc
