// Compressed Sparse Row — the baseline format of the paper (§II-B, Fig 1).
//
// `BasicCsr` is parameterized on the column-index type:
//  * Csr    = BasicCsr<uint32_t>  — the paper's baseline (4-byte indices)
//  * Csr16  = BasicCsr<uint16_t>  — the short-index variant mentioned in
//    §III-D (Williams et al.), valid only when ncols <= 65536.
// Row pointers always use 32-bit indices into the nnz range.
#pragma once

#include <cstdint>
#include <limits>
#include <span>

#include "spc/mm/triplets.hpp"
#include "spc/support/aligned.hpp"
#include "spc/support/error.hpp"
#include "spc/support/types.hpp"

namespace spc {

template <typename ColIndexT>
class BasicCsr {
 public:
  using col_index_type = ColIndexT;

  BasicCsr() = default;

  /// Builds from sorted/combined triplets in O(nnz).
  static BasicCsr from_triplets(const Triplets& t) {
    return from_rows(t, 0, t.nrows());
  }

  /// Builds rows [row_begin, row_end) of sorted triplets as a standalone
  /// (row_end - row_begin) x ncols matrix: local row i is row
  /// row_begin + i, and row_ptr starts at 0.
  static BasicCsr from_rows(const Triplets& t, index_t row_begin,
                            index_t row_end) {
    SPC_CHECK_MSG(t.is_sorted_unique(),
                  "CSR construction requires sorted/combined triplets");
    SPC_CHECK_MSG(t.ncols() == 0 ||
                      t.ncols() - 1 <= std::numeric_limits<ColIndexT>::max(),
                  "column index type too narrow for this matrix");
    const std::span<const Entry> rows = t.rows(row_begin, row_end);
    BasicCsr m;
    m.nrows_ = row_end - row_begin;
    m.ncols_ = t.ncols();
    m.row_ptr_.assign(m.nrows_ + 1, 0);
    m.col_ind_.resize(rows.size());
    m.values_.resize(rows.size());
    for (usize_t k = 0; k < rows.size(); ++k) {
      const Entry& e = rows[k];
      ++m.row_ptr_[e.row - row_begin + 1];
      m.col_ind_[k] = static_cast<ColIndexT>(e.col);
      m.values_[k] = e.val;
    }
    for (index_t r = 0; r < m.nrows_; ++r) {
      m.row_ptr_[r + 1] += m.row_ptr_[r];
    }
    return m;
  }

  /// Reconstructs from raw arrays (the deserialization path) with full
  /// validation: row_ptr must be monotone with the right endpoints and
  /// every column index in range. Throws ParseError otherwise.
  static BasicCsr from_raw(index_t nrows, index_t ncols,
                           aligned_vector<index_t> row_ptr,
                           aligned_vector<ColIndexT> col_ind,
                           aligned_vector<value_t> values) {
    if (row_ptr.size() != static_cast<std::size_t>(nrows) + 1 ||
        row_ptr.front() != 0 || row_ptr.back() != col_ind.size() ||
        col_ind.size() != values.size()) {
      throw ParseError("csr: inconsistent array shapes");
    }
    for (index_t r = 0; r < nrows; ++r) {
      if (row_ptr[r] > row_ptr[r + 1]) {
        throw ParseError("csr: row_ptr is not monotone");
      }
    }
    for (const ColIndexT c : col_ind) {
      if (static_cast<index_t>(c) >= ncols) {
        throw ParseError("csr: column index out of bounds");
      }
    }
    BasicCsr m;
    m.nrows_ = nrows;
    m.ncols_ = ncols;
    m.row_ptr_ = std::move(row_ptr);
    m.col_ind_ = std::move(col_ind);
    m.values_ = std::move(values);
    return m;
  }

  /// Inverse conversion (exact, including explicitly stored zeros).
  Triplets to_triplets() const {
    Triplets t(nrows_, ncols_);
    t.reserve(nnz());
    for (index_t r = 0; r < nrows_; ++r) {
      for (index_t j = row_ptr_[r]; j < row_ptr_[r + 1]; ++j) {
        t.add(r, static_cast<index_t>(col_ind_[j]), values_[j]);
      }
    }
    return t;  // already sorted: CSR stores row-major order
  }

  index_t nrows() const { return nrows_; }
  index_t ncols() const { return ncols_; }
  usize_t nnz() const { return values_.size(); }

  const aligned_vector<index_t>& row_ptr() const { return row_ptr_; }
  const aligned_vector<ColIndexT>& col_ind() const { return col_ind_; }
  const aligned_vector<value_t>& values() const { return values_; }

  /// Size of the matrix data (the paper's csr_size term).
  usize_t bytes() const {
    return row_ptr_.size() * sizeof(index_t) +
           col_ind_.size() * sizeof(ColIndexT) +
           values_.size() * sizeof(value_t);
  }

 private:
  index_t nrows_ = 0;
  index_t ncols_ = 0;
  aligned_vector<index_t> row_ptr_;
  aligned_vector<ColIndexT> col_ind_;
  aligned_vector<value_t> values_;
};

/// The paper's baseline: 32-bit column indices, 64-bit values.
using Csr = BasicCsr<std::uint32_t>;

/// Short-index variant (§III-D): halves col_ind when ncols <= 2^16.
using Csr16 = BasicCsr<std::uint16_t>;

/// Wide-index variant: the paper's conclusion notes that once matrices
/// need 64-bit column addressing, index data equal value data and index
/// compression (CSR-DU) doubles its leverage. Csr64 models that regime
/// so the ablation can measure it without a >4G-column matrix.
using Csr64 = BasicCsr<std::uint64_t>;

/// True when `t` can be stored with 16-bit column indices.
inline bool csr16_applicable(const Triplets& t) {
  return t.ncols() <= 65536;
}

}  // namespace spc
