// Symmetric CSR-VI — the paper's value compression (§V) applied to the
// SSS symmetric storage (§III-C). The dense diagonal and the strict
// lower triangle both index into ONE shared unique-value table: diag_ind
// holds n indices (implicit 0.0 diagonals resolve to the table's zero
// entry), val_ind holds one index per stored lower non-zero. The index
// width is the smallest of u8/u16/u32 that addresses the unique count,
// so value bytes drop from 8 to width per stored element on matrices
// with few distinct values — compounding with the symmetric halving of
// the index/value streams.
#pragma once

#include <cstdint>
#include <memory>

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
  const aligned_vector<value_t>& vals_unique() const {
    return *vals_unique_;
  }
  /// Raw value-index bytes for the lower triangle; reinterpret per width().
  const aligned_vector<std::uint8_t>& val_ind_raw() const { return val_ind_; }
  /// Raw value-index bytes for the diagonal (n entries); same width.
  const aligned_vector<std::uint8_t>& diag_ind_raw() const {
    return diag_ind_;
  }
  ViWidth width() const { return width_; }

  usize_t unique_count() const { return vals_unique_->size(); }
  /// Stored-element ttu: (diag + lower) over unique, the compression
  /// ratio the shared table actually achieves.
  double ttu() const {
    return unique_count() ? static_cast<double>(stored()) /
                                static_cast<double>(unique_count())
                          : 0.0;
  }

  /// Typed views; T must match width().
  template <typename T>
  const T* val_ind_as() const {
    SPC_CHECK(sizeof(T) == static_cast<std::size_t>(width_));
    return reinterpret_cast<const T*>(val_ind_.data());
  }
  template <typename T>
  const T* diag_ind_as() const {
    SPC_CHECK(sizeof(T) == static_cast<std::size_t>(width_));
    return reinterpret_cast<const T*>(diag_ind_.data());
  }

  /// Value of the k-th stored lower non-zero (test/inspection path).
  value_t value_at(usize_t k) const;
  /// Diagonal value of row r (test/inspection path).
  value_t diag_at(index_t r) const;

  usize_t bytes() const {
    return row_ptr_.size() * sizeof(index_t) +
           col_ind_.size() * sizeof(index_t) + val_ind_.size() +
           diag_ind_.size() + vals_unique_->size() * sizeof(value_t);
  }

  Triplets to_triplets() const;

 private:
  index_t nrows_ = 0;
  index_t ncols_ = 0;
  usize_t nnz_full_ = 0;
  ViWidth width_ = ViWidth::kU8;
  aligned_vector<index_t> row_ptr_;  ///< strict lower triangle, CSR
  aligned_vector<index_t> col_ind_;
  aligned_vector<std::uint8_t> diag_ind_;  ///< nrows * width bytes
  aligned_vector<std::uint8_t> val_ind_;   ///< lower nnz * width bytes
  /// Shared by every slice built from one ValueTable.
  std::shared_ptr<const aligned_vector<value_t>> vals_unique_ =
      std::make_shared<const aligned_vector<value_t>>();
};

}  // namespace spc
