// Coordinate-format (COO) triplet builder — the universal construction
// input for every storage format in the library.
//
// All generators and the Matrix Market reader produce `Triplets`; every
// format (CSR, CSR-DU, CSR-VI, ...) is constructed from sorted triplets.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "spc/support/error.hpp"
#include "spc/support/types.hpp"

namespace spc {

/// One non-zero element.
struct Entry {
  index_t row = 0;
  index_t col = 0;
  value_t val = 0.0;

  friend bool operator==(const Entry&, const Entry&) = default;
};

/// Mutable collection of non-zeros with explicit matrix dimensions.
///
/// Invariants (checked on demand by `validate()`):
///  * every entry lies inside [0, nrows) × [0, ncols)
/// After `sort_and_combine()` additionally:
///  * entries are in row-major order and coordinates are unique.
///
/// The sorts record that they ran and add() clears the record, so every
/// encoder's sortedness precondition costs no scan on triplets that were
/// sorted when they were built (every generator and the Matrix Market
/// reader sort their output).
class Triplets {
 public:
  Triplets() = default;
  Triplets(index_t nrows, index_t ncols) : nrows_(nrows), ncols_(ncols) {}

  index_t nrows() const { return nrows_; }
  index_t ncols() const { return ncols_; }
  usize_t nnz() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  const std::vector<Entry>& entries() const { return entries_; }

  /// Appends one non-zero. Duplicate coordinates are allowed until
  /// sort_and_combine() folds them.
  void add(index_t row, index_t col, value_t val) {
    SPC_DCHECK(row < nrows_ && col < ncols_);
    entries_.push_back(Entry{row, col, val});
    sorted_ = false;
  }

  void reserve(usize_t n) { entries_.reserve(n); }

  /// Sorts row-major and sums duplicate coordinates (the Matrix Market
  /// convention). Entries that sum to exactly zero are kept: structural
  /// zeros are meaningful for format comparisons.
  void sort_and_combine();

  /// Sorts row-major and keeps the first-added value for duplicate
  /// coordinates. Used by the synthetic generators, where summation would
  /// manufacture values outside the intended value pool and distort the
  /// total-to-unique ratio.
  void sort_and_dedup_keep_first();

  /// True if entries are sorted row-major with strictly increasing
  /// (row, col) pairs. O(1) while sort_recorded(), an O(nnz) scan
  /// otherwise.
  bool is_sorted_unique() const;

  /// True when a sort ran and nothing was added since.
  bool sort_recorded() const { return sorted_; }

  /// Index of the first entry in row `r` or a later row: the number of
  /// entries above row r, i.e. row r's prefix nnz (row_start(nrows()) ==
  /// nnz()). Binary search; requires sorted triplets and r <= nrows().
  usize_t row_start(index_t r) const;

  /// The entries of rows [row_begin, row_end), a contiguous span of the
  /// row-major order. Requires sorted triplets; throws InvalidArgument
  /// unless row_begin <= row_end <= nrows().
  std::span<const Entry> rows(index_t row_begin, index_t row_end) const;

  /// Throws InvalidArgument when any entry is out of bounds.
  void validate() const;

  /// Grows the logical dimensions (entries are untouched).
  void resize_dims(index_t nrows, index_t ncols) {
    SPC_CHECK_MSG(nrows >= nrows_ && ncols >= ncols_,
                  "resize_dims must not shrink the matrix");
    nrows_ = nrows;
    ncols_ = ncols;
  }

 private:
  index_t nrows_ = 0;
  index_t ncols_ = 0;
  std::vector<Entry> entries_;
  bool sorted_ = false;
};

}  // namespace spc
