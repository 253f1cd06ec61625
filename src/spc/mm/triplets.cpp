#include "spc/mm/triplets.hpp"

#include <algorithm>
#include <sstream>

namespace spc {

void Triplets::sort_and_combine() {
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  // Fold duplicates in place by summation.
  std::size_t out = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (out > 0 && entries_[out - 1].row == entries_[i].row &&
        entries_[out - 1].col == entries_[i].col) {
      entries_[out - 1].val += entries_[i].val;
    } else {
      entries_[out++] = entries_[i];
    }
  }
  entries_.resize(out);
  sorted_ = true;
}

void Triplets::sort_and_dedup_keep_first() {
  // Stable sort so "first added" is well-defined among duplicates.
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.row != b.row ? a.row < b.row : a.col < b.col;
                   });
  std::size_t out = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (out > 0 && entries_[out - 1].row == entries_[i].row &&
        entries_[out - 1].col == entries_[i].col) {
      continue;  // drop later duplicates
    }
    entries_[out++] = entries_[i];
  }
  entries_.resize(out);
  sorted_ = true;
}

bool Triplets::is_sorted_unique() const {
  if (sorted_) {
    return true;
  }
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    const Entry& a = entries_[i - 1];
    const Entry& b = entries_[i];
    if (a.row > b.row || (a.row == b.row && a.col >= b.col)) {
      return false;
    }
  }
  return true;
}

usize_t Triplets::row_start(index_t r) const {
  return static_cast<usize_t>(
      std::partition_point(entries_.begin(), entries_.end(),
                           [r](const Entry& e) { return e.row < r; }) -
      entries_.begin());
}

std::span<const Entry> Triplets::rows(index_t row_begin,
                                      index_t row_end) const {
  if (row_begin > row_end || row_end > nrows_) {
    std::ostringstream os;
    os << "row range [" << row_begin << ", " << row_end << ") outside a "
       << nrows_ << "-row matrix";
    throw InvalidArgument(os.str());
  }
  const usize_t lo = row_start(row_begin);
  return {entries_.data() + lo, row_start(row_end) - lo};
}

void Triplets::validate() const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (e.row >= nrows_ || e.col >= ncols_) {
      std::ostringstream os;
      os << "triplet " << i << " (" << e.row << "," << e.col
         << ") outside " << nrows_ << "x" << ncols_ << " matrix";
      throw InvalidArgument(os.str());
    }
  }
}

}  // namespace spc
