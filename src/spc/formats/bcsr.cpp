#include "spc/formats/bcsr.hpp"

#include <algorithm>
#include <vector>

namespace spc {

Bcsr Bcsr::from_triplets(const Triplets& t, index_t block_rows,
                         index_t block_cols) {
  SPC_CHECK_MSG(t.is_sorted_unique(),
                "BCSR construction requires sorted/combined triplets");
  SPC_CHECK_MSG(block_rows >= 1 && block_rows <= 8 && block_cols >= 1 &&
                    block_cols <= 8,
                "BCSR block shape must be within 1..8 x 1..8");
  Bcsr m;
  m.nrows_ = t.nrows();
  m.ncols_ = t.ncols();
  m.nnz_ = t.nnz();
  m.br_ = block_rows;
  m.bc_ = block_cols;
  m.nblock_rows_ = (t.nrows() + block_rows - 1) / block_rows;

  // The triplets are row-major, so each block row's entries are one
  // contiguous run: first[br] is the entry where block row br starts.
  const std::vector<Entry>& es = t.entries();
  std::vector<usize_t> first(m.nblock_rows_ + 1, 0);
  for (const Entry& e : es) {
    ++first[e.row / block_rows + 1];
  }
  for (index_t br = 0; br < m.nblock_rows_; ++br) {
    first[br + 1] += first[br];
  }

  // Pass 1: a block row's blocks are its distinct block columns, in
  // ascending order.
  m.block_row_ptr_.assign(m.nblock_rows_ + 1, 0);
  std::vector<index_t> cols;
  for (index_t br = 0; br < m.nblock_rows_; ++br) {
    cols.clear();
    for (usize_t k = first[br]; k < first[br + 1]; ++k) {
      const index_t bc = es[k].col / block_cols;
      if (cols.empty() || cols.back() != bc) {
        cols.push_back(bc);
      }
    }
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    for (const index_t bc : cols) {
      m.block_col_.push_back(bc * block_cols);
    }
    m.block_row_ptr_[br + 1] = static_cast<index_t>(m.block_col_.size());
  }

  // Pass 2: scatter values into zero-filled blocks, finding each entry's
  // slot through its block column (valid for the current block row).
  const usize_t block_elems =
      static_cast<usize_t>(block_rows) * block_cols;
  m.values_.assign(m.block_col_.size() * block_elems, 0.0);
  std::vector<index_t> slot_of(
      (static_cast<usize_t>(t.ncols()) + block_cols - 1) / block_cols);
  for (index_t br = 0; br < m.nblock_rows_; ++br) {
    for (index_t b = m.block_row_ptr_[br]; b < m.block_row_ptr_[br + 1];
         ++b) {
      slot_of[m.block_col_[b] / block_cols] = b;
    }
    for (usize_t k = first[br]; k < first[br + 1]; ++k) {
      const Entry& e = es[k];
      const usize_t slot = slot_of[e.col / block_cols];
      const index_t lr = e.row % block_rows;
      const index_t lc = e.col % block_cols;
      m.values_[slot * block_elems + static_cast<usize_t>(lr) * block_cols +
                lc] = e.val;
    }
  }
  return m;
}

Triplets Bcsr::to_triplets() const {
  Triplets t(nrows_, ncols_);
  const usize_t block_elems = static_cast<usize_t>(br_) * bc_;
  for (index_t brow = 0; brow < nblock_rows_; ++brow) {
    for (index_t b = block_row_ptr_[brow]; b < block_row_ptr_[brow + 1];
         ++b) {
      const index_t col0 = block_col_[b];
      const index_t row0 = brow * br_;
      for (index_t lr = 0; lr < br_; ++lr) {
        for (index_t lc = 0; lc < bc_; ++lc) {
          const value_t v =
              values_[static_cast<usize_t>(b) * block_elems +
                      static_cast<usize_t>(lr) * bc_ + lc];
          const index_t row = row0 + lr;
          const index_t col = col0 + lc;
          // Fill zeros are storage artifacts, not matrix entries.
          if (v != 0.0 && row < nrows_ && col < ncols_) {
            t.add(row, col, v);
          }
        }
      }
    }
  }
  t.sort_and_combine();
  return t;
}

}  // namespace spc
