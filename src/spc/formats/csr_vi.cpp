#include "spc/formats/csr_vi.hpp"

#include <span>
#include <utility>

namespace spc {

CsrVi CsrVi::from_triplets(const Triplets& t) {
  return from_rows(t, 0, t.nrows(), row_major_values(t));
}

CsrVi CsrVi::from_rows(const Triplets& t, index_t row_begin,
                       index_t row_end, const ValueTable& values) {
  SPC_CHECK_MSG(t.is_sorted_unique(),
                "CSR-VI construction requires sorted/combined triplets");
  const std::span<const Entry> rows = t.rows(row_begin, row_end);
  CsrVi m;
  m.nrows_ = row_end - row_begin;
  m.ncols_ = t.ncols();
  m.row_ptr_.assign(m.nrows_ + 1, 0);
  m.col_ind_.resize(rows.size());
  m.values_ = ValueIndex(values, rows.size(), [&](auto put) {
    for (usize_t k = 0; k < rows.size(); ++k) {
      const Entry& e = rows[k];
      ++m.row_ptr_[e.row - row_begin + 1];
      m.col_ind_[k] = e.col;
      put(k, e.val);
    }
  });
  for (index_t r = 0; r < m.nrows_; ++r) {
    m.row_ptr_[r + 1] += m.row_ptr_[r];
  }
  return m;
}

CsrVi CsrVi::from_raw(index_t nrows, index_t ncols,
                      aligned_vector<index_t> row_ptr,
                      aligned_vector<std::uint32_t> col_ind,
                      std::uint32_t width,
                      aligned_vector<std::uint8_t> val_ind,
                      aligned_vector<value_t> vals_unique) {
  const usize_t nnz = col_ind.size();
  if (row_ptr.size() != static_cast<std::size_t>(nrows) + 1 ||
      row_ptr.front() != 0 || row_ptr.back() != nnz) {
    throw ParseError("csr-vi: inconsistent array shapes");
  }
  for (index_t r = 0; r < nrows; ++r) {
    if (row_ptr[r] > row_ptr[r + 1]) {
      throw ParseError("csr-vi: row_ptr is not monotone");
    }
  }
  for (const std::uint32_t c : col_ind) {
    if (c >= ncols) {
      throw ParseError("csr-vi: column index out of bounds");
    }
  }
  CsrVi m;
  m.values_ = ValueIndex::from_raw("csr-vi", nnz, width, std::move(val_ind),
                                   std::move(vals_unique));
  m.nrows_ = nrows;
  m.ncols_ = ncols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_ind_ = std::move(col_ind);
  return m;
}

Triplets CsrVi::to_triplets() const {
  Triplets t(nrows_, ncols_);
  t.reserve(nnz());
  for (index_t r = 0; r < nrows_; ++r) {
    for (index_t j = row_ptr_[r]; j < row_ptr_[r + 1]; ++j) {
      t.add(r, col_ind_[j], values_.value_at(j));
    }
  }
  return t;
}

}  // namespace spc
