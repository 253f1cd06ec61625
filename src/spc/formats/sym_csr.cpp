#include "spc/formats/sym_csr.hpp"

#include <span>

#include "spc/mm/ops.hpp"

namespace spc {

bool SymCsr::applicable(const Triplets& t) {
  // Numeric equality: ±0.0 mirrors match, a NaN never matches.
  return check_mirrors(t, [](value_t a, value_t b) { return a == b; })
      .values;
}

SymCsr SymCsr::from_triplets(const Triplets& t) {
  SPC_CHECK_MSG(t.is_sorted_unique(),
                "SymCsr construction requires sorted/combined triplets");
  if (!applicable(t)) {
    throw InvalidArgument("SymCsr requires a numerically symmetric matrix");
  }
  return from_rows(t, 0, t.nrows());
}

SymCsr SymCsr::from_rows(const Triplets& t, index_t row_begin,
                         index_t row_end) {
  SPC_CHECK_MSG(t.is_sorted_unique(),
                "SymCsr construction requires sorted/combined triplets");
  const std::span<const Entry> rows = t.rows(row_begin, row_end);
  SymCsr m;
  m.nrows_ = row_end - row_begin;
  m.ncols_ = t.ncols();
  m.nnz_full_ = rows.size();
  m.diag_.assign(m.nrows_, 0.0);
  m.row_ptr_.assign(m.nrows_ + 1, 0);
  usize_t lower = 0;
  for (const Entry& e : rows) {
    if (e.row == e.col) {
      m.diag_[e.row - row_begin] = e.val;
    } else if (e.col < e.row) {
      ++m.row_ptr_[e.row - row_begin + 1];
      ++lower;
    }
  }
  for (index_t r = 0; r < m.nrows_; ++r) {
    m.row_ptr_[r + 1] += m.row_ptr_[r];
  }
  m.col_ind_.resize(lower);
  m.values_.resize(lower);
  usize_t k = 0;
  for (const Entry& e : rows) {
    if (e.col < e.row) {
      m.col_ind_[k] = e.col;
      m.values_[k] = e.val;
      ++k;
    }
  }
  return m;
}

Triplets SymCsr::to_triplets() const {
  Triplets t(nrows_, ncols_);
  t.reserve(nnz_full_);
  for (index_t r = 0; r < nrows_; ++r) {
    if (diag_[r] != 0.0) {
      t.add(r, r, diag_[r]);
    }
    for (index_t j = row_ptr_[r]; j < row_ptr_[r + 1]; ++j) {
      t.add(r, col_ind_[j], values_[j]);
      t.add(col_ind_[j], r, values_[j]);
    }
  }
  t.sort_and_combine();
  return t;
}

}  // namespace spc
