#include "spc/formats/sym_csr.hpp"

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
  SymCsr m;
  m.n_ = t.nrows();
  m.nnz_full_ = t.nnz();
  m.diag_.assign(t.nrows(), 0.0);
  m.row_ptr_.assign(t.nrows() + 1, 0);

  usize_t lower = 0;
  for (const Entry& e : t.entries()) {
    if (e.row == e.col) {
      m.diag_[e.row] = e.val;
    } else if (e.col < e.row) {
      ++m.row_ptr_[e.row + 1];
      ++lower;
    }
  }
  for (index_t r = 0; r < t.nrows(); ++r) {
    m.row_ptr_[r + 1] += m.row_ptr_[r];
  }
  m.col_ind_.resize(lower);
  m.values_.resize(lower);
  usize_t k = 0;
  for (const Entry& e : t.entries()) {
    if (e.col < e.row) {
      m.col_ind_[k] = e.col;
      m.values_[k] = e.val;
      ++k;
    }
  }
  return m;
}

Triplets SymCsr::to_triplets() const {
  Triplets t(n_, n_);
  t.reserve(nnz_full_);
  for (index_t r = 0; r < n_; ++r) {
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
