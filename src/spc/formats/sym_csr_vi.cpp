#include "spc/formats/sym_csr_vi.hpp"

#include <vector>

#include "spc/formats/sym_csr.hpp"

namespace spc {

bool SymCsrVi::applicable(const Triplets& t) { return SymCsr::applicable(t); }

SymCsrVi SymCsrVi::from_triplets(const Triplets& t) {
  SPC_CHECK_MSG(t.is_sorted_unique(),
                "SymCsrVi construction requires sorted/combined triplets");
  if (!applicable(t)) {
    throw InvalidArgument(
        "SymCsrVi requires a numerically symmetric matrix");
  }
  SymCsrVi m;
  m.n_ = t.nrows();
  m.nnz_full_ = t.nnz();
  m.row_ptr_.assign(t.nrows() + 1, 0);

  // Materialize the dense diagonal first (0.0 where absent) so implicit
  // diagonal zeros join the census like any other stored value.
  std::vector<value_t> diag(t.nrows(), 0.0);
  usize_t lower = 0;
  for (const Entry& e : t.entries()) {
    if (e.row == e.col) {
      diag[e.row] = e.val;
    } else if (e.col < e.row) {
      ++m.row_ptr_[e.row + 1];
      ++lower;
    }
  }
  for (index_t r = 0; r < t.nrows(); ++r) {
    m.row_ptr_[r + 1] += m.row_ptr_[r];
  }

  // Census of the diagonal then the strict lower triangle through one
  // shared table, first-occurrence order.
  ValueCensus census;
  for (const value_t d : diag) {
    census.add(d);
  }
  m.col_ind_.resize(lower);
  usize_t k = 0;
  for (const Entry& e : t.entries()) {
    if (e.col < e.row) {
      m.col_ind_[k++] = e.col;
      census.add(e.val);
    }
  }

  m.width_ = census.width();
  m.diag_ind_.resize(static_cast<usize_t>(t.nrows()) *
                     static_cast<usize_t>(m.width_));
  m.val_ind_.resize(lower * static_cast<usize_t>(m.width_));
  for (index_t r = 0; r < t.nrows(); ++r) {
    store_value_index(m.diag_ind_.data(), m.width_, r, census.add(diag[r]));
  }
  k = 0;
  for (const Entry& e : t.entries()) {
    if (e.col < e.row) {
      store_value_index(m.val_ind_.data(), m.width_, k++, census.add(e.val));
    }
  }
  m.vals_unique_ = census.take_values();
  return m;
}

value_t SymCsrVi::value_at(usize_t k) const {
  SPC_CHECK(k < col_ind_.size());
  switch (width_) {
    case ViWidth::kU8:
      return vals_unique_[val_ind_[k]];
    case ViWidth::kU16:
      return vals_unique_[val_ind_as<std::uint16_t>()[k]];
    case ViWidth::kU32:
      return vals_unique_[val_ind_as<std::uint32_t>()[k]];
  }
  return 0.0;
}

value_t SymCsrVi::diag_at(index_t r) const {
  SPC_CHECK(r < n_);
  switch (width_) {
    case ViWidth::kU8:
      return vals_unique_[diag_ind_[r]];
    case ViWidth::kU16:
      return vals_unique_[diag_ind_as<std::uint16_t>()[r]];
    case ViWidth::kU32:
      return vals_unique_[diag_ind_as<std::uint32_t>()[r]];
  }
  return 0.0;
}

Triplets SymCsrVi::to_triplets() const {
  Triplets t(n_, n_);
  t.reserve(nnz_full_);
  for (index_t r = 0; r < n_; ++r) {
    const value_t d = diag_at(r);
    if (d != 0.0) {
      t.add(r, r, d);
    }
    for (index_t j = row_ptr_[r]; j < row_ptr_[r + 1]; ++j) {
      const value_t v = value_at(j);
      t.add(r, col_ind_[j], v);
      t.add(col_ind_[j], r, v);
    }
  }
  t.sort_and_combine();
  return t;
}

}  // namespace spc
