#include "spc/formats/sym_csr_vi.hpp"

#include <span>
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
  return from_rows(t, 0, t.nrows(), value_table(t));
}

ValueTable SymCsrVi::value_table(const Triplets& t) {
  std::vector<value_t> diag(t.nrows(), 0.0);
  for (const Entry& e : t.entries()) {
    if (e.row == e.col) {
      diag[e.row] = e.val;
    }
  }
  ValueCensus census;
  for (const value_t d : diag) {
    census.add(d);
  }
  for (const Entry& e : t.entries()) {
    if (e.col < e.row) {
      census.add(e.val);
    }
  }
  return ValueTable(std::move(census));
}

SymCsrVi SymCsrVi::from_rows(const Triplets& t, index_t row_begin,
                             index_t row_end, const ValueTable& values) {
  SPC_CHECK_MSG(t.is_sorted_unique(),
                "SymCsrVi construction requires sorted/combined triplets");
  const std::span<const Entry> rows = t.rows(row_begin, row_end);
  SymCsrVi m;
  m.nrows_ = row_end - row_begin;
  m.ncols_ = t.ncols();
  m.nnz_full_ = rows.size();
  m.width_ = values.width();
  m.vals_unique_ = values.values();
  m.row_ptr_.assign(m.nrows_ + 1, 0);

  std::vector<value_t> diag(m.nrows_, 0.0);
  usize_t lower = 0;
  for (const Entry& e : rows) {
    if (e.row == e.col) {
      diag[e.row - row_begin] = e.val;
    } else if (e.col < e.row) {
      ++m.row_ptr_[e.row - row_begin + 1];
      ++lower;
    }
  }
  for (index_t r = 0; r < m.nrows_; ++r) {
    m.row_ptr_[r + 1] += m.row_ptr_[r];
  }
  m.diag_ind_.resize(static_cast<usize_t>(m.nrows_) *
                     static_cast<usize_t>(m.width_));
  for (index_t r = 0; r < m.nrows_; ++r) {
    store_value_index(m.diag_ind_.data(), m.width_, r,
                      values.index_of(diag[r]));
  }
  m.col_ind_.resize(lower);
  m.val_ind_.resize(lower * static_cast<usize_t>(m.width_));
  usize_t k = 0;
  for (const Entry& e : rows) {
    if (e.col < e.row) {
      m.col_ind_[k] = e.col;
      store_value_index(m.val_ind_.data(), m.width_, k++,
                        values.index_of(e.val));
    }
  }
  return m;
}

value_t SymCsrVi::value_at(usize_t k) const {
  SPC_CHECK(k < col_ind_.size());
  switch (width_) {
    case ViWidth::kU8:
      return vals_unique()[val_ind_[k]];
    case ViWidth::kU16:
      return vals_unique()[val_ind_as<std::uint16_t>()[k]];
    case ViWidth::kU32:
      return vals_unique()[val_ind_as<std::uint32_t>()[k]];
  }
  return 0.0;
}

value_t SymCsrVi::diag_at(index_t r) const {
  SPC_CHECK(r < nrows_);
  switch (width_) {
    case ViWidth::kU8:
      return vals_unique()[diag_ind_[r]];
    case ViWidth::kU16:
      return vals_unique()[diag_ind_as<std::uint16_t>()[r]];
    case ViWidth::kU32:
      return vals_unique()[diag_ind_as<std::uint32_t>()[r]];
  }
  return 0.0;
}

Triplets SymCsrVi::to_triplets() const {
  Triplets t(nrows_, ncols_);
  t.reserve(nnz_full_);
  for (index_t r = 0; r < nrows_; ++r) {
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
