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
  m.diag_ = ValueIndex(values, diag.size(), [&](auto put) {
    for (usize_t r = 0; r < diag.size(); ++r) {
      put(r, diag[r]);
    }
  });
  m.col_ind_.resize(lower);
  m.lower_ = ValueIndex(values, lower, [&](auto put) {
    usize_t k = 0;
    for (const Entry& e : rows) {
      if (e.col < e.row) {
        m.col_ind_[k] = e.col;
        put(k++, e.val);
      }
    }
  });
  return m;
}

Triplets SymCsrVi::to_triplets() const {
  Triplets t(nrows_, ncols_);
  t.reserve(nnz_full_);
  for (index_t r = 0; r < nrows_; ++r) {
    const value_t d = diag_.value_at(r);
    if (d != 0.0) {
      t.add(r, r, d);
    }
    for (index_t j = row_ptr_[r]; j < row_ptr_[r + 1]; ++j) {
      const value_t v = lower_.value_at(j);
      t.add(r, col_ind_[j], v);
      t.add(col_ind_[j], r, v);
    }
  }
  t.sort_and_combine();
  return t;
}

}  // namespace spc
