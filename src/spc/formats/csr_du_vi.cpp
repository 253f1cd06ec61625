#include "spc/formats/csr_du_vi.hpp"

#include <span>
#include <utility>

namespace spc {

CsrDuVi CsrDuVi::from_triplets(const Triplets& t, const CsrDuOptions& opts) {
  return from_rows(t, 0, t.nrows(), opts, row_major_values(t));
}

CsrDuVi CsrDuVi::from_rows(const Triplets& t, index_t row_begin,
                           index_t row_end, const CsrDuOptions& opts,
                           const ValueTable& values) {
  CsrDuVi m;
  m.du_ = CsrDu::encode(t, row_begin, row_end, opts, /*keep_values=*/false);
  m.nnz_ = m.du_.nnz();
  // Row-major like the ctl stream's value consumption, so val_ind[k]
  // pairs with the k-th decoded element.
  const std::span<const Entry> rows = t.rows(row_begin, row_end);
  m.width_ = values.width();
  m.vals_unique_ = values.values();
  m.val_ind_.resize(rows.size() * static_cast<usize_t>(m.width_));
  for (usize_t k = 0; k < rows.size(); ++k) {
    store_value_index(m.val_ind_.data(), m.width_, k,
                      values.index_of(rows[k].val));
  }
  return m;
}

CsrDuVi CsrDuVi::from_raw(index_t nrows, index_t ncols,
                          const CsrDuOptions& opts,
                          aligned_vector<std::uint8_t> ctl, ViWidth width,
                          aligned_vector<std::uint8_t> val_ind,
                          aligned_vector<value_t> vals_unique) {
  CsrDuVi m;
  // Structural validation via the DU path (no values array).
  m.du_ = CsrDu::from_raw(nrows, ncols, opts, std::move(ctl), {});
  m.nnz_ = m.du_.nnz();
  if (val_ind.size() != m.nnz_ * static_cast<usize_t>(width)) {
    throw ParseError("csr-du-vi: val_ind size does not match element count");
  }
  const usize_t uniq = vals_unique.size();
  const auto check_ind = [&](std::uint64_t ind) {
    if (ind >= uniq) {
      throw ParseError("csr-du-vi: value index out of bounds");
    }
  };
  switch (width) {
    case ViWidth::kU8:
      for (usize_t k = 0; k < m.nnz_; ++k) {
        check_ind(val_ind[k]);
      }
      break;
    case ViWidth::kU16:
      for (usize_t k = 0; k < m.nnz_; ++k) {
        check_ind(
            reinterpret_cast<const std::uint16_t*>(val_ind.data())[k]);
      }
      break;
    case ViWidth::kU32:
      for (usize_t k = 0; k < m.nnz_; ++k) {
        check_ind(
            reinterpret_cast<const std::uint32_t*>(val_ind.data())[k]);
      }
      break;
  }
  m.width_ = width;
  m.val_ind_ = std::move(val_ind);
  m.vals_unique_ =
      std::make_shared<const aligned_vector<value_t>>(std::move(vals_unique));
  return m;
}

Triplets CsrDuVi::to_triplets() const {
  // Reuse the DU unit decoder for structure; pull values through the
  // indirection.
  Triplets t(nrows(), ncols());
  t.reserve(nnz_);
  std::int64_t row = -1;
  std::uint64_t col = 0;
  usize_t k = 0;
  const auto value_at = [&](usize_t i) -> value_t {
    switch (width_) {
      case ViWidth::kU8:
        return vals_unique()[val_ind_[i]];
      case ViWidth::kU16:
        return vals_unique()[val_ind_as<std::uint16_t>()[i]];
      case ViWidth::kU32:
        return vals_unique()[val_ind_as<std::uint32_t>()[i]];
    }
    return 0.0;
  };
  for (const CsrDu::DecodedUnit& u : du_.decode_units()) {
    if (u.new_row) {
      row += 1 + static_cast<std::int64_t>(u.rskip);
      col = 0;
    }
    col += u.ujmp;
    t.add(static_cast<index_t>(row), static_cast<index_t>(col), value_at(k));
    ++k;
    for (const std::uint64_t d : u.ucis) {
      col += d;
      t.add(static_cast<index_t>(row), static_cast<index_t>(col),
            value_at(k));
      ++k;
    }
  }
  return t;
}

}  // namespace spc
