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
  // Row-major like the ctl stream's value consumption, so val_ind[k]
  // pairs with the k-th decoded element.
  const std::span<const Entry> rows = t.rows(row_begin, row_end);
  m.values_ = ValueIndex(values, rows.size(), [&](auto put) {
    for (usize_t k = 0; k < rows.size(); ++k) {
      put(k, rows[k].val);
    }
  });
  return m;
}

CsrDuVi CsrDuVi::from_raw(index_t nrows, index_t ncols,
                          const CsrDuOptions& opts,
                          aligned_vector<std::uint8_t> ctl,
                          std::uint32_t width,
                          aligned_vector<std::uint8_t> val_ind,
                          aligned_vector<value_t> vals_unique) {
  CsrDuVi m;
  // Structural validation via the DU path (no values array).
  m.du_ = CsrDu::from_raw(nrows, ncols, opts, std::move(ctl), {});
  m.values_ = ValueIndex::from_raw("csr-du-vi", m.du_.nnz(), width,
                                   std::move(val_ind), std::move(vals_unique));
  return m;
}

Triplets CsrDuVi::to_triplets() const {
  // Reuse the DU unit decoder for structure; pull values through the
  // indirection.
  Triplets t(nrows(), ncols());
  t.reserve(nnz());
  std::int64_t row = -1;
  std::uint64_t col = 0;
  usize_t k = 0;
  for (const CsrDu::DecodedUnit& u : du_.decode_units()) {
    if (u.new_row) {
      row += 1 + static_cast<std::int64_t>(u.rskip);
      col = 0;
    }
    col += u.ujmp;
    t.add(static_cast<index_t>(row), static_cast<index_t>(col),
          values_.value_at(k));
    ++k;
    for (const std::uint64_t d : u.ucis) {
      col += d;
      t.add(static_cast<index_t>(row), static_cast<index_t>(col),
            values_.value_at(k));
      ++k;
    }
  }
  return t;
}

}  // namespace spc
