// CSR-DU-VI — the composition of both compression schemes.
//
// Index data are the CSR-DU ctl stream; value data are the CSR-VI
// indirection (a ValueIndex: vals_unique + val_ind). The CF'08 companion
// paper evaluates this combination; here it is the "extension"
// deliverable and is covered by the value-compression ablation bench.
#pragma once

#include "spc/formats/csr_du.hpp"
#include "spc/formats/csr_vi.hpp"

namespace spc {

class CsrDuVi {
 public:
  CsrDuVi() = default;

  static CsrDuVi from_triplets(const Triplets& t,
                               const CsrDuOptions& opts = {});

  /// Rows [row_begin, row_end) as a standalone matrix: the ctl stream of
  /// CsrDu::from_rows() and value indices into `values`, which must be
  /// row_major_values() of the same triplets (see CsrVi::from_rows()).
  static CsrDuVi from_rows(const Triplets& t, index_t row_begin,
                           index_t row_end, const CsrDuOptions& opts,
                           const ValueTable& values);

  /// Reconstructs from raw arrays (deserialization). The ctl stream and
  /// value indices are fully validated, the width as stored; throws
  /// ParseError on violations.
  static CsrDuVi from_raw(index_t nrows, index_t ncols,
                          const CsrDuOptions& opts,
                          aligned_vector<std::uint8_t> ctl,
                          std::uint32_t width,
                          aligned_vector<std::uint8_t> val_ind,
                          aligned_vector<value_t> vals_unique);

  index_t nrows() const { return du_.nrows(); }
  index_t ncols() const { return du_.ncols(); }
  usize_t nnz() const { return du_.nnz(); }

  /// Index side: the DU ctl stream (the embedded CsrDu keeps no values
  /// array; only ctl is live).
  const CsrDu& du() const { return du_; }
  /// The ctl stream's unit histogram, as the encoder emitted it.
  const CsrDu::UnitHistogram& histogram() const { return du_.histogram(); }
  /// Value side: val_ind and vals_unique, in decode order.
  const ValueIndex& value_index() const { return values_; }

  /// Matrix data size: ctl + val_ind + vals_unique.
  usize_t bytes() const { return du_.ctl_bytes() + values_.bytes(); }

  Triplets to_triplets() const;

 private:
  CsrDu du_;  ///< ctl stream + slice machinery; no values array
  ValueIndex values_;
};

}  // namespace spc
