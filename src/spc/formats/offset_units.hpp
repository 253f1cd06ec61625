// Offset units — the execution layout of CSR-DU and CSR-DU-VI.
//
// The ctl stream (csr_du.hpp) stores each element's column as a delta
// from the element before it, so a kernel reading it cannot load x for
// one element before it has added up every delta ahead of it in the
// unit. Offset units keep the ctl stream's unit structure — one width
// class per unit, at most du.max_unit elements, never spanning a row,
// the NR/RJMP row bookkeeping — but store every column relative to one
// fixed base, the unit's first column (frame of reference):
//
//   unit := uflags(1B) usize(1B) [rskip:varint] base:u32
//           off[usize-1] in the class width (u8/u16/u32), off = col - base
//
// The uflags bits are the ctl stream's (class, RJMP, NR). A unit's
// class is the class of its largest offset; the row segmentation is the
// ctl encoder's (du_units.hpp), with each element classed by its offset
// from the unit's first element instead of by its delta. No element
// waits for another, so one scalar kernel decodes every unit class at
// every ISA tier and sums each row in element order, like CSR.
//
// SpmvInstance builds one of these per worker straight from the sorted
// triplets; the ctl stream remains the storage format (.spcm, the paper's
// byte counts, the class-level kernels).
#pragma once

#include <cstdint>
#include <vector>

#include "spc/formats/csr_du.hpp"
#include "spc/mm/triplets.hpp"
#include "spc/mm/value_census.hpp"
#include "spc/support/aligned.hpp"
#include "spc/support/types.hpp"

namespace spc {

/// Offset-unit stream of one row range, plus its values when it carries
/// them (CSR-DU); OffsetUnitsVi holds one without values.
class OffsetUnits {
 public:
  OffsetUnits() = default;

  /// Encodes rows [row_begin, row_end) of sorted triplets as a standalone
  /// (row_end - row_begin) x ncols matrix, like CsrDu::from_rows(): the
  /// first unit's rskip counts from the range's first row, so decoding
  /// from row_state = row_begin - 1 yields absolute rows.
  static OffsetUnits from_rows(const Triplets& t, index_t row_begin,
                               index_t row_end, const CsrDuOptions& opts,
                               bool keep_values = true);

  index_t nrows() const { return nrows_; }
  index_t ncols() const { return ncols_; }
  usize_t nnz() const { return nnz_; }

  const aligned_vector<std::uint8_t>& units() const { return units_; }
  const aligned_vector<value_t>& values() const { return values_; }

  /// Matrix data size: offset units + numerical values.
  usize_t bytes() const {
    return units_.size() + values_.size() * sizeof(value_t);
  }

  /// Units per offset class, counted as the encoder emitted them.
  const CsrDu::UnitHistogram& histogram() const { return hist_; }

  /// The whole stream as one slice. Slices are CsrDu::Slice views, with
  /// ctl/ctl_end delimiting offset units.
  CsrDu::Slice full() const;

  /// The slices of every consecutive row range bounds[i]..bounds[i+1],
  /// in one scan — anchored exactly as CsrDu::slices() anchors them.
  std::vector<CsrDu::Slice> slices(const std::vector<index_t>& bounds) const;

  /// Decoded view of one unit (tests and inspectors).
  struct Unit {
    std::uint8_t uflags = 0;
    std::uint32_t usize = 0;
    std::uint64_t rskip = 0;
    std::uint32_t base = 0;
    std::vector<std::uint32_t> offsets;  ///< usize-1 offsets from base
  };
  std::vector<Unit> decode_units() const;

 private:
  index_t nrows_ = 0;
  index_t ncols_ = 0;
  usize_t nnz_ = 0;
  aligned_vector<std::uint8_t> units_;
  aligned_vector<value_t> values_;
  CsrDu::UnitHistogram hist_;
};

/// CSR-DU-VI's execution layout: offset units plus the value index
/// CsrDuVi stores (val_ind/vals_unique).
class OffsetUnitsVi {
 public:
  OffsetUnitsVi() = default;

  /// Rows [row_begin, row_end) with value indices into `values`, which
  /// must be row_major_values() of the same triplets.
  static OffsetUnitsVi from_rows(const Triplets& t, index_t row_begin,
                                 index_t row_end, const CsrDuOptions& opts,
                                 const ValueTable& values);

  index_t nrows() const { return du_.nrows(); }
  index_t ncols() const { return du_.ncols(); }
  usize_t nnz() const { return du_.nnz(); }

  /// Index side: the offset units (no values array).
  const OffsetUnits& du() const { return du_; }
  const CsrDu::UnitHistogram& histogram() const { return du_.histogram(); }
  /// Value side: val_ind and vals_unique, in decode order.
  const ValueIndex& value_index() const { return values_; }

  /// Matrix data size: offset units + val_ind + vals_unique.
  usize_t bytes() const { return du_.bytes() + values_.bytes(); }

 private:
  OffsetUnits du_;
  ValueIndex values_;
};

}  // namespace spc
