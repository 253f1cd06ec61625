// SpMV kernels (y = A*x) for every storage format.
//
// All kernels are *row-range* kernels: they compute y for rows
// [row_begin, row_end) only, which makes the serial case (full range) and
// the multithreaded row-partitioned case (per-thread ranges) share one
// implementation. Per the paper's code (§VI-A), each row's partial sum is
// kept in a register and written to y once at the end of the row.
//
// Kernels take raw pointers: the caller guarantees x has ncols elements
// and y has nrows elements.
#pragma once

#include <cstdint>

#include "spc/formats/bcsr.hpp"
#include "spc/formats/coo.hpp"
#include "spc/formats/csc.hpp"
#include "spc/formats/csr.hpp"
#include "spc/formats/csr_du.hpp"
#include "spc/formats/csr_du_vi.hpp"
#include "spc/formats/csr_vi.hpp"
#include "spc/formats/dcsr.hpp"
#include "spc/formats/dia.hpp"
#include "spc/formats/ell.hpp"
#include "spc/formats/jds.hpp"
#include "spc/formats/offset_units.hpp"
#include "spc/formats/sym_csr.hpp"
#include "spc/formats/sym_csr_vi.hpp"
#include "spc/support/types.hpp"

namespace spc {

// ---------------------------------------------------------------- CSR ---

/// The paper's baseline kernel (§II-B) with the register-accumulator
/// optimization (§VI-A), over raw arrays. This is the scalar-dispatch
/// entry and the oracle the vectorized tiers are fuzzed against.
template <typename ColIndexT>
void spmv_csr_raw(const index_t* __restrict row_ptr,
                  const ColIndexT* __restrict col_ind,
                  const value_t* __restrict values, const value_t* x,
                  value_t* y, index_t row_begin, index_t row_end) {
  for (index_t i = row_begin; i < row_end; ++i) {
    value_t acc = 0.0;
    const index_t end = row_ptr[i + 1];
    for (index_t j = row_ptr[i]; j < end; ++j) {
      acc += values[j] * x[col_ind[j]];
    }
    y[i] = acc;
  }
}

template <typename ColIndexT>
void spmv_csr_range(const BasicCsr<ColIndexT>& m, const value_t* x,
                    value_t* y, index_t row_begin, index_t row_end) {
  spmv_csr_raw(m.row_ptr().data(), m.col_ind().data(), m.values().data(),
               x, y, row_begin, row_end);
}

template <typename ColIndexT>
void spmv(const BasicCsr<ColIndexT>& m, const value_t* x, value_t* y) {
  spmv_csr_range(m, x, y, 0, m.nrows());
}

/// CSR kernel with software prefetch of the x gathers `Dist` elements
/// ahead — the classic mitigation for the irregular x accesses the
/// paper's related work (§III-A) targets with reordering/blocking.
/// Compared by bench/ablation_prefetch.
template <typename ColIndexT, int Dist = 16>
void spmv_csr_prefetch_range(const BasicCsr<ColIndexT>& m,
                             const value_t* x, value_t* y,
                             index_t row_begin, index_t row_end) {
  const index_t* const __restrict row_ptr = m.row_ptr().data();
  const ColIndexT* const __restrict col_ind = m.col_ind().data();
  const value_t* const __restrict values = m.values().data();
  const index_t nnz_end = row_ptr[row_end];
  for (index_t i = row_begin; i < row_end; ++i) {
    value_t acc = 0.0;
    const index_t end = row_ptr[i + 1];
    for (index_t j = row_ptr[i]; j < end; ++j) {
      if (j + Dist < nnz_end) {
        __builtin_prefetch(&x[col_ind[j + Dist]], 0, 1);
      }
      acc += values[j] * x[col_ind[j]];
    }
    y[i] = acc;
  }
}

// ---------------------------------------------------------------- COO ---

/// Serial COO kernel. Writes the full y (zero-fills first).
void spmv(const Coo& m, const value_t* x, value_t* y);

// ---------------------------------------------------------------- CSC ---

/// Serial CSC kernel: column-major scatter into y (zero-fills first).
void spmv(const Csc& m, const value_t* x, value_t* y);

// --------------------------------------------------------------- BCSR ---

/// Raw-array BCSR kernel over block rows [block_row_begin,
/// block_row_end), the common core of the serial and per-thread paths.
/// Handles ragged edge blocks. `block_row_ptr` is indexed with absolute
/// block rows; `block_col` and `values` are indexed by the values
/// `block_row_ptr` yields.
void spmv_bcsr_raw(index_t block_rows, index_t block_cols, index_t nrows,
                   index_t ncols, const index_t* block_row_ptr,
                   const index_t* block_col, const value_t* values,
                   const value_t* x, value_t* y, index_t block_row_begin,
                   index_t block_row_end);

void spmv(const Bcsr& m, const value_t* x, value_t* y);

// ---------------------------------------------------------------- ELL ---

/// Raw-array ELLPACK row-range kernel: fixed-width rows, branch-free
/// inner loop (padding contributes 0 * x[pad]). `col_ind` / `values` are
/// indexed with absolute positions r*width+k.
void spmv_ell_raw(index_t width, const index_t* col_ind,
                  const value_t* values, const value_t* x, value_t* y,
                  index_t row_begin, index_t row_end);

void spmv(const Ell& m, const value_t* x, value_t* y);

// ---------------------------------------------------------------- DIA ---

/// Row-range DIA kernel: zero-fills y[row_begin, row_end) then streams
/// each diagonal's overlap with the range.
void spmv_dia_range(const Dia& m, const value_t* x, value_t* y,
                    index_t row_begin, index_t row_end);

void spmv(const Dia& m, const value_t* x, value_t* y);

// ---------------------------------------------------------------- JDS ---

/// Serial JDS kernel: zero-fills y, then streams each jagged diagonal
/// over the permuted row positions.
void spmv(const Jds& m, const value_t* x, value_t* y);

// ------------------------------------------------------------- CSR-DU ---

/// Decodes and multiplies one ctl slice (Fig 3 of the paper, extended
/// with RJMP row skips). Writes y only for rows in the slice.
void spmv(const CsrDu::Slice& s, const value_t* x, value_t* y);

inline void spmv(const CsrDu& m, const value_t* x, value_t* y) {
  spmv(m.full(), x, y);
}

// ------------------------------------------------------------- CSR-VI ---

/// Row-range CSR-VI kernel (Fig 5 of the paper), templated on the value
/// index width.
template <typename IndT>
void spmv_csr_vi_range(const index_t* __restrict row_ptr,
                       const std::uint32_t* __restrict col_ind,
                       const IndT* __restrict val_ind,
                       const value_t* __restrict vals_unique,
                       const value_t* x, value_t* y, index_t row_begin,
                       index_t row_end) {
  for (index_t i = row_begin; i < row_end; ++i) {
    value_t acc = 0.0;
    const index_t end = row_ptr[i + 1];
    for (index_t j = row_ptr[i]; j < end; ++j) {
      acc += vals_unique[val_ind[j]] * x[col_ind[j]];
    }
    y[i] = acc;
  }
}

/// Width-dispatching row-range wrapper.
void spmv_csr_vi_range(const CsrVi& m, const value_t* x, value_t* y,
                       index_t row_begin, index_t row_end);

inline void spmv(const CsrVi& m, const value_t* x, value_t* y) {
  spmv_csr_vi_range(m, x, y, 0, m.nrows());
}

// ---------------------------------------------------------- CSR-DU-VI ---

/// DU slice decode with value indirection over raw arrays (the ctl
/// stream's reference kernel), instantiated for the u8/u16/u32
/// value-index widths; `s.val_offset` selects the starting position in
/// the val_ind stream.
template <typename IndT>
void spmv_du_vi_slice(const CsrDu::Slice& s, const IndT* val_ind,
                      const value_t* vals_unique, const value_t* x,
                      value_t* y);

/// DU slice decode with value indirection. `slice.val_offset` selects the
/// starting position in the val_ind stream.
void spmv(const CsrDuVi& m, const CsrDu::Slice& s, const value_t* x,
          value_t* y);

inline void spmv(const CsrDuVi& m, const value_t* x, value_t* y) {
  spmv(m, m.du().full(), x, y);
}

// ------------------------------------------------------- offset units ---

/// The execution kernel of CSR-DU (offset_units.hpp): decodes one slice
/// of offset units, each element's column its unit's base plus its own
/// offset, and sums each row in element order — CSR's order, so y is
/// bit-identical to the scalar CSR kernel. Bound at every ISA tier.
/// Writes y only for rows in the slice.
void spmv_offset_units(const CsrDu::Slice& s, const value_t* x,
                       value_t* y);

/// The CSR-DU-VI form, instantiated for the u8/u16/u32 value-index
/// widths; `s.val_offset` selects the starting position in val_ind.
template <typename IndT>
void spmv_offset_units_vi(const CsrDu::Slice& s, const IndT* val_ind,
                          const value_t* vals_unique, const value_t* x,
                          value_t* y);

// ------------------------------------------------------------ SYM-CSR ---

/// Unified symmetric row-range kernel (§III-C storage) with a bounded
/// conflict window (Batista et al., arXiv:1003.0952). For each row r in
/// [row_begin, row_end): acc = diag[r]*x[r] + the lower-triangle dot
/// product; the mirrored upper-triangle contribution v*x[r] scatters to
/// y[c] when c >= direct_begin, else into the compact window buffer at
/// win[c - win_begin]; the row ends with the *assignment* y[r] = acc.
/// The assignment is safe in every mode because scatters only target
/// columns strictly below the scattering row: no scatter ever lands on a
/// row of the range before that row's assignment.
///
/// Modes by parameterization (one kernel, bit-identical accumulation):
///   window  — direct_begin = row_begin: own-range scatters go straight
///             to the shared y, cross-thread conflicts into `win`.
///   private — direct_begin = 0, y = the thread's zeroed full-length
///             scratch: every scatter lands in the scratch; `win` is
///             never touched (may be nullptr).
///   serial  — direct_begin = 0 over the full range: scatters hit rows
///             already assigned, so y needs no pre-zeroing.
inline void spmv_sym_csr_win(const index_t* __restrict row_ptr,
                             const index_t* __restrict col_ind,
                             const value_t* __restrict values,
                             const value_t* __restrict diag,
                             const value_t* x, value_t* y,
                             value_t* __restrict win, index_t win_begin,
                             index_t direct_begin, index_t row_begin,
                             index_t row_end) {
  for (index_t r = row_begin; r < row_end; ++r) {
    value_t acc = diag[r] * x[r];
    const index_t end = row_ptr[r + 1];
    const value_t xr = x[r];
    for (index_t j = row_ptr[r]; j < end; ++j) {
      const index_t c = col_ind[j];
      const value_t v = values[j];
      acc += v * x[c];  // lower-triangle element (r, c)
      if (c >= direct_begin) {
        y[c] += v * xr;  // mirrored upper-triangle element (c, r)
      } else {
        win[c - win_begin] += v * xr;  // cross-thread conflict
      }
    }
    y[r] = acc;
  }
}

/// SymCsrVi variant: diagonal and lower-triangle values both resolve
/// through the shared unique-value table.
template <typename IndT>
void spmv_sym_csr_vi_win(const index_t* __restrict row_ptr,
                         const index_t* __restrict col_ind,
                         const IndT* __restrict val_ind,
                         const IndT* __restrict diag_ind,
                         const value_t* __restrict vals_unique,
                         const value_t* x, value_t* y,
                         value_t* __restrict win, index_t win_begin,
                         index_t direct_begin, index_t row_begin,
                         index_t row_end) {
  for (index_t r = row_begin; r < row_end; ++r) {
    value_t acc = vals_unique[diag_ind[r]] * x[r];
    const index_t end = row_ptr[r + 1];
    const value_t xr = x[r];
    for (index_t j = row_ptr[r]; j < end; ++j) {
      const index_t c = col_ind[j];
      const value_t v = vals_unique[val_ind[j]];
      acc += v * x[c];
      if (c >= direct_begin) {
        y[c] += v * xr;
      } else {
        win[c - win_begin] += v * xr;
      }
    }
    y[r] = acc;
  }
}

/// Serial kernels: y = A*x for the full (symmetric) matrix. No
/// zero-filling needed — every row is assigned and scatters only reach
/// already-assigned rows.
void spmv(const SymCsr& m, const value_t* x, value_t* y);
void spmv(const SymCsrVi& m, const value_t* x, value_t* y);

// --------------------------------------------------------------- DCSR ---

/// Command-stream decode of one slice (fine-grained; see dcsr.hpp).
void spmv(const Dcsr::Slice& s, const value_t* x, value_t* y);

inline void spmv(const Dcsr& m, const value_t* x, value_t* y) {
  spmv(m.full(), x, y);
}

}  // namespace spc
