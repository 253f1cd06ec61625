#include "spc/spmv/kernels.hpp"

#include <algorithm>
#include <cstring>

#include "spc/support/varint.hpp"

namespace spc {

namespace {

// Unaligned little-endian loads for the ucis arrays.
inline std::uint32_t load_u16(const std::uint8_t* p) {
  std::uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

void spmv(const Coo& m, const value_t* x, value_t* y) {
  std::fill(y, y + m.nrows(), 0.0);
  const index_t* const __restrict rows = m.rows().data();
  const index_t* const __restrict cols = m.cols().data();
  const value_t* const __restrict values = m.values().data();
  const usize_t nnz = m.nnz();
  for (usize_t k = 0; k < nnz; ++k) {
    y[rows[k]] += values[k] * x[cols[k]];
  }
}

void spmv(const Csc& m, const value_t* x, value_t* y) {
  std::fill(y, y + m.nrows(), 0.0);
  const index_t* const __restrict col_ptr = m.col_ptr().data();
  const index_t* const __restrict row_ind = m.row_ind().data();
  const value_t* const __restrict values = m.values().data();
  const index_t ncols = m.ncols();
  for (index_t c = 0; c < ncols; ++c) {
    const value_t xc = x[c];
    const index_t end = col_ptr[c + 1];
    for (index_t j = col_ptr[c]; j < end; ++j) {
      y[row_ind[j]] += values[j] * xc;
    }
  }
}

void spmv_bcsr_raw(index_t block_rows, index_t block_cols, index_t nrows,
                   index_t ncols, const index_t* block_row_ptr,
                   const index_t* block_col, const value_t* values,
                   const value_t* x, value_t* y, index_t block_row_begin,
                   index_t block_row_end) {
  const index_t br = block_rows;
  const index_t bc = block_cols;
  const usize_t block_elems = static_cast<usize_t>(br) * bc;
  const index_t* const __restrict brp = block_row_ptr;
  const index_t* const __restrict bcol = block_col;
  const value_t* const __restrict vals = values;

  value_t acc[8];
  for (index_t brow = block_row_begin; brow < block_row_end; ++brow) {
    const index_t row0 = brow * br;
    const index_t live_rows = std::min<index_t>(br, nrows - row0);
    for (index_t lr = 0; lr < live_rows; ++lr) {
      acc[lr] = 0.0;
    }
    const index_t bend = brp[brow + 1];
    for (index_t b = brp[brow]; b < bend; ++b) {
      const value_t* const blk = vals + static_cast<usize_t>(b) * block_elems;
      const index_t col0 = bcol[b];
      const index_t live_cols = std::min<index_t>(bc, ncols - col0);
      // Edge blocks (ragged right/bottom) use the clamped loop bounds; the
      // padding slots hold zeros but x/y must not be read out of range.
      for (index_t lr = 0; lr < live_rows; ++lr) {
        value_t a = 0.0;
        const value_t* const brow_vals = blk + static_cast<usize_t>(lr) * bc;
        for (index_t lc = 0; lc < live_cols; ++lc) {
          a += brow_vals[lc] * x[col0 + lc];
        }
        acc[lr] += a;
      }
    }
    for (index_t lr = 0; lr < live_rows; ++lr) {
      y[row0 + lr] = acc[lr];
    }
  }
}

void spmv(const Bcsr& m, const value_t* x, value_t* y) {
  spmv_bcsr_raw(m.block_rows(), m.block_cols(), m.nrows(), m.ncols(),
                m.block_row_ptr().data(), m.block_col().data(),
                m.values().data(), x, y, 0, m.nblock_rows());
}

void spmv_ell_raw(index_t width, const index_t* col_ind,
                  const value_t* values, const value_t* x, value_t* y,
                  index_t row_begin, index_t row_end) {
  const index_t* const __restrict ci = col_ind;
  const value_t* const __restrict vv = values;
  for (index_t r = row_begin; r < row_end; ++r) {
    const usize_t base = static_cast<usize_t>(r) * width;
    value_t acc = 0.0;
    for (index_t k = 0; k < width; ++k) {
      acc += vv[base + k] * x[ci[base + k]];
    }
    y[r] = acc;
  }
}

void spmv(const Ell& m, const value_t* x, value_t* y) {
  spmv_ell_raw(m.width(), m.col_ind().data(), m.values().data(), x, y, 0,
               m.nrows());
}

void spmv_dia_range(const Dia& m, const value_t* x, value_t* y,
                    index_t row_begin, index_t row_end) {
  std::fill(y + row_begin, y + row_end, 0.0);
  const value_t* const __restrict values = m.values().data();
  const index_t nrows = m.nrows();
  const std::int64_t ncols = m.ncols();
  for (std::size_t d = 0; d < m.ndiags(); ++d) {
    const std::int64_t off = m.offsets()[d];
    // Rows where the diagonal stays inside the matrix and the range:
    // 0 <= r + off < ncols. The upper clamp binds for every offset on a
    // tall matrix (nrows > ncols), not just the super-diagonals.
    const std::int64_t rlo = std::max<std::int64_t>(row_begin, -off);
    const std::int64_t rhi = std::min<std::int64_t>(row_end, ncols - off);
    const value_t* const diag = values + d * static_cast<usize_t>(nrows);
    for (std::int64_t r = rlo; r < rhi; ++r) {
      y[r] += diag[r] * x[r + off];
    }
  }
}

void spmv(const Dia& m, const value_t* x, value_t* y) {
  spmv_dia_range(m, x, y, 0, m.nrows());
}

void spmv(const Jds& m, const value_t* x, value_t* y) {
  std::fill(y, y + m.nrows(), 0.0);
  const index_t* const __restrict perm = m.perm().data();
  const index_t* const __restrict jd_ptr = m.jd_ptr().data();
  const index_t* const __restrict col_ind = m.col_ind().data();
  const value_t* const __restrict values = m.values().data();
  const index_t njd = m.njdiags();
  for (index_t j = 0; j < njd; ++j) {
    const index_t len = jd_ptr[j + 1] - jd_ptr[j];
    for (index_t i = 0; i < len; ++i) {
      const usize_t k = static_cast<usize_t>(jd_ptr[j]) + i;
      y[perm[i]] += values[k] * x[col_ind[k]];
    }
  }
}

void spmv(const CsrDu::Slice& s, const value_t* x, value_t* y) {
  const std::uint8_t* p = s.ctl;
  const std::uint8_t* const end = s.ctl_end;
  const value_t* __restrict v = s.values;
  std::int64_t row = s.row_state;
  const std::int64_t row_begin = s.row_begin;
  std::uint64_t x_idx = 0;
  value_t acc = 0.0;
  bool active = false;

  while (p < end) {
    const std::uint8_t uflags = *p++;
    std::uint32_t usize = *p++;
    if (uflags & kDuNewRow) {
      if (active) {
        y[row] = acc;
      }
      std::uint64_t extra = 0;
      if (uflags & kDuRJmp) {
        extra = varint_decode(p);
      }
      // Rows skipped over are empty; zero the ones this slice owns.
      for (std::int64_t r = std::max(row + 1, row_begin);
           r < row + 1 + static_cast<std::int64_t>(extra); ++r) {
        y[r] = 0.0;
      }
      row += 1 + static_cast<std::int64_t>(extra);
      x_idx = 0;
      acc = 0.0;
      active = true;
    }
    x_idx += varint_decode(p);

    switch (static_cast<DeltaClass>(uflags & kDuClassMask)) {
      case DeltaClass::kU8:
        acc += (*v++) * x[x_idx];
        --usize;
        // Unrolled by 4: the index chain (x_idx += delta) is the loop's
        // serial dependency; resolving four indices before the loads
        // lets the x gathers overlap. Accumulation order is unchanged
        // (one `acc +=` per element, in element order), so results stay
        // bit-identical to the scalar loop and to CSR.
        while (usize >= 4) {
          const std::uint64_t i0 = x_idx + p[0];
          const std::uint64_t i1 = i0 + p[1];
          const std::uint64_t i2 = i1 + p[2];
          const std::uint64_t i3 = i2 + p[3];
          acc += v[0] * x[i0];
          acc += v[1] * x[i1];
          acc += v[2] * x[i2];
          acc += v[3] * x[i3];
          x_idx = i3;
          p += 4;
          v += 4;
          usize -= 4;
        }
        while (usize-- != 0) {
          x_idx += *p++;
          acc += (*v++) * x[x_idx];
        }
        break;
      case DeltaClass::kU16:
        acc += (*v++) * x[x_idx];
        while (--usize != 0) {
          x_idx += load_u16(p);
          p += 2;
          acc += (*v++) * x[x_idx];
        }
        break;
      case DeltaClass::kU32:
        acc += (*v++) * x[x_idx];
        while (--usize != 0) {
          x_idx += load_u32(p);
          p += 4;
          acc += (*v++) * x[x_idx];
        }
        break;
      case DeltaClass::kU64:
        acc += (*v++) * x[x_idx];
        while (--usize != 0) {
          x_idx += load_u64(p);
          p += 8;
          acc += (*v++) * x[x_idx];
        }
        break;
    }
  }
  if (active) {
    y[row] = acc;
  }
  // Trailing empty rows owned by this slice.
  for (std::int64_t r = std::max(row + 1, row_begin);
       r < static_cast<std::int64_t>(s.row_end); ++r) {
    y[r] = 0.0;
  }
}

void spmv_csr_vi_range(const CsrVi& m, const value_t* x, value_t* y,
                       index_t row_begin, index_t row_end) {
  const ValueIndex& vi = m.value_index();
  vi.visit([&](const auto* ind) {
    spmv_csr_vi_range(m.row_ptr().data(), m.col_ind().data(), ind,
                      vi.table().data(), x, y, row_begin, row_end);
  });
}

void spmv(const SymCsr& m, const value_t* x, value_t* y) {
  spmv_sym_csr_win(m.row_ptr().data(), m.col_ind().data(),
                   m.values().data(), m.diag().data(), x, y,
                   /*win=*/nullptr, /*win_begin=*/0, /*direct_begin=*/0, 0,
                   m.nrows());
}

void spmv(const SymCsrVi& m, const value_t* x, value_t* y) {
  m.value_index().visit(
      [&](const auto* val_ind, const auto* diag_ind) {
        spmv_sym_csr_vi_win(m.row_ptr().data(), m.col_ind().data(), val_ind,
                            diag_ind, m.value_index().table().data(), x, y,
                            /*win=*/nullptr, /*win_begin=*/0,
                            /*direct_begin=*/0, 0, m.nrows());
      },
      m.diag_index());
}

template <typename IndT>
void spmv_du_vi_slice(const CsrDu::Slice& s,
                      const IndT* __restrict val_ind,
                      const value_t* __restrict uniq, const value_t* x,
                      value_t* y) {
  const std::uint8_t* p = s.ctl;
  const std::uint8_t* const end = s.ctl_end;
  usize_t k = s.val_offset;
  std::int64_t row = s.row_state;
  const std::int64_t row_begin = s.row_begin;
  std::uint64_t x_idx = 0;
  value_t acc = 0.0;
  bool active = false;

  while (p < end) {
    const std::uint8_t uflags = *p++;
    std::uint32_t usize = *p++;
    if (uflags & kDuNewRow) {
      if (active) {
        y[row] = acc;
      }
      std::uint64_t extra = 0;
      if (uflags & kDuRJmp) {
        extra = varint_decode(p);
      }
      for (std::int64_t r = std::max(row + 1, row_begin);
           r < row + 1 + static_cast<std::int64_t>(extra); ++r) {
        y[r] = 0.0;
      }
      row += 1 + static_cast<std::int64_t>(extra);
      x_idx = 0;
      acc = 0.0;
      active = true;
    }
    x_idx += varint_decode(p);

    switch (static_cast<DeltaClass>(uflags & kDuClassMask)) {
      case DeltaClass::kU8:
        acc += uniq[val_ind[k++]] * x[x_idx];
        while (--usize != 0) {
          x_idx += *p++;
          acc += uniq[val_ind[k++]] * x[x_idx];
        }
        break;
      case DeltaClass::kU16:
        acc += uniq[val_ind[k++]] * x[x_idx];
        while (--usize != 0) {
          x_idx += load_u16(p);
          p += 2;
          acc += uniq[val_ind[k++]] * x[x_idx];
        }
        break;
      case DeltaClass::kU32:
        acc += uniq[val_ind[k++]] * x[x_idx];
        while (--usize != 0) {
          x_idx += load_u32(p);
          p += 4;
          acc += uniq[val_ind[k++]] * x[x_idx];
        }
        break;
      case DeltaClass::kU64:
        acc += uniq[val_ind[k++]] * x[x_idx];
        while (--usize != 0) {
          x_idx += load_u64(p);
          p += 8;
          acc += uniq[val_ind[k++]] * x[x_idx];
        }
        break;
    }
  }
  if (active) {
    y[row] = acc;
  }
  for (std::int64_t r = std::max(row + 1, row_begin);
       r < static_cast<std::int64_t>(s.row_end); ++r) {
    y[r] = 0.0;
  }
}

template void spmv_du_vi_slice(const CsrDu::Slice&, const std::uint8_t*,
                               const value_t*, const value_t*, value_t*);
template void spmv_du_vi_slice(const CsrDu::Slice&, const std::uint16_t*,
                               const value_t*, const value_t*, value_t*);
template void spmv_du_vi_slice(const CsrDu::Slice&, const std::uint32_t*,
                               const value_t*, const value_t*, value_t*);

void spmv(const CsrDuVi& m, const CsrDu::Slice& s, const value_t* x,
          value_t* y) {
  const ValueIndex& vi = m.value_index();
  vi.visit([&](const auto* ind) {
    spmv_du_vi_slice(s, ind, vi.table().data(), x, y);
  });
}

namespace {

// Where the k-th element of a unit gets its coefficient: from the
// slice's value stream (CSR-DU) or through the value-index table
// (CSR-DU-VI).
struct StreamedValues {
  const value_t* __restrict v;
  value_t operator[](usize_t k) const { return v[k]; }
  void advance(usize_t n) { v += n; }
};

template <typename IndT>
struct IndexedValues {
  const IndT* __restrict ind;
  const value_t* __restrict uniq;
  value_t operator[](usize_t k) const { return uniq[ind[k]]; }
  void advance(usize_t n) { ind += n; }
};

// The offset-unit decode loop. Each element's x index is the unit's base
// plus its own offset, so the loads of a unit are independent; the sum
// keeps one `acc +=` per element in element order.
template <typename Values>
void offset_units_impl(const CsrDu::Slice& s, Values v, const value_t* x,
                       value_t* y) {
  const std::uint8_t* p = s.ctl;
  const std::uint8_t* const end = s.ctl_end;
  std::int64_t row = s.row_state;
  const std::int64_t row_begin = s.row_begin;
  value_t acc = 0.0;
  bool active = false;

  while (p < end) {
    const std::uint8_t uflags = p[0];
    const std::uint32_t usize = p[1];
    p += 2;
    if (uflags & kDuNewRow) {
      if (active) {
        y[row] = acc;
      }
      if (uflags & kDuRJmp) {
        // Rows skipped over are empty; zero the ones this slice owns.
        const auto extra = static_cast<std::int64_t>(varint_decode(p));
        for (std::int64_t r = std::max(row + 1, row_begin);
             r < row + 1 + extra; ++r) {
          y[r] = 0.0;
        }
        row += extra;
      }
      ++row;
      acc = 0.0;
      active = true;
    }
    const value_t* const xb = x + load_u32(p);
    p += 4;
    acc += v[0] * xb[0];
    switch (uflags & kDuClassMask) {
      case static_cast<std::uint8_t>(DeltaClass::kU8):
        for (std::uint32_t k = 1; k < usize; ++k) {
          acc += v[k] * xb[p[k - 1]];
        }
        p += usize - 1;
        break;
      case static_cast<std::uint8_t>(DeltaClass::kU16):
        for (std::uint32_t k = 1; k < usize; ++k) {
          acc += v[k] * xb[load_u16(p + 2 * (k - 1))];
        }
        p += 2 * (usize - 1);
        break;
      case static_cast<std::uint8_t>(DeltaClass::kU32):
        for (std::uint32_t k = 1; k < usize; ++k) {
          acc += v[k] * xb[load_u32(p + 4 * (k - 1))];
        }
        p += 4 * (usize - 1);
        break;
    }
    v.advance(usize);
  }
  if (active) {
    y[row] = acc;
  }
  // Trailing empty rows owned by this slice.
  for (std::int64_t r = std::max(row + 1, row_begin);
       r < static_cast<std::int64_t>(s.row_end); ++r) {
    y[r] = 0.0;
  }
}

}  // namespace

void spmv_offset_units(const CsrDu::Slice& s, const value_t* x,
                       value_t* y) {
  offset_units_impl(s, StreamedValues{s.values}, x, y);
}

template <typename IndT>
void spmv_offset_units_vi(const CsrDu::Slice& s, const IndT* val_ind,
                          const value_t* vals_unique, const value_t* x,
                          value_t* y) {
  offset_units_impl(
      s, IndexedValues<IndT>{val_ind + s.val_offset, vals_unique}, x, y);
}

template void spmv_offset_units_vi(const CsrDu::Slice&, const std::uint8_t*,
                                   const value_t*, const value_t*, value_t*);
template void spmv_offset_units_vi(const CsrDu::Slice&, const std::uint16_t*,
                                   const value_t*, const value_t*, value_t*);
template void spmv_offset_units_vi(const CsrDu::Slice&, const std::uint32_t*,
                                   const value_t*, const value_t*, value_t*);

void spmv(const Dcsr::Slice& s, const value_t* x, value_t* y) {
  const std::uint8_t* p = s.cmds;
  const std::uint8_t* const end = s.cmds_end;
  const value_t* __restrict v = s.values;
  std::int64_t row = s.row_state;
  const std::int64_t row_begin = s.row_begin;
  std::uint64_t x_idx = 0;
  value_t acc = 0.0;
  bool active = false;

  while (p < end) {
    const std::uint8_t cmd = *p++;
    const std::uint8_t op = cmd >> 6;
    const std::uint8_t arg = cmd & 0x3F;
    switch (op) {
      case kDcsrOpDeltas8:
        for (std::uint8_t i = 0; i < arg; ++i) {
          x_idx += *p++;
          acc += (*v++) * x[x_idx];
        }
        break;
      case kDcsrOpDelta16:
        x_idx += load_u16(p);
        p += 2;
        acc += (*v++) * x[x_idx];
        break;
      case kDcsrOpDelta32:
        x_idx += load_u32(p);
        p += 4;
        acc += (*v++) * x[x_idx];
        break;
      case kDcsrOpNewRow: {
        if (active) {
          y[row] = acc;
          active = false;
        }
        // arg-1 of the advanced rows are empty; zero the owned ones.
        // (Chained NEWROWs make every advanced row except the final one
        // empty, which this handles per command.)
        for (std::int64_t r = std::max(row + 1, row_begin);
             r < row + arg; ++r) {
          y[r] = 0.0;
        }
        row += arg;
        x_idx = 0;
        acc = 0.0;
        active = true;
        break;
      }
    }
  }
  if (active) {
    y[row] = acc;
  }
  for (std::int64_t r = std::max(row + 1, row_begin);
       r < static_cast<std::int64_t>(s.row_end); ++r) {
    y[r] = 0.0;
  }
}

}  // namespace spc
