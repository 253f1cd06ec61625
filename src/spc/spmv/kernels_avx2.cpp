// AVX2+FMA dispatch tier — 256-bit (4-wide) kernels.
//
// Compiled with -mavx2 -mfma (see CMakeLists.txt); only ever *called*
// after runtime detection confirms CPU and OS support. Three kernel
// families live here:
//
//  * CSR / CSR-16: 4-wide FMA accumulation with vgatherdpd x-gathers
//    from the column indices, two independent accumulator chains (8
//    elements per iteration) to hide the gather latency, and software
//    prefetch of the col_ind/values streams.
//  * CSR-VI: the same loop with a second vgatherdpd through the
//    value-index table (val_ind widened u8/u16→i32 with pmovzx).
//  * CSR-DU / CSR-DU-VI: specialized unit-class decode loops. The varint
//    header path stays scalar; payloads vectorize per unit class —
//    stride-1 RLE units (dense/sequential runs) become contiguous vector
//    loads of x, strided RLE units 64-bit gathers, and u8..u64 delta
//    units resolve four indices ahead of the loads (breaking the serial
//    delta chain) and gather.
//
// All kernels keep one vector accumulator plus a scalar accumulator per
// row and combine them at row end, so the per-row sum reassociates
// relative to the scalar tier — bounded by the dispatch fuzz test.
//
// Index-width caveat: gathers index with *signed* 32-bit lanes, so
// column/value indices must stay below 2^31. SpmvInstance::prepare()
// clamps such matrices to the scalar tier.
#include <immintrin.h>

#include <cstring>

#include "spc/spmv/dispatch_tables.hpp"
#include "spc/spmv/kernels.hpp"
#include "spc/support/varint.hpp"

namespace spc::detail {

namespace {

inline double hsum256(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
}

inline double hsum128(__m128d v) {
  return _mm_cvtsd_f64(_mm_add_sd(v, _mm_unpackhi_pd(v, v)));
}

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

// Four consecutive indices widened to one i32x4 gather-index vector.
inline __m128i load_idx4(const std::uint32_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline __m128i load_idx4(const std::uint16_t* p) {
  return _mm_cvtepu16_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
}

inline __m128i load_idx4(const std::uint8_t* p) {
  std::uint32_t packed;
  std::memcpy(&packed, p, sizeof(packed));
  return _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(packed)));
}

// ------------------------------------------------------------ CSR(-16) ---

// Rows shorter than this take a gather-free 128-bit loop instead of the
// 256-bit gather loop: a vgatherdpd + 256-bit horizontal reduce cannot
// amortize over a handful of elements (measured on short-row corpus
// matrices: the all-gather kernel lost up to 40% to scalar at ~5 nnz/row,
// while the 2-wide manual-load loop *beats* scalar there by breaking the
// serial FP accumulation chain).
constexpr index_t kVectorMinRow = 8;

template <typename ColT>
void csr_avx2(const index_t* __restrict row_ptr,
              const ColT* __restrict col_ind,
              const value_t* __restrict values, const value_t* x,
              value_t* y, index_t row_begin, index_t row_end) {
  for (index_t i = row_begin; i < row_end; ++i) {
    index_t j = row_ptr[i];
    const index_t end = row_ptr[i + 1];
    if (end - j < kVectorMinRow) {
      __m128d a = _mm_setzero_pd();
      for (; j + 2 <= end; j += 2) {
        const __m128d xv = _mm_set_pd(x[col_ind[j + 1]], x[col_ind[j]]);
        a = _mm_fmadd_pd(_mm_loadu_pd(values + j), xv, a);
      }
      value_t acc = hsum128(a);
      if (j < end) {
        acc += values[j] * x[col_ind[j]];
      }
      y[i] = acc;
      continue;
    }
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (; j + 8 <= end; j += 8) {
      __builtin_prefetch(col_ind + j + 64, 0, 1);
      __builtin_prefetch(values + j + 32, 0, 1);
      const __m256d x0 = _mm256_i32gather_pd(x, load_idx4(col_ind + j), 8);
      const __m256d x1 =
          _mm256_i32gather_pd(x, load_idx4(col_ind + j + 4), 8);
      acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(values + j), x0, acc0);
      acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(values + j + 4), x1, acc1);
    }
    for (; j + 4 <= end; j += 4) {
      const __m256d x0 = _mm256_i32gather_pd(x, load_idx4(col_ind + j), 8);
      acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(values + j), x0, acc0);
    }
    value_t acc = hsum256(_mm256_add_pd(acc0, acc1));
    for (; j < end; ++j) {
      acc += values[j] * x[col_ind[j]];
    }
    y[i] = acc;
  }
}

// -------------------------------------------------------------- CSR-VI ---

template <typename IndT>
void csr_vi_avx2(const index_t* __restrict row_ptr,
                 const std::uint32_t* __restrict col_ind,
                 const IndT* __restrict val_ind,
                 const value_t* __restrict vals_unique, const value_t* x,
                 value_t* y, index_t row_begin, index_t row_end) {
  for (index_t i = row_begin; i < row_end; ++i) {
    index_t j = row_ptr[i];
    const index_t end = row_ptr[i + 1];
    if (end - j < kVectorMinRow) {
      __m128d a = _mm_setzero_pd();
      for (; j + 2 <= end; j += 2) {
        const __m128d vv = _mm_set_pd(vals_unique[val_ind[j + 1]],
                                      vals_unique[val_ind[j]]);
        const __m128d xv = _mm_set_pd(x[col_ind[j + 1]], x[col_ind[j]]);
        a = _mm_fmadd_pd(vv, xv, a);
      }
      value_t acc = hsum128(a);
      if (j < end) {
        acc += vals_unique[val_ind[j]] * x[col_ind[j]];
      }
      y[i] = acc;
      continue;
    }
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (; j + 8 <= end; j += 8) {
      __builtin_prefetch(col_ind + j + 64, 0, 1);
      __builtin_prefetch(val_ind + j + 64, 0, 1);
      const __m256d v0 =
          _mm256_i32gather_pd(vals_unique, load_idx4(val_ind + j), 8);
      const __m256d v1 =
          _mm256_i32gather_pd(vals_unique, load_idx4(val_ind + j + 4), 8);
      const __m256d x0 = _mm256_i32gather_pd(x, load_idx4(col_ind + j), 8);
      const __m256d x1 =
          _mm256_i32gather_pd(x, load_idx4(col_ind + j + 4), 8);
      acc0 = _mm256_fmadd_pd(v0, x0, acc0);
      acc1 = _mm256_fmadd_pd(v1, x1, acc1);
    }
    for (; j + 4 <= end; j += 4) {
      const __m256d v0 =
          _mm256_i32gather_pd(vals_unique, load_idx4(val_ind + j), 8);
      const __m256d x0 = _mm256_i32gather_pd(x, load_idx4(col_ind + j), 8);
      acc0 = _mm256_fmadd_pd(v0, x0, acc0);
    }
    value_t acc = hsum256(_mm256_add_pd(acc0, acc1));
    for (; j < end; ++j) {
      acc += vals_unique[val_ind[j]] * x[col_ind[j]];
    }
    y[i] = acc;
  }
}

// ---------------------------------------------------- CSR-DU(-VI) decode --

// Value sources abstract where the k-th non-zero's coefficient comes
// from: directly from the slice's value stream (CSR-DU) or through the
// value-index table (CSR-DU-VI, vgatherdpd).
struct DirectValues {
  const value_t* __restrict v;
  __m256d load4(usize_t k) const { return _mm256_loadu_pd(v + k); }
  value_t load1(usize_t k) const { return v[k]; }
};

template <typename IndT>
struct IndirectValues {
  const IndT* __restrict ind;
  const value_t* __restrict uniq;
  __m256d load4(usize_t k) const {
    return _mm256_i32gather_pd(uniq, load_idx4(ind + k), 8);
  }
  value_t load1(usize_t k) const { return uniq[ind[k]]; }
};

// The unit-class decode loop. `k` indexes the value source and starts at
// 0 for DirectValues (whose pointer is pre-offset) or s.val_offset for
// IndirectValues. Mirrors the scalar decoder's row bookkeeping exactly;
// only the per-unit payload loops differ.
template <typename ValueSource>
void du_decode_avx2(const CsrDu::Slice& s, const ValueSource& vs, usize_t k,
                    const value_t* x, value_t* y) {
  const std::uint8_t* p = s.ctl;
  const std::uint8_t* const end = s.ctl_end;
  std::int64_t row = s.row_state;
  const std::int64_t row_begin = s.row_begin;
  std::uint64_t x_idx = 0;
  value_t acc = 0.0;
  __m256d vacc = _mm256_setzero_pd();
  bool active = false;

  while (p < end) {
    const std::uint8_t uflags = *p++;
    std::uint32_t usize = *p++;
    if (uflags & kDuNewRow) {
      if (active) {
        y[row] = acc + hsum256(vacc);
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
      vacc = _mm256_setzero_pd();
      active = true;
    }
    x_idx += varint_decode(p);

    if (uflags & kDuRle) {
      const std::uint64_t stride = varint_decode(p);
      const std::uint64_t idx = x_idx;
      std::uint32_t t = 0;
      if (stride == 1) {
        // Dense/sequential run: x is contiguous — plain vector loads.
        for (; t + 4 <= usize; t += 4) {
          vacc = _mm256_fmadd_pd(vs.load4(k + t),
                                 _mm256_loadu_pd(x + idx + t), vacc);
        }
      } else {
        // Constant-stride run: 64-bit strided gather.
        for (; t + 4 <= usize; t += 4) {
          const std::uint64_t i0 = idx + static_cast<std::uint64_t>(t) * stride;
          const __m256i iv = _mm256_set_epi64x(
              static_cast<long long>(i0 + 3 * stride),
              static_cast<long long>(i0 + 2 * stride),
              static_cast<long long>(i0 + stride),
              static_cast<long long>(i0));
          vacc = _mm256_fmadd_pd(vs.load4(k + t),
                                 _mm256_i64gather_pd(x, iv, 8), vacc);
        }
      }
      for (; t < usize; ++t) {
        acc += vs.load1(k + t) * x[idx + static_cast<std::uint64_t>(t) * stride];
      }
      k += usize;
      x_idx = idx + static_cast<std::uint64_t>(usize - 1) * stride;
      continue;
    }

    // Delta-class unit: first element sits at x_idx, the remaining
    // usize-1 deltas follow in the class width. Resolving four indices
    // before the loads breaks the serial delta chain per block.
    acc += vs.load1(k++) * x[x_idx];
    std::uint32_t rem = usize - 1;
    switch (static_cast<DeltaClass>(uflags & kDuClassMask)) {
      case DeltaClass::kU8:
        while (rem >= 4) {
          const std::uint64_t i0 = x_idx + p[0];
          const std::uint64_t i1 = i0 + p[1];
          const std::uint64_t i2 = i1 + p[2];
          const std::uint64_t i3 = i2 + p[3];
          const __m256i iv = _mm256_set_epi64x(
              static_cast<long long>(i3), static_cast<long long>(i2),
              static_cast<long long>(i1), static_cast<long long>(i0));
          vacc = _mm256_fmadd_pd(vs.load4(k),
                                 _mm256_i64gather_pd(x, iv, 8), vacc);
          x_idx = i3;
          p += 4;
          k += 4;
          rem -= 4;
        }
        while (rem-- != 0) {
          x_idx += *p++;
          acc += vs.load1(k++) * x[x_idx];
        }
        break;
      case DeltaClass::kU16:
        while (rem >= 4) {
          const std::uint64_t i0 = x_idx + load_u16(p);
          const std::uint64_t i1 = i0 + load_u16(p + 2);
          const std::uint64_t i2 = i1 + load_u16(p + 4);
          const std::uint64_t i3 = i2 + load_u16(p + 6);
          const __m256i iv = _mm256_set_epi64x(
              static_cast<long long>(i3), static_cast<long long>(i2),
              static_cast<long long>(i1), static_cast<long long>(i0));
          vacc = _mm256_fmadd_pd(vs.load4(k),
                                 _mm256_i64gather_pd(x, iv, 8), vacc);
          x_idx = i3;
          p += 8;
          k += 4;
          rem -= 4;
        }
        while (rem-- != 0) {
          x_idx += load_u16(p);
          p += 2;
          acc += vs.load1(k++) * x[x_idx];
        }
        break;
      case DeltaClass::kU32:
        while (rem >= 4) {
          const std::uint64_t i0 = x_idx + load_u32(p);
          const std::uint64_t i1 = i0 + load_u32(p + 4);
          const std::uint64_t i2 = i1 + load_u32(p + 8);
          const std::uint64_t i3 = i2 + load_u32(p + 12);
          const __m256i iv = _mm256_set_epi64x(
              static_cast<long long>(i3), static_cast<long long>(i2),
              static_cast<long long>(i1), static_cast<long long>(i0));
          vacc = _mm256_fmadd_pd(vs.load4(k),
                                 _mm256_i64gather_pd(x, iv, 8), vacc);
          x_idx = i3;
          p += 16;
          k += 4;
          rem -= 4;
        }
        while (rem-- != 0) {
          x_idx += load_u32(p);
          p += 4;
          acc += vs.load1(k++) * x[x_idx];
        }
        break;
      case DeltaClass::kU64:
        // u64 deltas are vanishingly rare (one unit per >4G column jump);
        // not worth a gather block.
        while (rem-- != 0) {
          x_idx += load_u64(p);
          p += 8;
          acc += vs.load1(k++) * x[x_idx];
        }
        break;
    }
  }
  if (active) {
    y[row] = acc + hsum256(vacc);
  }
  for (std::int64_t r = std::max(row + 1, row_begin);
       r < static_cast<std::int64_t>(s.row_end); ++r) {
    y[r] = 0.0;
  }
}

void du_avx2(const CsrDu::Slice& s, const value_t* x, value_t* y) {
  du_decode_avx2(s, DirectValues{s.values}, 0, x, y);
}

template <typename IndT>
void du_vi_avx2(const CsrDu::Slice& s, const IndT* val_ind,
                const value_t* vals_unique, const value_t* x, value_t* y) {
  du_decode_avx2(s, IndirectValues<IndT>{val_ind, vals_unique},
                 s.val_offset, x, y);
}

// ------------------------------------------------- symmetric (SSS) ------

// The symmetric kernels split each row into a dot side (the lower
// triangle's gather-multiply — same shape as csr_avx2) and a scatter
// side (the mirrored upper triangle's y[c]/win updates). Only the dot
// side vectorizes: the scatter is a chain of read-modify-write stores to
// data-dependent addresses, which AVX2 cannot express (no scatter
// instruction, and lanes may collide). Long rows run the 4-wide gather
// dot sweep then a scalar scatter sweep over the same (L1-hot) span;
// short rows take one combined scalar pass.

inline void sym_scatter(const index_t* __restrict col_ind,
                        const value_t* __restrict values, index_t j0,
                        index_t j1, value_t xr, value_t* y,
                        value_t* __restrict win, index_t win_begin,
                        index_t direct_begin) {
  for (index_t j = j0; j < j1; ++j) {
    const index_t c = col_ind[j];
    if (c >= direct_begin) {
      y[c] += values[j] * xr;
    } else {
      win[c - win_begin] += values[j] * xr;
    }
  }
}

void sym_csr_avx2(const index_t* __restrict row_ptr,
                  const index_t* __restrict col_ind,
                  const value_t* __restrict values,
                  const value_t* __restrict diag, const value_t* x,
                  value_t* y, value_t* __restrict win, index_t win_begin,
                  index_t direct_begin, index_t row_begin,
                  index_t row_end) {
  for (index_t r = row_begin; r < row_end; ++r) {
    index_t j = row_ptr[r];
    const index_t end = row_ptr[r + 1];
    const value_t xr = x[r];
    value_t acc = diag[r] * xr;
    if (end - j < kVectorMinRow) {
      for (; j < end; ++j) {
        const index_t c = col_ind[j];
        const value_t v = values[j];
        acc += v * x[c];
        if (c >= direct_begin) {
          y[c] += v * xr;
        } else {
          win[c - win_begin] += v * xr;
        }
      }
      y[r] = acc;
      continue;
    }
    const index_t j0 = j;
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (; j + 8 <= end; j += 8) {
      __builtin_prefetch(col_ind + j + 64, 0, 1);
      __builtin_prefetch(values + j + 32, 0, 1);
      const __m256d x0 = _mm256_i32gather_pd(x, load_idx4(col_ind + j), 8);
      const __m256d x1 =
          _mm256_i32gather_pd(x, load_idx4(col_ind + j + 4), 8);
      acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(values + j), x0, acc0);
      acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(values + j + 4), x1, acc1);
    }
    for (; j + 4 <= end; j += 4) {
      const __m256d x0 = _mm256_i32gather_pd(x, load_idx4(col_ind + j), 8);
      acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(values + j), x0, acc0);
    }
    acc += hsum256(_mm256_add_pd(acc0, acc1));
    for (; j < end; ++j) {
      acc += values[j] * x[col_ind[j]];
    }
    sym_scatter(col_ind, values, j0, end, xr, y, win, win_begin,
                direct_begin);
    y[r] = acc;
  }
}

template <typename IndT>
void sym_csr_vi_avx2(const index_t* __restrict row_ptr,
                     const index_t* __restrict col_ind,
                     const IndT* __restrict val_ind,
                     const IndT* __restrict diag_ind,
                     const value_t* __restrict vals_unique,
                     const value_t* x, value_t* y, value_t* __restrict win,
                     index_t win_begin, index_t direct_begin,
                     index_t row_begin, index_t row_end) {
  for (index_t r = row_begin; r < row_end; ++r) {
    index_t j = row_ptr[r];
    const index_t end = row_ptr[r + 1];
    const value_t xr = x[r];
    value_t acc = vals_unique[diag_ind[r]] * xr;
    if (end - j < kVectorMinRow) {
      for (; j < end; ++j) {
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
      continue;
    }
    const index_t j0 = j;
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (; j + 8 <= end; j += 8) {
      __builtin_prefetch(col_ind + j + 64, 0, 1);
      __builtin_prefetch(val_ind + j + 64, 0, 1);
      const __m256d v0 =
          _mm256_i32gather_pd(vals_unique, load_idx4(val_ind + j), 8);
      const __m256d v1 =
          _mm256_i32gather_pd(vals_unique, load_idx4(val_ind + j + 4), 8);
      const __m256d x0 = _mm256_i32gather_pd(x, load_idx4(col_ind + j), 8);
      const __m256d x1 =
          _mm256_i32gather_pd(x, load_idx4(col_ind + j + 4), 8);
      acc0 = _mm256_fmadd_pd(v0, x0, acc0);
      acc1 = _mm256_fmadd_pd(v1, x1, acc1);
    }
    for (; j + 4 <= end; j += 4) {
      const __m256d v0 =
          _mm256_i32gather_pd(vals_unique, load_idx4(val_ind + j), 8);
      const __m256d x0 = _mm256_i32gather_pd(x, load_idx4(col_ind + j), 8);
      acc0 = _mm256_fmadd_pd(v0, x0, acc0);
    }
    acc += hsum256(_mm256_add_pd(acc0, acc1));
    for (; j < end; ++j) {
      acc += vals_unique[val_ind[j]] * x[col_ind[j]];
    }
    for (index_t s = j0; s < end; ++s) {
      const index_t c = col_ind[s];
      const value_t v = vals_unique[val_ind[s]];
      if (c >= direct_begin) {
        y[c] += v * xr;
      } else {
        win[c - win_begin] += v * xr;
      }
    }
    y[r] = acc;
  }
}

}  // namespace

const KernelTable& avx2_table() {
  static const KernelTable table = [] {
    KernelTable t;
    t.tier = IsaTier::kAvx2;
    t.csr = &csr_avx2<std::uint32_t>;
    t.csr16 = &csr_avx2<std::uint16_t>;
    t.csr_vi_u8 = &csr_vi_avx2<std::uint8_t>;
    t.csr_vi_u16 = &csr_vi_avx2<std::uint16_t>;
    t.csr_vi_u32 = &csr_vi_avx2<std::uint32_t>;
    t.du = &du_avx2;
    t.du_vi_u8 = &du_vi_avx2<std::uint8_t>;
    t.du_vi_u16 = &du_vi_avx2<std::uint16_t>;
    t.du_vi_u32 = &du_vi_avx2<std::uint32_t>;
    t.sym_csr = &sym_csr_avx2;
    t.sym_csr_vi_u8 = &sym_csr_vi_avx2<std::uint8_t>;
    t.sym_csr_vi_u16 = &sym_csr_vi_avx2<std::uint16_t>;
    t.sym_csr_vi_u32 = &sym_csr_vi_avx2<std::uint32_t>;
    return t;
  }();
  return table;
}

}  // namespace spc::detail
