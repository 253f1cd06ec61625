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
//  * The symmetric formats' dot side (see below).
//
// There is no DU decoder here: CSR-DU and CSR-DU-VI run as offset units
// through one scalar kernel at every tier (formats/offset_units.hpp).
// 2-wide FMA pairs and 4-wide gathers over offset units were measured
// against it and did not win.
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
    t.csr_vi = {&csr_vi_avx2<std::uint8_t>,
                &csr_vi_avx2<std::uint16_t>,
                &csr_vi_avx2<std::uint32_t>};
    t.sym_csr = &sym_csr_avx2;
    t.sym_csr_vi = {&sym_csr_vi_avx2<std::uint8_t>,
                    &sym_csr_vi_avx2<std::uint16_t>,
                    &sym_csr_vi_avx2<std::uint32_t>};
    return t;
  }();
  return table;
}

}  // namespace spc::detail
