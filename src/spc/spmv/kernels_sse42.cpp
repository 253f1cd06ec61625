// SSE4.2 dispatch tier — 128-bit (2-wide) kernels.
//
// Compiled with -msse4.2 (see CMakeLists.txt); only ever *called* after
// runtime detection confirms the CPU supports it. SSE has no gather, so
// the x loads are assembled with _mm_set_pd from scalar-resolved column
// indices; the win over scalar comes from pairing the value loads and
// multiplies and from the two independent accumulator chains. There is
// no DU decoder here: CSR-DU and CSR-DU-VI run as offset units through
// one scalar kernel at every tier (formats/offset_units.hpp).
//
// Accumulation order: lane partials reassociate the per-row sum, so
// results may differ from the scalar tier by normal FP reassociation
// error (the dispatch fuzz test bounds it).
#include <nmmintrin.h>

#include "spc/spmv/dispatch_tables.hpp"
#include "spc/spmv/kernels.hpp"

namespace spc::detail {

namespace {

inline double hsum128(__m128d v) {
  const __m128d hi = _mm_unpackhi_pd(v, v);
  return _mm_cvtsd_f64(_mm_add_sd(v, hi));
}

template <typename ColT>
void csr_sse42(const index_t* __restrict row_ptr,
               const ColT* __restrict col_ind,
               const value_t* __restrict values, const value_t* x,
               value_t* y, index_t row_begin, index_t row_end) {
  for (index_t i = row_begin; i < row_end; ++i) {
    index_t j = row_ptr[i];
    const index_t end = row_ptr[i + 1];
    __m128d acc0 = _mm_setzero_pd();
    __m128d acc1 = _mm_setzero_pd();
    for (; j + 4 <= end; j += 4) {
      __builtin_prefetch(col_ind + j + 64, 0, 1);
      __builtin_prefetch(values + j + 32, 0, 1);
      const __m128d x0 = _mm_set_pd(x[col_ind[j + 1]], x[col_ind[j]]);
      const __m128d x1 = _mm_set_pd(x[col_ind[j + 3]], x[col_ind[j + 2]]);
      acc0 = _mm_add_pd(acc0, _mm_mul_pd(_mm_loadu_pd(values + j), x0));
      acc1 = _mm_add_pd(acc1, _mm_mul_pd(_mm_loadu_pd(values + j + 2), x1));
    }
    value_t acc = hsum128(_mm_add_pd(acc0, acc1));
    for (; j < end; ++j) {
      acc += values[j] * x[col_ind[j]];
    }
    y[i] = acc;
  }
}

template <typename IndT>
void csr_vi_sse42(const index_t* __restrict row_ptr,
                  const std::uint32_t* __restrict col_ind,
                  const IndT* __restrict val_ind,
                  const value_t* __restrict vals_unique, const value_t* x,
                  value_t* y, index_t row_begin, index_t row_end) {
  for (index_t i = row_begin; i < row_end; ++i) {
    index_t j = row_ptr[i];
    const index_t end = row_ptr[i + 1];
    __m128d acc0 = _mm_setzero_pd();
    __m128d acc1 = _mm_setzero_pd();
    for (; j + 4 <= end; j += 4) {
      __builtin_prefetch(col_ind + j + 64, 0, 1);
      __builtin_prefetch(val_ind + j + 64, 0, 1);
      const __m128d v0 = _mm_set_pd(vals_unique[val_ind[j + 1]],
                                    vals_unique[val_ind[j]]);
      const __m128d v1 = _mm_set_pd(vals_unique[val_ind[j + 3]],
                                    vals_unique[val_ind[j + 2]]);
      const __m128d x0 = _mm_set_pd(x[col_ind[j + 1]], x[col_ind[j]]);
      const __m128d x1 = _mm_set_pd(x[col_ind[j + 3]], x[col_ind[j + 2]]);
      acc0 = _mm_add_pd(acc0, _mm_mul_pd(v0, x0));
      acc1 = _mm_add_pd(acc1, _mm_mul_pd(v1, x1));
    }
    value_t acc = hsum128(_mm_add_pd(acc0, acc1));
    for (; j < end; ++j) {
      acc += vals_unique[val_ind[j]] * x[col_ind[j]];
    }
    y[i] = acc;
  }
}

// The symmetric kernels pair the dot side (lower-triangle
// multiply-accumulate) like csr_sse42; the scatter side (mirrored upper
// triangle) stays scalar — it is a chain of read-modify-write stores to
// data-dependent addresses with possible lane collisions. Long rows run
// the 2-wide dot sweep then a scalar scatter sweep over the same
// (L1-hot) span; short rows take one combined scalar pass.

void sym_csr_sse42(const index_t* __restrict row_ptr,
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
    if (end - j < 4) {
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
    __m128d acc0 = _mm_setzero_pd();
    __m128d acc1 = _mm_setzero_pd();
    for (; j + 4 <= end; j += 4) {
      __builtin_prefetch(col_ind + j + 64, 0, 1);
      __builtin_prefetch(values + j + 32, 0, 1);
      const __m128d x0 = _mm_set_pd(x[col_ind[j + 1]], x[col_ind[j]]);
      const __m128d x1 = _mm_set_pd(x[col_ind[j + 3]], x[col_ind[j + 2]]);
      acc0 = _mm_add_pd(acc0, _mm_mul_pd(_mm_loadu_pd(values + j), x0));
      acc1 = _mm_add_pd(acc1, _mm_mul_pd(_mm_loadu_pd(values + j + 2), x1));
    }
    acc += hsum128(_mm_add_pd(acc0, acc1));
    for (; j < end; ++j) {
      acc += values[j] * x[col_ind[j]];
    }
    for (index_t s = j0; s < end; ++s) {
      const index_t c = col_ind[s];
      const value_t v = values[s];
      if (c >= direct_begin) {
        y[c] += v * xr;
      } else {
        win[c - win_begin] += v * xr;
      }
    }
    y[r] = acc;
  }
}

template <typename IndT>
void sym_csr_vi_sse42(const index_t* __restrict row_ptr,
                      const index_t* __restrict col_ind,
                      const IndT* __restrict val_ind,
                      const IndT* __restrict diag_ind,
                      const value_t* __restrict vals_unique,
                      const value_t* x, value_t* y,
                      value_t* __restrict win, index_t win_begin,
                      index_t direct_begin, index_t row_begin,
                      index_t row_end) {
  for (index_t r = row_begin; r < row_end; ++r) {
    index_t j = row_ptr[r];
    const index_t end = row_ptr[r + 1];
    const value_t xr = x[r];
    value_t acc = vals_unique[diag_ind[r]] * xr;
    if (end - j < 4) {
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
    __m128d acc0 = _mm_setzero_pd();
    __m128d acc1 = _mm_setzero_pd();
    for (; j + 4 <= end; j += 4) {
      __builtin_prefetch(col_ind + j + 64, 0, 1);
      __builtin_prefetch(val_ind + j + 64, 0, 1);
      const __m128d v0 = _mm_set_pd(vals_unique[val_ind[j + 1]],
                                    vals_unique[val_ind[j]]);
      const __m128d v1 = _mm_set_pd(vals_unique[val_ind[j + 3]],
                                    vals_unique[val_ind[j + 2]]);
      const __m128d x0 = _mm_set_pd(x[col_ind[j + 1]], x[col_ind[j]]);
      const __m128d x1 = _mm_set_pd(x[col_ind[j + 3]], x[col_ind[j + 2]]);
      acc0 = _mm_add_pd(acc0, _mm_mul_pd(v0, x0));
      acc1 = _mm_add_pd(acc1, _mm_mul_pd(v1, x1));
    }
    acc += hsum128(_mm_add_pd(acc0, acc1));
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

const KernelTable& sse42_table() {
  static const KernelTable table = [] {
    KernelTable t;
    t.tier = IsaTier::kSse42;
    t.csr = &csr_sse42<std::uint32_t>;
    t.csr16 = &csr_sse42<std::uint16_t>;
    t.csr_vi = {&csr_vi_sse42<std::uint8_t>,
                &csr_vi_sse42<std::uint16_t>,
                &csr_vi_sse42<std::uint32_t>};
    t.sym_csr = &sym_csr_sse42;
    t.sym_csr_vi = {&sym_csr_vi_sse42<std::uint8_t>,
                    &sym_csr_vi_sse42<std::uint16_t>,
                    &sym_csr_vi_sse42<std::uint32_t>};
    return t;
  }();
  return table;
}

}  // namespace spc::detail
