// Dense vector type used as SpMV input/output, plus construction helpers.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

#include "spc/support/aligned.hpp"
#include "spc/support/rng.hpp"
#include "spc/support/types.hpp"

namespace spc {

/// Dense vector; cache-line aligned because it is streamed by hot kernels.
using Vector = aligned_vector<value_t>;

/// Vector of n uniform random values in [lo, hi) — the paper times SpMV
/// "with randomly created x" vectors (§VI-A).
inline Vector random_vector(index_t n, Rng& rng, value_t lo = 0.0,
                            value_t hi = 1.0) {
  Vector v(n);
  for (auto& x : v) {
    x = rng.next_double(lo, hi);
  }
  return v;
}

/// All-`fill` vector.
inline Vector const_vector(index_t n, value_t fill = 0.0) {
  return Vector(n, fill);
}

/// Max-norm distance between two vectors (for kernel verification). A
/// NaN difference (a NaN on either side, or two equal infinities)
/// counts as infinitely far, so a NaN-initialised y with an unwritten
/// row never compares equal to a reference.
inline double max_abs_diff(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) {
    return std::numeric_limits<double>::infinity();
  }
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::fabs(a[i] - b[i]);
    if (std::isnan(d)) {
      return std::numeric_limits<double>::infinity();
    }
    m = std::max(m, d);
  }
  return m;
}

/// Relative max-norm error of `got` against reference `ref`.
inline double rel_error(const Vector& ref, const Vector& got) {
  if (ref.size() != got.size()) {
    return std::numeric_limits<double>::infinity();
  }
  double scale = 1.0;
  for (const auto& x : ref) {
    scale = std::max(scale, std::fabs(x));
  }
  return max_abs_diff(ref, got) / scale;
}

}  // namespace spc
