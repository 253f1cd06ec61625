// Structural and algebraic operations on sparse matrices.
//
// Substrate utilities the experiments, tests and downstream users need:
// transpose, scaling, addition, triangle extraction, symmetrization,
// equality, and Frobenius norms — all on the Triplets representation
// (formats are encode-only views).
#pragma once

#include <algorithm>
#include <vector>

#include "spc/mm/triplets.hpp"
#include "spc/mm/vector.hpp"
#include "spc/support/error.hpp"
#include "spc/support/types.hpp"

namespace spc {

/// Aᵀ.
Triplets transpose(const Triplets& t);

/// alpha * A (entries scaled; structure unchanged).
Triplets scale(const Triplets& t, value_t alpha);

/// A + B (dimensions must match; coincident entries sum).
Triplets add(const Triplets& a, const Triplets& b);

/// (A + Aᵀ) / 2 — the symmetrization used before RCM / SymCsr when a
/// matrix is only structurally symmetric.
Triplets symmetrize(const Triplets& t);

enum class Triangle { kLower, kUpper };

/// Strict or inclusive triangle extraction.
Triplets extract_triangle(const Triplets& t, Triangle which,
                          bool include_diagonal);

/// Exact equality (same dims, same sorted entries, bitwise values).
bool equal(const Triplets& a, const Triplets& b);

/// Frobenius norm sqrt(sum v^2).
double frobenius_norm(const Triplets& t);

/// Max |a - b| over the union of both structures.
double max_entry_diff(const Triplets& a, const Triplets& b);

/// Mirror symmetry of a matrix, see check_mirrors().
struct MirrorCheck {
  bool pattern = false;  ///< square, and every (r, c) has a stored (c, r)
  bool values = false;   ///< pattern, and eq holds on every mirrored pair
};

/// Checks mirror symmetry of sorted/combined triplets in one pass: each
/// strictly lower entry (r, c) binary-searches row c for (c, r), and the
/// two triangles must hold equally many entries. `eq(lower, upper)`
/// decides value equality, so each caller keeps its own (numeric `==`
/// for the symmetric formats, bit patterns for the tuner's features).
template <typename Eq>
MirrorCheck check_mirrors(const Triplets& t, Eq eq) {
  if (t.nrows() != t.ncols()) {
    return {};
  }
  SPC_CHECK_MSG(t.is_sorted_unique(),
                "check_mirrors requires sorted/combined triplets");
  const std::vector<Entry>& es = t.entries();
  std::vector<usize_t> row_at(static_cast<std::size_t>(t.nrows()) + 1, 0);
  for (const Entry& e : es) {
    ++row_at[e.row + 1];
  }
  for (index_t r = 0; r < t.nrows(); ++r) {
    row_at[r + 1] += row_at[r];
  }
  usize_t lower = 0;
  usize_t upper = 0;
  bool values = true;
  for (const Entry& e : es) {
    if (e.col >= e.row) {
      upper += e.col > e.row ? 1 : 0;
      continue;
    }
    ++lower;
    const auto first = es.begin() + row_at[e.col];
    const auto last = es.begin() + row_at[e.col + 1];
    const auto m = std::lower_bound(
        first, last, e.row,
        [](const Entry& a, index_t col) { return a.col < col; });
    if (m == last || m->col != e.row) {
      return {};
    }
    values = values && eq(e.val, m->val);
  }
  if (lower != upper) {
    return {};
  }
  return {true, values};
}

/// Builds triplets from a dense row-major array (zeros skipped) — mostly
/// a test/tooling convenience.
Triplets from_dense(const value_t* data, index_t nrows, index_t ncols);

/// Expands to a dense row-major vector of nrows*ncols entries.
Vector to_dense(const Triplets& t);

}  // namespace spc
