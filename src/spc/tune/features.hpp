// Feature extraction for the per-matrix autotuner.
//
// Kourtis et al.'s results (and the broader format-selection literature)
// show the winning format is a function of a handful of structural and
// value properties: the column-delta distribution drives CSR-DU, the
// total-to-unique value ratio drives CSR-VI (§VI-E's ttu > 5 criterion),
// and row-length/row-span shape decides whether decode overhead can hide
// behind memory stalls at all.
// TuneFeatures packages exactly those inputs for the cost model
// (cost.hpp), plus a content fingerprint that keys the persistent
// tuning cache (cache.hpp).
#pragma once

#include <string>

#include "spc/mm/stats.hpp"
#include "spc/mm/triplets.hpp"

namespace spc::tune {

struct TuneFeatures {
  MatrixStats stats;
  /// Share of each DeltaClass among all column deltas (sums to 1 when
  /// nnz > 0). Index matches DeltaClass / CSR-DU unit byte widths.
  double delta_share[4] = {0.0, 0.0, 0.0, 0.0};
  /// nnz-weighted mean column span of a row (bandedness).
  double mean_row_span = 0.0;
  /// Share of non-zeros in rows whose column span (last column minus
  /// first) needs each DeltaClass: the offset width of that row's units
  /// in the instance's offset-unit layout (formats/offset_units.hpp).
  double span_share[4] = {0.0, 0.0, 0.0, 0.0};
  /// Coefficient of variation of row lengths (stddev / mean): high
  /// values mean ragged rows, where per-row overheads dominate.
  double row_cv = 0.0;
  /// Square matrix whose pattern equals its transpose's.
  bool structurally_symmetric = false;
  /// Structurally symmetric with bitwise-equal mirrored values — the
  /// precondition for the SSS symmetric formats (sym-csr, sym-csr-vi).
  bool value_symmetric = false;
  /// Number of stored diagonal entries; the symmetric cost model needs
  /// it to size the strict lower triangle ((nnz - ndiag) / 2).
  std::uint64_t ndiag = 0;
  /// 16-hex content hash — see matrix_fingerprint().
  std::string fingerprint;
};

/// 16-hex hash over the canonical word stream: dimensions, nnz, then
/// every entry's (row, col, value-bits) in sorted order, one
/// multiply-xorshift step per 64-bit word. Because
/// Triplets::sort_and_combine canonicalizes the entry order, two
/// matrices assembled from the same coordinates in any insertion order
/// hash identically; any change to a dimension, a coordinate, or a
/// value's bit pattern changes the hash. Requires sorted/combined
/// triplets (as every encoder here does).
std::string matrix_fingerprint(const Triplets& t);

/// Computes all features in O(nnz log max row length). Requires
/// sorted/combined triplets.
TuneFeatures extract_features(const Triplets& t);

}  // namespace spc::tune
