// Structural and value statistics of a sparse matrix.
//
// These drive the experiment methodology of the paper:
//  * the working-set model (§II-B) classifies matrices into the MS / ML
//    sets by ws against the aggregate L2 size;
//  * the column-delta distribution predicts CSR-DU compressibility (§IV);
//  * the total-to-unique value ratio (ttu) is CSR-VI's applicability
//    criterion, ttu > 5 (§VI-E).
#pragma once

#include <cstdint>

#include "spc/mm/triplets.hpp"
#include "spc/support/stats.hpp"
#include "spc/support/types.hpp"

namespace spc {

/// Byte-width classes for column deltas, matching CSR-DU unit types.
enum class DeltaClass : std::uint8_t { kU8 = 0, kU16 = 1, kU32 = 2, kU64 = 3 };

/// Smallest class whose width can hold `delta`.
inline DeltaClass delta_class_for(std::uint64_t delta) {
  if (delta <= 0xFFULL) {
    return DeltaClass::kU8;
  }
  if (delta <= 0xFFFFULL) {
    return DeltaClass::kU16;
  }
  if (delta <= 0xFFFFFFFFULL) {
    return DeltaClass::kU32;
  }
  return DeltaClass::kU64;
}

/// Number of bytes a DeltaClass occupies.
inline std::uint32_t delta_class_bytes(DeltaClass c) {
  return 1u << static_cast<std::uint8_t>(c);
}

struct MatrixStats {
  index_t nrows = 0;
  index_t ncols = 0;
  usize_t nnz = 0;

  // Row structure.
  double row_len_mean = 0.0;
  double row_len_stddev = 0.0;
  index_t row_len_min = 0;
  index_t row_len_max = 0;
  index_t empty_rows = 0;

  // Column structure.
  usize_t bandwidth = 0;          ///< max |col - row| over non-zeros
  /// Histogram over DeltaClass of within-row column deltas (first element
  /// of a row contributes its absolute column index, per the CSR-DU ujmp).
  std::uint64_t delta_class_count[4] = {0, 0, 0, 0};

  // Value structure.
  usize_t unique_values = 0;
  double ttu = 0.0;               ///< nnz / unique_values

  /// Working-set size of CSR SpMV per the paper's formula:
  /// ws = nnz*(idx+val) + (nrows+1)*idx + (nrows+ncols)*val.
  usize_t working_set_bytes(std::uint32_t idx_bytes = 4,
                            std::uint32_t val_bytes = 8) const;

  /// Size of the three CSR arrays alone (no vectors).
  usize_t csr_bytes(std::uint32_t idx_bytes = 4,
                    std::uint32_t val_bytes = 8) const;

  /// Fraction of within-row deltas representable in one byte — the main
  /// predictor of CSR-DU compression.
  double u8_delta_fraction() const;
};

/// Computes all statistics in O(nnz). Requires sorted, combined
/// triplets.
MatrixStats compute_stats(const Triplets& t);

}  // namespace spc
