// Transparent per-format cost model and candidate pruning.
//
// SpMV on matrices past the cache capacity is memory-bound (§II), so a
// format's expected speed is, to first order, the bytes it streams per
// non-zero: encoded matrix bytes plus the amortized row-pointer, x and y
// traffic of the §II-B working-set formula. The model below predicts
// that figure per candidate format from TuneFeatures alone — every term
// is a closed-form function of tabulated features (docs/TUNING.md lists
// the formulas), never a measurement — and the pruner keeps only the few
// candidates whose predicted stream is competitive. The empirical probe
// (tuner.hpp) then settles the survivors; the model's job is to keep
// that probe short, not to be the final word. bench/working_set_report
// prints predicted vs measured bytes/nnz so the model's error stays
// visible.
#pragma once

#include <cstddef>
#include <vector>

#include "spc/spmv/instance.hpp"
#include "spc/tune/features.hpp"

namespace spc::tune {

struct CandidatePrediction {
  Format format = Format::kCsr;
  /// False when a structural precondition fails (e.g. ttu below the
  /// CSR-VI criterion); `why` then holds the pruning rationale.
  bool applicable = true;
  const char* why = "";
  /// Encoded matrix bytes per non-zero (row pointers included).
  double matrix_bytes_per_nnz = 0.0;
  /// matrix_bytes_per_nnz + amortized x/y vector traffic — the §II-B
  /// streamed working set per non-zero.
  double streamed_bytes_per_nnz = 0.0;
};

/// Predictions for the whole candidate pool (csr, csr16, csr-du,
/// csr-vi, csr-du-vi, sym-csr, sym-csr-vi), applicable or not, in pool
/// order. The symmetric pair is gated on numeric symmetry
/// (structure and values), so asymmetric matrices never probe them.
std::vector<CandidatePrediction> predict_candidates(const TuneFeatures& f);

/// The prediction for one format of the pool (applicable or not).
CandidatePrediction predict_format(const TuneFeatures& f, Format fmt);

/// Applicable candidates ordered by predicted streamed bytes (smallest
/// first), capped at `max_candidates`. CSR is always kept — it is the
/// baseline auto must never lose to, so the probe always measures it.
/// An empty matrix yields {kCsr}.
std::vector<Format> prune_candidates(const TuneFeatures& f,
                                     std::size_t max_candidates = 4);

}  // namespace spc::tune
