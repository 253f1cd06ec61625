#include "spc/tune/cost.hpp"

#include <algorithm>

#include "spc/formats/csr_vi.hpp"

namespace spc::tune {

namespace {

// Per-element byte constants of the paper's setup (§VI-A): 4-byte
// indices, 8-byte values.
constexpr double kIdx = 4.0;
constexpr double kIdx16 = 2.0;
constexpr double kVal = 8.0;

// Head of an offset unit, the DU formats' execution layout: uflags,
// usize and the u32 base column (formats/offset_units.hpp).
constexpr double kDuUnitHeadBytes = 6.0;

struct Common {
  double nnz = 0.0;
  double rp = 0.0;       // row-pointer bytes per nnz
  double vec = 0.0;      // amortized x + y vector bytes per nnz
  double du_idx = 0.0;   // offset-unit bytes per nnz
  double vi_w = 0.0;     // CSR-VI value-index width
  double vi_table = 0.0; // amortized unique-value table bytes per nnz
};

Common common_terms(const TuneFeatures& f) {
  Common c;
  const MatrixStats& s = f.stats;
  if (s.nnz == 0) {
    return c;
  }
  c.nnz = static_cast<double>(s.nnz);
  c.rp = kIdx * (static_cast<double>(s.nrows) + 1.0) / c.nnz;
  c.vec = kVal * (static_cast<double>(s.nrows) + s.ncols) / c.nnz;

  // Units cannot span rows, so the mean length of a non-empty row caps
  // the elements a unit head amortizes over (and the encoder caps units
  // at 255). Every other element is an offset from its unit's base, in
  // the width of its row's column span.
  const double rows = static_cast<double>(s.nrows - s.empty_rows);
  const double elems_per_unit =
      std::clamp(rows > 0.0 ? c.nnz / rows : 1.0, 1.0, 255.0);
  double offset_bytes = 0.0;
  for (int i = 0; i < 4; ++i) {
    offset_bytes += f.span_share[i] * static_cast<double>(1u << i);
  }
  c.du_idx = kDuUnitHeadBytes / elems_per_unit +
             offset_bytes * (1.0 - 1.0 / elems_per_unit);

  c.vi_w = static_cast<double>(vi_width_for(s.unique_values));
  c.vi_table = kVal * static_cast<double>(s.unique_values) / c.nnz;
  return c;
}

}  // namespace

CandidatePrediction predict_format(const TuneFeatures& f, Format fmt) {
  const Common c = common_terms(f);
  const MatrixStats& s = f.stats;
  CandidatePrediction p;
  p.format = fmt;
  if (s.nnz == 0) {
    p.applicable = fmt == Format::kCsr;
    p.why = p.applicable ? "" : "empty matrix";
    return p;
  }
  switch (fmt) {
    case Format::kCsr:
      p.matrix_bytes_per_nnz = kIdx + kVal + c.rp;
      break;
    case Format::kCsr16:
      if (s.ncols > 65536) {
        p.applicable = false;
        p.why = "ncols exceeds u16";
      }
      p.matrix_bytes_per_nnz = kIdx16 + kVal + c.rp;
      break;
    case Format::kCsrDu:
      p.matrix_bytes_per_nnz = kVal + c.du_idx;
      break;
    case Format::kCsrVi:
      if (s.ttu <= 5.0) {
        p.applicable = false;
        p.why = "ttu <= 5 (the §VI-E criterion)";
      }
      p.matrix_bytes_per_nnz = kIdx + c.vi_w + c.rp + c.vi_table;
      break;
    case Format::kCsrDuVi:
      if (s.ttu <= 5.0) {
        p.applicable = false;
        p.why = "ttu <= 5 (the §VI-E criterion)";
      }
      p.matrix_bytes_per_nnz = c.du_idx + c.vi_w + c.vi_table;
      break;
    case Format::kSymCsr:
    case Format::kSymCsrVi: {
      // SSS stores only the strict lower triangle plus a dense diagonal;
      // every lower element serves two non-zeros, so the per-nnz stream
      // roughly halves on matrices with a sparse diagonal. The window
      // reduction's extra traffic is bounded (sym_window_frac) and left
      // to the probe.
      if (!f.structurally_symmetric || !f.value_symmetric) {
        p.applicable = false;
        p.why = "matrix is not numerically symmetric";
        p.matrix_bytes_per_nnz = kIdx + kVal + c.rp;
        break;
      }
      const double n = static_cast<double>(s.nrows);
      const double nnz_lower =
          (c.nnz - static_cast<double>(f.ndiag)) / 2.0;
      if (fmt == Format::kSymCsr) {
        p.matrix_bytes_per_nnz =
            c.rp + (nnz_lower * (kIdx + kVal) + n * kVal) / c.nnz;
      } else {
        if (s.ttu <= 5.0) {
          p.applicable = false;
          p.why = "ttu <= 5 (the §VI-E criterion)";
        }
        p.matrix_bytes_per_nnz =
            c.rp + (nnz_lower * (kIdx + c.vi_w) + n * c.vi_w) / c.nnz +
            c.vi_table;
      }
      break;
    }
  }
  p.streamed_bytes_per_nnz = p.matrix_bytes_per_nnz + c.vec;
  return p;
}

std::vector<CandidatePrediction> predict_candidates(const TuneFeatures& f) {
  std::vector<CandidatePrediction> out;
  for (const Format fmt :
       {Format::kCsr, Format::kCsr16, Format::kCsrDu, Format::kCsrVi,
        Format::kCsrDuVi, Format::kSymCsr, Format::kSymCsrVi}) {
    out.push_back(predict_format(f, fmt));
  }
  return out;
}

std::vector<Format> prune_candidates(const TuneFeatures& f,
                                     std::size_t max_candidates) {
  std::vector<CandidatePrediction> preds = predict_candidates(f);
  preds.erase(std::remove_if(preds.begin(), preds.end(),
                             [](const CandidatePrediction& p) {
                               return !p.applicable;
                             }),
              preds.end());
  std::stable_sort(preds.begin(), preds.end(),
                   [](const CandidatePrediction& a,
                      const CandidatePrediction& b) {
                     return a.streamed_bytes_per_nnz <
                            b.streamed_bytes_per_nnz;
                   });
  std::vector<Format> out;
  const std::size_t cap = std::max<std::size_t>(max_candidates, 1);
  for (const CandidatePrediction& p : preds) {
    if (out.size() >= cap) {
      break;
    }
    out.push_back(p.format);
  }
  // CSR is the safety baseline: the probe must always measure it so a
  // mispredicting model can never auto-select a regression unprobed.
  if (std::find(out.begin(), out.end(), Format::kCsr) == out.end()) {
    if (out.size() >= cap) {
      out.back() = Format::kCsr;
    } else {
      out.push_back(Format::kCsr);
    }
  }
  if (out.empty()) {
    out.push_back(Format::kCsr);
  }
  return out;
}

}  // namespace spc::tune
