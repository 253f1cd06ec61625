// Ablation: column tiling — stripe width x format x threads.
//
// Column tiling (spmv/tiling.hpp) promises two coupled effects, and
// this ablation measures both axes per cell:
//  * compression: stripe-local column deltas are bounded by the stripe
//    width, so narrower stripes push CSR-DU units into the u8 class —
//    the "u8-unit%" column, read from the instance's decode-side unit
//    histogram (stripe-local for tiled instances);
//  * locality: each stripe's x gathers land in a cache-resident window —
//    the ns/nnz movement vs the untiled baseline of the same
//    (matrix, format, threads) cell.
//
// The sweep forces each stripe width (SPC_TILE semantics), with "off" as
// the untiled baseline and an "auto" row showing what the planner
// resolved for the cell (its stripe count, or its decline reason), so the
// ablation reads whether auto picked the best width. The summary
// aggregates geomean ns/nnz per (format, tile) at the highest thread
// count and reports each width vs untiled for each format. On
// graph-class matrices the u8-unit% should rise strictly as the stripe
// narrows; banded/fem rows barely move (their deltas are already short)
// and mostly pay segment overhead — which is exactly why the auto
// planner declines them ("x band fits cache").
//
// JSONL (under SPC_METRICS) carries "tiling" / "stripe_bytes";
// profile_report groups by (format, isa, numa, schedule, tiling,
// threads), and the ledger key splits on the same fields.
//
// Usage: ablation_tiling [--smoke]
//   --smoke: a few matrices, few iterations — CI wiring check, not a
//   measurement.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "spc/bench/harness.hpp"
#include "spc/support/strutil.hpp"

namespace spc {
namespace {

struct CellStat {
  double log_ns_sum = 0.0;  ///< for the geo-mean of ns/nnz
  std::size_t n = 0;
};

std::string u8_unit_pct(const SpmvInstance& inst) {
  const CsrDu::UnitHistogram* h = inst.du_histogram();
  if (h == nullptr || h->units == 0) {
    return "-";
  }
  return fmt_fixed(100.0 * static_cast<double>(h->units_per_class[0]) /
                       static_cast<double>(h->units),
                   1);
}

// The stripe count when tiled, else why the plan declined ("off" for the
// untiled baseline).
std::string resolved_tiling(const SpmvInstance& inst) {
  return inst.tiling_active() ? std::to_string(inst.tile_stripes())
                              : std::string(inst.tile_plan().decline_reason);
}

void run(bool smoke) {
  // The sweep sets tiling programmatically; a stray SPC_TILE in the
  // environment would override every cell to one value.
  ::unsetenv("SPC_TILE");

  BenchConfig cfg = BenchConfig::from_env();
  if (smoke) {
    cfg.iterations = 8;
    cfg.warmup = 1;
    cfg.max_matrices = cfg.max_matrices ? cfg.max_matrices : 3;
    cfg.threads = {1};
  }
  std::cout << "=== Ablation: column tiling ===\n[" << cfg.describe()
            << (smoke ? ", smoke" : "") << "]\n";

  struct Width {
    const char* label;
    TileConfig tile;
  };
  // "off" is the untiled baseline each cell normalizes against, "auto"
  // the planner's choice; then widest to narrowest so each row's
  // u8-unit% trend reads top-down.
  const Width widths[] = {
      {"off", {TileMode::kOff, 0}},
      {"auto", {TileMode::kAuto, 0}},
      {"256k", {TileMode::kForced, 256u << 10}},
      {"64k", {TileMode::kForced, 64u << 10}},
      {"16k", {TileMode::kForced, 16u << 10}},
      {"4k", {TileMode::kForced, 4u << 10}},
  };
  const Format formats[] = {Format::kCsr, Format::kCsrDu, Format::kCsrDuVi};

  std::size_t max_threads = 1;
  for (const std::size_t n : cfg.threads) {
    max_threads = std::max(max_threads, n);
  }

  TextTable table({"matrix", "cls", "format", "tile", "threads", "MFLOPS",
                   "vs untiled", "u8-unit%", "stripes/declined", "bytes"});
  // (format, tile) at max_threads -> aggregate for the summary. The
  // width index keeps the sweep order in the map.
  std::map<std::pair<std::string, std::size_t>, CellStat> by_cell;
  std::vector<std::vector<std::string>> csv_rows;

  for_each_matrix(cfg, [&](MatrixCase& mc) {
    for (const Format fmt : formats) {
      for (const std::size_t n : cfg.threads) {
        double mflops_untiled = 0.0;
        for (std::size_t w = 0; w < std::size(widths); ++w) {
          InstanceOptions opts;
          opts.pin_threads = cfg.pin_threads;
          opts.tiling = widths[w].tile;
          SpmvInstance inst(mc.mat, fmt, n, opts);
          RunMetrics m = time_spmv_metrics(inst, cfg.iterations, cfg.warmup);
          if (widths[w].tile.mode == TileMode::kOff) {
            mflops_untiled = m.mflops;
          }
          const std::string u8pct = u8_unit_pct(inst);
          const std::string resolved = resolved_tiling(inst);
          table.add_row(
              {mc.name, mc.cls, format_name(fmt), widths[w].label,
               std::to_string(n), fmt_fixed(m.mflops, 1),
               mflops_untiled > 0.0
                   ? fmt_fixed(m.mflops / mflops_untiled, 2)
                   : "-",
               u8pct, resolved, human_bytes(inst.matrix_bytes())});
          csv_rows.push_back(
              {mc.name, mc.cls, format_name(fmt), widths[w].label,
               std::to_string(n), fmt_fixed(m.mflops, 1),
               mflops_untiled > 0.0
                   ? fmt_fixed(m.mflops / mflops_untiled, 3)
                   : "",
               u8pct, resolved, std::to_string(inst.matrix_bytes())});
          emit_metrics_record("ablation_tiling", mc, inst, m, 0.0, {});

          if (n == max_threads) {
            const double nnz_total = static_cast<double>(inst.nnz()) *
                                     static_cast<double>(cfg.iterations);
            if (nnz_total > 0.0 && m.seconds > 0.0) {
              CellStat& c = by_cell[{format_name(fmt), w}];
              c.log_ns_sum += std::log(m.seconds * 1e9 / nnz_total);
              ++c.n;
            }
          }
        }
      }
    }
  });
  table.print(std::cout);

  TextTable summary(
      {"format", "tile", "cells", "geomean ns/nnz", "vs untiled"});
  for (const Format fmt : formats) {
    const std::string fname = format_name(fmt);
    double untiled_geo = 0.0;
    for (std::size_t w = 0; w < std::size(widths); ++w) {
      const auto it = by_cell.find({fname, w});
      if (it == by_cell.end() || it->second.n == 0) {
        continue;
      }
      const CellStat& c = it->second;
      const double geo =
          std::exp(c.log_ns_sum / static_cast<double>(c.n));
      if (widths[w].tile.mode == TileMode::kOff) {
        untiled_geo = geo;
      }
      summary.add_row({fname, widths[w].label, std::to_string(c.n),
                       fmt_fixed(geo, 3),
                       untiled_geo > 0.0 ? fmt_fixed(untiled_geo / geo, 2)
                                         : "-"});
    }
  }
  std::cout << "\nper-(format, tile) aggregate at " << max_threads
            << " thread(s):\n";
  summary.print(std::cout);

  write_csv("ablation_tiling.csv",
            {"matrix", "cls", "format", "tile", "threads", "mflops",
             "speedup_vs_untiled", "u8_unit_pct", "resolved",
             "matrix_bytes"},
            csv_rows);
  std::cout
      << "\ndata: ablation_tiling.csv\nnote: \"u8-unit%\" is the share "
         "of CSR-DU ctl units in the one-byte delta class of the "
         "instance's decode-side histogram (stripe-local when tiled; "
         "RLE units classify by their stride); \"vs untiled\" > 1 means "
         "the tiled layout is faster; \"stripes/declined\" is the stripe "
         "count, or why the plan declined (the auto row shows the "
         "planner's choice). Forced widths bypass the auto planner — "
         "matrices whose x, or whose rows' x band, already fits cache "
         "are expected to lose here; the planner exists to decline "
         "them.\n";
}

}  // namespace
}  // namespace spc

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::cerr << "usage: ablation_tiling [--smoke]\n";
      return 2;
    }
  }
  spc::run(smoke);
  return 0;
}
