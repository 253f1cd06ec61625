// Ablation: autotuner quality — auto vs oracle-best vs always-CSR.
//
// The tuner's contract (tune/tuner.hpp) is two-sided: auto must track
// the oracle (the best pool format found by exhaustively measuring every
// candidate) and must never lose meaningfully to plain CSR, the default
// a user would otherwise run. This ablation measures both gaps per
// (matrix, threads) cell and geomeans them, then re-runs auto against
// the now-warm cache to verify the persistence contract: every warm
// selection must be a cache hit with probe_ns == 0.
//
// The tool owns its cache file (results/ablation_autotune_cache.jsonl)
// and truncates it on startup, so the first pass is always a genuine
// cold probe regardless of earlier runs.
//
// JSONL (under SPC_METRICS) carries the tuner provenance fields the
// harness reads off the instance — tuned / tune_source / probe_ns /
// cache_hit / matrix_fp — plus a "mode" extra (auto|oracle|csr|warm).
//
// Usage: ablation_autotune [--smoke] [--gate]
//   --smoke: few matrices, few iterations, short probes — CI wiring
//   check, not a measurement.
//   --gate: exit 1 unless geomean(auto/csr) >= 0.95 and the warm pass
//   was all cache hits — the CI regression gate for the tuner.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "spc/bench/harness.hpp"
#include "spc/support/stats.hpp"
#include "spc/support/strutil.hpp"
#include "spc/tune/tuner.hpp"

namespace spc {
namespace {

/// The tuner's candidate pool, measured exhaustively for the oracle.
const Format kPool[] = {Format::kCsr,   Format::kCsr16,  Format::kCsrDu,
                        Format::kCsrVi, Format::kCsrDuVi};

struct GeoMean {
  double log_sum = 0.0;
  std::size_t n = 0;
  void add(double v) {
    if (v > 0.0) {
      log_sum += std::log(v);
      ++n;
    }
  }
  double value() const {
    return n ? std::exp(log_sum / static_cast<double>(n)) : 0.0;
  }
};

int run(bool smoke, bool gate) {
  BenchConfig cfg = BenchConfig::from_env();
  tune::TuneOptions topts;
  topts.cache_path = "results/ablation_autotune_cache.jsonl";
  if (smoke) {
    // Enough iterations for a stable per-cell median — the gate compares
    // medians, and single-digit sample counts on cache-resident smoke
    // matrices swing by tens of percent call to call. The probe keeps
    // its default 3x4 shape: it is microseconds here and shrinking it
    // just makes auto's pick (and thus the gate) noisy.
    cfg.iterations = 16;
    cfg.warmup = 2;
    cfg.max_matrices = cfg.max_matrices ? cfg.max_matrices : 3;
    cfg.threads = {1, 2};
  }
  // Cold pass must actually probe: drop any cache left by earlier runs.
  std::remove(topts.cache_path.c_str());

  std::cout << "=== Ablation: autotuner (auto vs oracle vs csr) ===\n["
            << cfg.describe() << (smoke ? ", smoke" : "") << "]\n";

  TextTable table({"matrix", "cls", "threads", "auto", "source",
                   "probe_ms", "auto MFLOPS", "csr MFLOPS", "oracle",
                   "oracle MFLOPS", "vs csr", "vs oracle", "warm"});
  std::vector<std::vector<std::string>> csv_rows;
  GeoMean vs_csr, vs_oracle;
  std::size_t cells = 0, auto_is_oracle = 0;
  std::size_t warm_misses = 0, warm_probed = 0;

  for_each_matrix(cfg, [&](MatrixCase& mc) {
    for (const std::size_t n : cfg.threads) {
      InstanceOptions opts;
      opts.pin_threads = cfg.pin_threads;

      // 1. Cold auto: probe (first thread count) or cache hit on the
      //    cells the earlier thread counts of this matrix warmed.
      tune::TuneReport rep;
      SpmvInstance auto_inst =
          tune::auto_instance(mc.mat, n, opts, topts, &rep);
      const RunMetrics ma =
          time_spmv_metrics(auto_inst, cfg.iterations, cfg.warmup);
      emit_metrics_record("ablation_autotune", mc, auto_inst, ma, 0.0,
                          {{"mode", "auto"}});

      // 2. The exhaustive oracle over the candidate pool; CSR's own
      //    measurement doubles as the always-CSR baseline. All ratios
      //    use per-iteration *medians* — separate timing calls on
      //    cache-resident matrices drift by tens of percent in the
      //    mean, and the gate must not fail on that noise.
      const double auto_med = median(ma.sample_seconds);
      double csr_mflops = 0.0, csr_med = 0.0;
      double oracle_mflops = 0.0, oracle_med = 0.0;
      Format oracle_fmt = Format::kCsr;
      for (const Format f : kPool) {
        try {
          SpmvInstance inst(mc.mat, f, n, opts);
          const RunMetrics m =
              time_spmv_metrics(inst, cfg.iterations, cfg.warmup);
          emit_metrics_record("ablation_autotune", mc, inst, m, 0.0,
                              {{"mode", f == Format::kCsr ? "csr"
                                                          : "oracle"}});
          const double med = median(m.sample_seconds);
          if (f == Format::kCsr) {
            csr_mflops = m.mflops;
            csr_med = med;
          }
          if (med > 0.0 && (oracle_med == 0.0 || med < oracle_med)) {
            oracle_med = med;
            oracle_mflops = m.mflops;
            oracle_fmt = f;
          }
        } catch (const Error&) {
          // Pool format inapplicable here (e.g. csr16 column range).
        }
      }

      // 3. Warm auto: the cold pass stored this exact key, so this must
      //    be a pure cache hit that skips the probe entirely.
      tune::TuneReport warm;
      SpmvInstance warm_inst =
          tune::auto_instance(mc.mat, n, opts, topts, &warm);
      warm_misses += warm.cache_hit ? 0 : 1;
      warm_probed += warm.probe_ns == 0 ? 0 : 1;
      {
        const RunMetrics mw = time_spmv_metrics(warm_inst, 1, 0);
        emit_metrics_record("ablation_autotune", mc, warm_inst, mw, 0.0,
                            {{"mode", "warm"}});
      }

      // Time-domain median ratios: > 1 means auto's median iteration
      // was faster than the baseline's.
      const double r_csr = auto_med > 0.0 ? csr_med / auto_med : 0.0;
      const double r_oracle =
          auto_med > 0.0 ? oracle_med / auto_med : 0.0;
      vs_csr.add(r_csr);
      vs_oracle.add(r_oracle);
      ++cells;
      auto_is_oracle += auto_inst.format() == oracle_fmt ? 1 : 0;

      const std::string warm_cell =
          warm.cache_hit && warm.probe_ns == 0
              ? "hit"
              : (warm.cache_hit ? "hit+probe!" : "MISS");
      table.add_row({mc.name, mc.cls, std::to_string(n),
                     format_name(auto_inst.format()), rep.source,
                     fmt_fixed(static_cast<double>(rep.probe_ns) * 1e-6, 1),
                     fmt_fixed(ma.mflops, 1), fmt_fixed(csr_mflops, 1),
                     format_name(oracle_fmt), fmt_fixed(oracle_mflops, 1),
                     fmt_fixed(r_csr, 2), fmt_fixed(r_oracle, 2),
                     warm_cell});
      csv_rows.push_back(
          {mc.name, mc.cls, std::to_string(n),
           format_name(auto_inst.format()), rep.source,
           std::to_string(rep.probe_ns), fmt_fixed(ma.mflops, 1),
           fmt_fixed(csr_mflops, 1), format_name(oracle_fmt),
           fmt_fixed(oracle_mflops, 1), fmt_fixed(r_csr, 3),
           fmt_fixed(r_oracle, 3), warm_cell});
    }
  });
  table.print(std::cout);

  const double g_csr = vs_csr.value();
  const double g_oracle = vs_oracle.value();
  std::cout << "\nsummary over " << cells << " (matrix, threads) cells:\n"
            << "  geomean auto/csr:    " << fmt_fixed(g_csr, 3) << "\n"
            << "  geomean auto/oracle: " << fmt_fixed(g_oracle, 3) << "\n"
            << "  auto == oracle pick: " << auto_is_oracle << "/" << cells
            << "\n"
            << "  warm pass: " << (cells - warm_misses) << "/" << cells
            << " cache hits, " << warm_probed << " probed\n";

  write_csv("ablation_autotune.csv",
            {"matrix", "cls", "threads", "auto_format", "source",
             "probe_ns", "auto_mflops", "csr_mflops", "oracle_format",
             "oracle_mflops", "auto_vs_csr", "auto_vs_oracle", "warm"},
            csv_rows);
  std::cout << "\ndata: ablation_autotune.csv\nnote: \"vs csr\" > 1 "
               "means auto beat the CSR default; \"vs oracle\" is the "
               "fraction of the exhaustive-search optimum auto reached "
               "(1.00 = matched it). The warm column must read \"hit\" "
               "everywhere — anything else means the tuning cache failed "
               "its skip-the-probe contract.\n";

  if (gate) {
    bool ok = true;
    if (cells == 0) {
      std::cout << "\nGATE FAIL: no cells measured\n";
      ok = false;
    }
    if (g_csr < 0.95) {
      std::cout << "\nGATE FAIL: geomean auto/csr " << fmt_fixed(g_csr, 3)
                << " < 0.95 — auto is >5% slower than the CSR default\n";
      ok = false;
    }
    if (warm_misses > 0 || warm_probed > 0) {
      std::cout << "\nGATE FAIL: warm pass had " << warm_misses
                << " cache misses and " << warm_probed
                << " probes — the tuning cache is not being reused\n";
      ok = false;
    }
    if (ok) {
      std::cout << "\nGATE PASS: auto within 5% of CSR (geomean "
                << fmt_fixed(g_csr, 3) << "), warm pass all cache hits\n";
    }
    return ok ? 0 : 1;
  }
  return 0;
}

}  // namespace
}  // namespace spc

int main(int argc, char** argv) {
  bool smoke = false;
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--gate") == 0) {
      gate = true;
    } else {
      std::cerr << "usage: ablation_autotune [--smoke] [--gate]\n";
      return 2;
    }
  }
  return spc::run(smoke, gate);
}
