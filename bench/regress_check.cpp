// Statistical regression gate over the run-ledger.
//
// Runs a fixed suite of (matrix × format × threads) cells, records each
// cell's per-iteration raw samples into a ledger (obs/ledger.hpp), and
// compares against a committed baseline with the conservative
// three-check classifier of obs/compare.hpp (median effect size +
// Mann–Whitney U + bootstrap-CI separation). Emits a markdown and a
// JSON verdict and exits nonzero only on *confirmed* regressions —
// run-to-run noise must classify neutral (the --aa mode checks exactly
// that, and CI runs it on every push).
//
// Typical workflows:
//   record a baseline     regress_check --smoke --record results/baselines/$(id).jsonl
//   gate a change         regress_check --smoke            # vs results/baselines/<machine_id>.jsonl
//   A/A self-test         regress_check --smoke --aa
//   prove the gate works  regress_check --smoke --aa --inject-pad-ns 2000
//
// Exit codes: 0 = no confirmed regressions; 1 = confirmed regressions;
// 2 = usage error or nothing was comparable (missing baseline, machine
// mismatch) — explicit, never a silent pass.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "spc/bench/harness.hpp"
#include "spc/bench/model.hpp"
#include "spc/obs/compare.hpp"
#include "spc/obs/ledger.hpp"
#include "spc/support/error.hpp"
#include "spc/support/strutil.hpp"

namespace {

using spc::obs::CompareThresholds;
using spc::obs::LedgerComparison;
using spc::obs::LedgerRecord;

struct Options {
  bool smoke = false;
  bool aa = false;
  bool calibrate = false;
  std::string record_path;    ///< non-empty → record mode
  std::string baseline_path;  ///< default results/baselines/<machine_id>.jsonl
  std::string ledger_path;    ///< also append current records here
  std::string out_json = "regress_verdict.json";
  std::string out_md = "regress_verdict.md";
  std::size_t iters = 0;  ///< 0 = suite default
  std::uint64_t inject_pad_ns = 0;
  CompareThresholds th;
};

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --smoke               tiny corpus, 3 formats, threads {1,2} clamped to visible CPUs\n"
      << "  --record <file>       record a baseline ledger and exit\n"
      << "  --aa                  run twice, compare run B vs run A\n"
      << "  --baseline <file>     baseline ledger (default\n"
      << "                        results/baselines/<machine_id>.jsonl)\n"
      << "  --ledger <file>       also append current records to <file>\n"
      << "  --out-json <file>     JSON verdict (default regress_verdict.json)\n"
      << "  --out-md <file>       markdown verdict (default regress_verdict.md)\n"
      << "  --iters <n>           timed iterations per cell\n"
      << "  --min-effect <x>      median-ratio threshold (default 0.05)\n"
      << "  --min-effect-ns <x>   absolute median-shift floor in ns\n"
      << "                        (default 250)\n"
      << "  --alpha <x>           Mann-Whitney significance (default 0.01)\n"
      << "  --min-samples <n>     minimum samples per side (default 8)\n"
      << "  --inject-pad-ns <n>   pad the current/second run's iterations\n"
      << "                        (validation hook)\n"
      << "  --calibrate           measure stream bandwidth, enable roofline\n"
      << "                        attribution in the records\n";
  return 2;
}

bool parse_args(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--smoke") {
      o->smoke = true;
    } else if (a == "--aa") {
      o->aa = true;
    } else if (a == "--calibrate") {
      o->calibrate = true;
    } else if (a == "--record") {
      const char* v = next();
      if (v == nullptr) return false;
      o->record_path = v;
    } else if (a == "--baseline") {
      const char* v = next();
      if (v == nullptr) return false;
      o->baseline_path = v;
    } else if (a == "--ledger") {
      const char* v = next();
      if (v == nullptr) return false;
      o->ledger_path = v;
    } else if (a == "--out-json") {
      const char* v = next();
      if (v == nullptr) return false;
      o->out_json = v;
    } else if (a == "--out-md") {
      const char* v = next();
      if (v == nullptr) return false;
      o->out_md = v;
    } else if (a == "--iters") {
      const char* v = next();
      if (v == nullptr) return false;
      o->iters = std::stoull(v);
    } else if (a == "--min-effect") {
      const char* v = next();
      if (v == nullptr) return false;
      o->th.min_effect = std::stod(v);
    } else if (a == "--min-effect-ns") {
      const char* v = next();
      if (v == nullptr) return false;
      o->th.min_effect_ns = std::stod(v);
    } else if (a == "--alpha") {
      const char* v = next();
      if (v == nullptr) return false;
      o->th.alpha = std::stod(v);
    } else if (a == "--min-samples") {
      const char* v = next();
      if (v == nullptr) return false;
      o->th.min_samples = std::stoull(v);
    } else if (a == "--inject-pad-ns") {
      const char* v = next();
      if (v == nullptr) return false;
      o->inject_pad_ns = std::stoull(v);
    } else {
      std::cerr << "unknown option: " << a << "\n";
      return false;
    }
  }
  return true;
}

/// The gate's suite: a deliberately small, fixed cell set — regression
/// gating wants stable, frequently-run cells, not coverage (the tables
/// and ablations do coverage).
std::vector<spc::Format> suite_formats(bool smoke) {
  using spc::Format;
  if (smoke) {
    return {Format::kCsr, Format::kCsrDu, Format::kCsrVi};
  }
  return {Format::kCsr, Format::kCsrDu, Format::kCsrVi, Format::kCsrDuVi};
}

spc::BenchConfig suite_config(const Options& o) {
  spc::BenchConfig cfg = spc::BenchConfig::from_env();
  if (o.smoke) {
    cfg.scale = spc::CorpusScale::kTiny;
    cfg.threads = {1, 2};
    cfg.iterations = 48;
    cfg.warmup = 3;
    if (cfg.max_matrices == 0 || cfg.max_matrices > 4) {
      cfg.max_matrices = 4;
    }
  }
  if (o.iters > 0) {
    cfg.iterations = o.iters;
  }
  // Oversubscribed cells (threads > CPUs) time the kernel scheduler's
  // interleaving, not the code: on a 1-CPU box a threads=2 cell can
  // latch into a slow mode for longer than a sub-pass and produce a
  // confident false regression no amount of interleaving fixes. Drop
  // them loudly; on real multi-core runners nothing changes.
  const std::size_t cpus = std::max<std::size_t>(
      1, spc::obs::machine_fingerprint().cpus);
  std::vector<std::size_t> kept;
  for (const std::size_t n : cfg.threads) {
    if (n <= cpus) {
      kept.push_back(n);
    } else {
      std::cout << "note: dropping threads=" << n << " cells (only " << cpus
                << " CPU(s) visible; oversubscribed timing is scheduler "
                   "noise, not signal)\n";
    }
  }
  if (kept.empty()) {
    kept.push_back(1);
  }
  cfg.threads = std::move(kept);
  return cfg;
}

/// A/A suites hold two passes per cell; single runs fill only `b`.
struct SuiteRun {
  std::vector<LedgerRecord> a;
  std::vector<LedgerRecord> b;
  std::size_t cells = 0;
};

/// Passes per side per cell: the iteration budget is split into
/// interleaved sub-passes (A,B,A,B in aa mode; back-to-back otherwise)
/// so a transient machine-state shift — an IRQ storm, a migration, a
/// frequency step lasting longer than one sub-pass — lands on *both*
/// sample sets instead of wholly inside one. One pass per side turns
/// any such shift into a confident false regression; interleaving turns
/// it into visible bimodality that widens both CIs toward neutral.
/// compare_ledgers pools same-key records, so emitting one record per
/// sub-pass needs no extra plumbing. Four passes bound the asymmetry of
/// a single step-change to one sub-pass (~1/4 of either side's
/// samples), which cannot move the pooled median by itself.
constexpr std::size_t kPasses = 4;

/// Times every suite cell; appends raw records to `ledger_path` when
/// non-empty. In `aa` mode each cell yields interleaved A and B sample
/// sets from one instance — whole-suite A then whole-suite B would let
/// slow drift (frequency ramp, thermal state) masquerade as a
/// regression. `pad_ns` injects SPC_PAD_NS_PER_ITER into the B passes
/// only (the validation hook).
SuiteRun run_suite(const spc::BenchConfig& cfg,
                   const std::vector<spc::Format>& formats,
                   const std::string& ledger_path, bool aa,
                   std::uint64_t pad_ns, const char* label) {
  SuiteRun out;
  const std::size_t pass_iters =
      std::max<std::size_t>(8, cfg.iterations / kPasses);
  const auto time_cell = [&](spc::MatrixCase& mc, spc::SpmvInstance& inst,
                             std::size_t warmup,
                             std::vector<LedgerRecord>* rows) {
    const spc::RunMetrics m = spc::time_spmv_metrics(inst, pass_iters, warmup);
    const spc::obs::Json rec =
        spc::make_metrics_record("regress_check", mc, inst, m);
    if (!ledger_path.empty()) {
      spc::obs::append_ledger(ledger_path, rec);
    }
    LedgerRecord row;
    if (spc::obs::parse_ledger_record(rec, &row)) {
      rows->push_back(std::move(row));
    }
  };
  const auto time_passes = [&](spc::MatrixCase& mc,
                               spc::SpmvInstance& inst) {
    for (std::size_t p = 0; p < kPasses; ++p) {
      // Warm up only once per cell; the instance stays hot across
      // sub-passes.
      const std::size_t warmup = p == 0 ? cfg.warmup : 0;
      if (aa) {
        time_cell(mc, inst, warmup, &out.a);
      }
      if (pad_ns > 0) {
        ::setenv("SPC_PAD_NS_PER_ITER", std::to_string(pad_ns).c_str(), 1);
      }
      time_cell(mc, inst, aa ? 0 : warmup, &out.b);
      if (pad_ns > 0) {
        ::unsetenv("SPC_PAD_NS_PER_ITER");
      }
    }
    ++out.cells;
  };
  spc::for_each_matrix(
      cfg,
      [&](spc::MatrixCase& mc) {
        for (const spc::Format f : formats) {
          for (const std::size_t n : cfg.threads) {
            try {
              spc::InstanceOptions opts;
              opts.pin_threads = cfg.pin_threads;
              spc::SpmvInstance inst(mc.mat, f, n, opts);
              time_passes(mc, inst);
            } catch (const spc::Error& e) {
              std::cerr << "warning: skipping " << mc.name << "/"
                        << format_name(f) << "@" << n << ": " << e.what()
                        << "\n";
            }
          }
        }
      },
      /*apply_rejection=*/false);
  std::cout << label << ": " << out.cells << " cells timed ("
            << cfg.describe() << ", " << kPasses << "x" << pass_iters
            << " iters/side" << (aa ? ", interleaved A/A" : "") << ")\n";
  return out;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  if (!f) {
    std::cerr << "warning: cannot write " << path << "\n";
    return;
  }
  f << text;
}

int finish(const Options& o, const LedgerComparison& cmp) {
  const std::string md = cmp.to_markdown();
  write_text(o.out_md, md);
  write_text(o.out_json, cmp.to_json().dump() + "\n");
  std::cout << "\n" << md << "\nverdict files: " << o.out_md << ", "
            << o.out_json << "\n";

  if (cmp.has_regressions()) {
    std::cout << "RESULT: REGRESSED (" << cmp.regressed << " cells)\n";
    return 1;
  }
  if (cmp.cells.empty() ||
      cmp.incomparable == cmp.cells.size()) {
    std::cout << "RESULT: NOT COMPARABLE (no shared comparable cells)\n";
    return 2;
  }
  std::cout << "RESULT: OK (" << cmp.improved << " improved, "
            << cmp.neutral << " neutral)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_args(argc, argv, &o)) {
    return usage(argv[0]);
  }
  if (!o.record_path.empty() && o.aa) {
    std::cerr << "--record and --aa are mutually exclusive\n";
    return usage(argv[0]);
  }

  const std::string machine_id = spc::obs::machine_fingerprint().id();
  std::cout << "machine " << machine_id << " ("
            << spc::obs::machine_fingerprint().to_json().dump()
            << ")\ngit " << spc::obs::build_git_sha() << "\n";

  if (o.calibrate) {
    // A short calibration — enough for attribution, not a benchmark.
    const spc::BandwidthCalibration bw =
        spc::calibrate_bandwidth(64ull << 20, 2);
    std::cout << "calibrated stream read bandwidth: "
              << spc::fmt_fixed(bw.read_gbps, 1) << " GB/s\n";
    ::setenv("SPC_ROOFLINE_GBPS",
             spc::fmt_fixed(bw.read_gbps, 3).c_str(), 1);
  }

  const spc::BenchConfig cfg = suite_config(o);
  const std::vector<spc::Format> formats = suite_formats(o.smoke);

  if (!o.record_path.empty()) {
    const SuiteRun run = run_suite(cfg, formats, o.record_path,
                                   /*aa=*/false, /*pad_ns=*/0,
                                   "baseline run");
    if (run.b.empty()) {
      std::cerr << "error: no cells recorded\n";
      return 2;
    }
    std::cout << "baseline ledger: " << o.record_path << " (" << run.b.size()
              << " cells)\n";
    return 0;
  }

  std::vector<LedgerRecord> baseline;
  std::vector<LedgerRecord> current;
  if (o.aa) {
    if (o.inject_pad_ns > 0) {
      std::cout << "injecting " << o.inject_pad_ns
                << " ns/iteration into each cell's B pass "
                   "(SPC_PAD_NS_PER_ITER)\n";
    }
    SuiteRun run = run_suite(cfg, formats, o.ledger_path, /*aa=*/true,
                             o.inject_pad_ns, "A/A suite");
    baseline = std::move(run.a);
    current = std::move(run.b);
  } else {
    if (o.baseline_path.empty()) {
      o.baseline_path = "results/baselines/" + machine_id + ".jsonl";
    }
    std::size_t bad = 0;
    baseline = spc::obs::read_ledger(o.baseline_path, &bad);
    if (baseline.empty()) {
      std::cerr << "error: no baseline at " << o.baseline_path
                << "\nrecord one first:\n  " << argv[0]
                << (o.smoke ? " --smoke" : "") << " --record "
                << o.baseline_path << "\n";
      return 2;
    }
    std::cout << "baseline: " << o.baseline_path << " (" << baseline.size()
              << " cells" << (bad ? ", " + std::to_string(bad) + " bad lines"
                                  : std::string())
              << ")\n";
    if (o.inject_pad_ns > 0) {
      std::cout << "injecting " << o.inject_pad_ns
                << " ns/iteration into the current run "
                   "(SPC_PAD_NS_PER_ITER)\n";
    }
    SuiteRun run = run_suite(cfg, formats, o.ledger_path, /*aa=*/false,
                             o.inject_pad_ns, "current run");
    current = std::move(run.b);
  }
  if (current.empty()) {
    std::cerr << "error: no cells timed\n";
    return 2;
  }

  return finish(o, spc::obs::compare_ledgers(baseline, current, o.th));
}
