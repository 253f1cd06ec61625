// Experiment harness shared by the bench/ binaries.
//
// Encapsulates the paper's measurement protocol (§VI-A):
//  * time N consecutive SpMV operations (paper: 128) with a random x,
//  * no artificial cache pollution between iterations,
//  * serial results in MFLOPS, multithreaded results as speedups,
//  * matrices classified into the MS / ML sets by working-set size.
#pragma once

#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "spc/gen/corpus.hpp"
#include "spc/mm/stats.hpp"
#include "spc/obs/json.hpp"
#include "spc/obs/perf_counters.hpp"
#include "spc/spmv/instance.hpp"
#include "spc/spmv/kernels.hpp"
#include "spc/support/stats.hpp"
#include "spc/support/timing.hpp"

namespace spc {

/// Working-set classification per §VI-B.
enum class SetClass {
  kRejected,  ///< ws below the rejection threshold (cache resident)
  kSmall,     ///< MS: larger than one LLC but fits the aggregate cache
  kLarge      ///< ML: memory bound at any core count
};

struct SetThresholds {
  usize_t reject_below = 3ull << 20;   ///< paper: 3/4 of the 4 MB L2
  usize_t large_at_least = 17ull << 20;  ///< paper: 4×L2 + 1 MB
};

/// Thresholds scaled to the corpus scale (the paper's absolute values at
/// kBench; proportionally smaller for the reduced corpora) and
/// overridable via SPC_WS_REJECT_KB / SPC_WS_LARGE_KB.
SetThresholds thresholds_for(CorpusScale scale);

SetClass classify_ws(usize_t ws, const SetThresholds& th);

/// Harness configuration, read from the environment:
///   SPC_SCALE=tiny|small|bench   corpus scale        (default small)
///   SPC_ITERS=N                  timed iterations    (default 128)
///   SPC_WARMUP=N                 untimed iterations  (default 2)
///   SPC_THREADS=1,2,4,8          thread counts       (default 1,2,4,8)
///   SPC_MAX_MATRICES=N           truncate the corpus (default all)
///   SPC_PIN=0|1                  pin threads         (default 1)
/// An unparseable value (an unknown scale, a thread count that is not a
/// positive integer) warns once on stderr and keeps the default.
struct BenchConfig {
  CorpusScale scale = CorpusScale::kSmall;
  std::size_t iterations = 128;
  std::size_t warmup = 2;
  std::vector<std::size_t> threads = {1, 2, 4, 8};
  std::size_t max_matrices = 0;  ///< 0 = no limit
  bool pin_threads = true;

  static BenchConfig from_env();

  SetThresholds thresholds() const { return thresholds_for(scale); }

  /// Human-readable one-liner for bench headers.
  std::string describe() const;
};

/// One corpus matrix, built and analysed.
struct MatrixCase {
  std::string name;
  std::string cls;
  bool vi_friendly = false;
  Triplets mat;
  MatrixStats stats;
  usize_t ws = 0;
  SetClass set_class = SetClass::kRejected;
};

/// Builds each corpus matrix in turn (one live at a time) and invokes fn.
/// Matrices whose ws falls below the rejection threshold are skipped when
/// `apply_rejection` is set — mirroring §VI-B's filtering. `fn` may keep
/// only what it needs; the Triplets die after the call.
void for_each_matrix(const BenchConfig& cfg,
                     const std::function<void(MatrixCase&)>& fn,
                     bool apply_rejection = true);

/// Times `iters` consecutive y = A*x (after `warmup` untimed runs) and
/// returns the total seconds. Uses a deterministic random x (§VI-A).
double time_spmv(SpmvInstance& inst, std::size_t iters, std::size_t warmup);

/// time_spmv for a format object SpmvInstance does not run (the §III-A/B
/// comparators): serial y = A*x through the object's own spmv(), with
/// time_spmv's x.
template <typename M>
double time_format_spmv(const M& m, std::size_t iters, std::size_t warmup) {
  Rng rng(0xbe7cull ^ m.nnz());
  const Vector x = random_vector(m.ncols(), rng);
  Vector y(m.nrows(), 0.0);
  for (std::size_t i = 0; i < warmup; ++i) {
    spmv(m, x.data(), y.data());
  }
  const Timer timer;
  for (std::size_t i = 0; i < iters; ++i) {
    spmv(m, x.data(), y.data());
  }
  return timer.elapsed_s();
}

/// Everything one timed run can tell about itself: wall clock, derived
/// rates, per-thread busy-time balance, and hardware-counter readings
/// (available=false with a reason when counters could not be used —
/// the wall-clock fields are always complete).
struct RunMetrics {
  std::size_t threads = 1;
  std::size_t iterations = 0;
  std::size_t warmup = 0;
  double seconds = 0.0;  ///< total wall time of the timed loop
  /// Per-iteration wall time — the raw samples behind `seconds`, kept
  /// so the run-ledger can recompute medians / CIs / rank tests later
  /// instead of trusting one pre-aggregated number. Costs one extra
  /// monotonic clock read per iteration (~25 ns, invisible beyond the
  /// tiny corpus scale).
  std::vector<double> sample_seconds;
  double mflops = 0.0;
  /// max/mean worker busy time over the whole timed loop; 1.0 for
  /// serial runs.
  double imbalance = 1.0;
  std::vector<double> busy_seconds;  ///< per-worker busy time (empty serial)
  /// Chunks in the dynamic-schedule plan; 0 under the static schedule.
  std::size_t sched_chunks = 0;
  /// Chunks executed by non-owners over the timed loop (steal schedule).
  std::uint64_t steals = 0;
  /// Pooled symmetric formats only: the conflict windows' rows over
  /// threads*nrows (SpmvInstance::sym_window_frac(); 0 = sym inactive),
  /// and the wall time of the reduction phase over the timed loop.
  double sym_window_frac = 0.0;
  std::uint64_t reduce_ns = 0;
  obs::CounterReadings counters;
};

/// time_spmv plus metrics capture: busy-time imbalance from the pool
/// and a hardware-counter group around the timed loop (per-thread for
/// pool instances, calling-thread for serial ones). Emits "warmup" and
/// "timed" trace spans when SPC_TRACE is active.
///
/// Test hook: SPC_PAD_NS_PER_ITER=N busy-waits N extra nanoseconds
/// inside every timed iteration — a synthetic, precisely sized slowdown
/// used to validate that regress_check flags what it should. Never set
/// it for real measurements.
RunMetrics time_spmv_metrics(SpmvInstance& inst, std::size_t iters,
                             std::size_t warmup);

/// True when SPC_METRICS names a JSONL output file.
bool metrics_enabled();

/// Memory-roofline bandwidth (GB/s) used for ledger attribution: the
/// SPC_ROOFLINE_GBPS environment variable, else 0 (attribution off).
/// regress_check --calibrate measures and sets it for its own run.
double roofline_gbps();

/// Builds the full run-ledger record for one (matrix, format, threads)
/// cell: cell coordinates, machine fingerprint + git sha provenance,
/// wall-clock aggregates, the per-iteration raw samples, hardware
/// counters, and derived attribution (ns/nnz, bytes/nnz from the
/// streamed-working-set model, fraction-of-roofline when a bandwidth
/// figure is available — see roofline_gbps()).
obs::Json make_metrics_record(
    const std::string& bench, const MatrixCase& mc,
    const SpmvInstance& inst, const RunMetrics& m,
    double speedup_vs_csr = 0.0,
    const std::vector<std::pair<std::string, std::string>>& extras = {});

/// make_metrics_record + append to the SPC_METRICS sink (no-op when
/// disabled). `speedup_vs_csr` <= 0 means "not applicable" and is
/// omitted from the record. `extras` adds bench-specific string fields
/// (e.g. ablation_numa's "placement").
void emit_metrics_record(
    const std::string& bench, const MatrixCase& mc,
    const SpmvInstance& inst, const RunMetrics& m,
    double speedup_vs_csr = 0.0,
    const std::vector<std::pair<std::string, std::string>>& extras = {});

/// MFLOPS for a timed run: 2*nnz flops per SpMV.
inline double mflops(usize_t nnz, std::size_t iters, double seconds) {
  return seconds > 0.0
             ? 2.0 * static_cast<double>(nnz) *
                   static_cast<double>(iters) / seconds / 1e6
             : 0.0;
}

/// Aggregates speedups the way the paper's tables do: avg / max / min
/// plus the count of non-negligible slowdowns (speedup < 0.98).
class SpeedupAgg {
 public:
  void add(double speedup) {
    stats_.add(speedup);
    if (speedup < 0.98) {
      ++slowdowns_;
    }
  }
  std::uint64_t count() const { return stats_.count(); }
  double avg() const { return stats_.mean(); }
  double max() const { return stats_.max(); }
  double min() const { return stats_.min(); }
  std::uint64_t slowdowns() const { return slowdowns_; }

 private:
  OnlineStats stats_;
  std::uint64_t slowdowns_ = 0;
};

/// Fixed-width text table with a markdown-ish layout for the bench output.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);
  void add_row(std::vector<std::string> cells);
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// RFC-4180 CSV field escaping: fields containing commas, quotes, or
/// newlines are quoted with inner quotes doubled; anything else passes
/// through untouched.
std::string csv_escape(const std::string& field);

/// Writes rows as CSV, escaping fields via csv_escape.
void write_csv(const std::string& path,
               const std::vector<std::string>& header,
               const std::vector<std::vector<std::string>>& rows);

}  // namespace spc
