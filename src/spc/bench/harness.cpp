#include "spc/bench/harness.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "spc/bench/model.hpp"
#include "spc/mm/vector.hpp"
#include "spc/obs/ledger.hpp"
#include "spc/obs/metrics.hpp"
#include "spc/obs/metrics_io.hpp"
#include "spc/obs/trace.hpp"
#include "spc/support/env.hpp"
#include "spc/support/strutil.hpp"
#include "spc/support/timing.hpp"

namespace spc {

namespace {

// SPC_PAD_NS_PER_ITER test hook: spin this many extra ns per timed
// iteration. Re-read on every timed run so in-process setenv works
// (regress_check's injection mode).
std::uint64_t pad_ns_per_iter() {
  return env_u64("SPC_PAD_NS_PER_ITER").value_or(0);
}

void busy_wait_ns(std::uint64_t ns) {
  const std::uint64_t until = now_ns() + ns;
  while (now_ns() < until) {
    // spin — the point is to consume wall time deterministically
  }
}

}  // namespace

SetThresholds thresholds_for(CorpusScale scale) {
  SetThresholds th;  // paper defaults (kBench)
  switch (scale) {
    case CorpusScale::kBench:
      break;
    case CorpusScale::kSmall:
      // Corpus nnz shrinks by ~20x at kSmall; scale the cut points along.
      th.reject_below /= 20;
      th.large_at_least /= 20;
      break;
    case CorpusScale::kTiny:
      th.reject_below /= 400;
      th.large_at_least /= 400;
      break;
  }
  if (const auto kb = env_u64("SPC_WS_REJECT_KB")) {
    th.reject_below = *kb << 10;
  }
  if (const auto kb = env_u64("SPC_WS_LARGE_KB")) {
    th.large_at_least = *kb << 10;
  }
  return th;
}

SetClass classify_ws(usize_t ws, const SetThresholds& th) {
  if (ws < th.reject_below) {
    return SetClass::kRejected;
  }
  return ws >= th.large_at_least ? SetClass::kLarge : SetClass::kSmall;
}

BenchConfig BenchConfig::from_env() {
  BenchConfig cfg;
  if (const auto s = env_str("SPC_SCALE")) {
    cfg.scale = parse_corpus_scale(*s);
  }
  if (const auto n = env_u64("SPC_ITERS")) {
    cfg.iterations = *n;
  }
  if (const auto n = env_u64("SPC_WARMUP")) {
    cfg.warmup = *n;
  }
  if (const auto s = env_str("SPC_THREADS")) {
    cfg.threads.clear();
    std::stringstream ss(*s);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      if (!tok.empty()) {
        cfg.threads.push_back(std::stoull(tok));
      }
    }
    if (cfg.threads.empty()) {
      cfg.threads = {1};
    }
  }
  if (const auto n = env_u64("SPC_MAX_MATRICES")) {
    cfg.max_matrices = *n;
  }
  if (const auto n = env_u64("SPC_PIN")) {
    cfg.pin_threads = *n != 0;
  }
  return cfg;
}

std::string BenchConfig::describe() const {
  std::ostringstream os;
  os << "scale=";
  switch (scale) {
    case CorpusScale::kTiny:
      os << "tiny";
      break;
    case CorpusScale::kSmall:
      os << "small";
      break;
    case CorpusScale::kBench:
      os << "bench";
      break;
  }
  os << " iters=" << iterations << " warmup=" << warmup << " threads=";
  for (std::size_t i = 0; i < threads.size(); ++i) {
    os << (i ? "," : "") << threads[i];
  }
  const SetThresholds th = thresholds();
  os << " ws-reject<" << human_bytes(th.reject_below) << " ws-large>="
     << human_bytes(th.large_at_least) << " pin=" << (pin_threads ? 1 : 0);
  return os.str();
}

void for_each_matrix(const BenchConfig& cfg,
                     const std::function<void(MatrixCase&)>& fn,
                     bool apply_rejection) {
  const SetThresholds th = cfg.thresholds();
  std::size_t used = 0;
  for (auto& spec : corpus_specs(cfg.scale)) {
    if (cfg.max_matrices > 0 && used >= cfg.max_matrices) {
      break;
    }
    MatrixCase mc;
    mc.name = spec.name;
    mc.cls = spec.cls;
    mc.vi_friendly = spec.vi_friendly;
    {
      obs::TraceSpan span("build:" + spec.name);
      ScopedTimer timed(
          obs::Registry::global().histogram("spc.bench.build_ns"));
      mc.mat = spec.build();
    }
    {
      obs::TraceSpan span("stats:" + spec.name);
      mc.stats = compute_stats(mc.mat);
    }
    mc.ws = mc.stats.working_set_bytes();
    mc.set_class = classify_ws(mc.ws, th);
    if (apply_rejection && mc.set_class == SetClass::kRejected) {
      continue;
    }
    ++used;
    fn(mc);
  }
}

double time_spmv(SpmvInstance& inst, std::size_t iters, std::size_t warmup) {
  return time_spmv_metrics(inst, iters, warmup).seconds;
}

RunMetrics time_spmv_metrics(SpmvInstance& inst, std::size_t iters,
                             std::size_t warmup) {
  RunMetrics m;
  m.threads = inst.nthreads();
  m.iterations = iters;
  m.warmup = warmup;

  Rng rng(0xbe7cull ^ inst.nnz());
  const Vector x = random_vector(inst.ncols(), rng);
  Vector y(inst.nrows(), 0.0);
  {
    obs::TraceSpan span("warmup");
    for (std::size_t i = 0; i < warmup; ++i) {
      inst.run(x, y);
    }
  }

  ThreadPool* pool = inst.pool();
  std::unique_ptr<obs::PerfSession> serial_session;
  inst.sched_reset();  // count chunks/steals over the timed loop only
  inst.sym_reset();    // likewise the symmetric reduction-phase clock
  if (pool != nullptr) {
    pool->busy_reset();
    pool->counters_start();
  } else if (obs::counters_enabled()) {
    // Serial runs execute on this thread; attach the group here.
    serial_session = std::make_unique<obs::PerfSession>();
    serial_session->start();
  }

  {
    obs::TraceSpan span("timed");
    // Per-iteration timestamps: sample i is t[i+1]-t[i], the total is
    // t[N]-t[0], so aggregate and samples stay mutually consistent. The
    // raw samples feed the run-ledger (obs/ledger.hpp).
    const std::uint64_t pad = pad_ns_per_iter();
    m.sample_seconds.resize(iters);
    const std::uint64_t begin = now_ns();
    std::uint64_t prev = begin;
    for (std::size_t i = 0; i < iters; ++i) {
      inst.run(x, y);
      if (pad > 0) {
        busy_wait_ns(pad);
      }
      const std::uint64_t now = now_ns();
      m.sample_seconds[i] =
          now >= prev ? static_cast<double>(now - prev) * 1e-9 : 0.0;
      prev = now;
    }
    m.seconds =
        prev >= begin ? static_cast<double>(prev - begin) * 1e-9 : 0.0;
  }
  m.mflops = mflops(inst.nnz(), iters, m.seconds);
  if (inst.schedule() != Schedule::kStatic) {
    m.sched_chunks = inst.sched_chunks();
    m.steals = inst.sched_steals_total();
  }
  if (inst.sym_active()) {
    m.sym_window_frac = inst.sym_window_frac();
    m.reduce_ns = inst.sym_reduce_ns_total();
  }

  if (pool != nullptr) {
    m.counters = pool->counters_stop();
    m.imbalance = pool->total_imbalance();
    m.busy_seconds.resize(pool->size());
    for (std::size_t t = 0; t < pool->size(); ++t) {
      m.busy_seconds[t] =
          static_cast<double>(pool->total_busy_ns(t)) * 1e-9;
    }
  } else if (serial_session != nullptr) {
    serial_session->stop();
    m.counters = serial_session->read();
    m.imbalance = 1.0;
  } else {
    m.counters.reason = "disabled (SPC_COUNTERS=0)";
    m.imbalance = 1.0;
  }
  return m;
}

bool metrics_enabled() { return obs::MetricsSink::global().enabled(); }

double roofline_gbps() {
  const double g = env_double("SPC_ROOFLINE_GBPS").value_or(0.0);
  return g > 0.0 ? g : 0.0;
}

obs::Json make_metrics_record(
    const std::string& bench, const MatrixCase& mc,
    const SpmvInstance& inst, const RunMetrics& m, double speedup_vs_csr,
    const std::vector<std::pair<std::string, std::string>>& extras) {
  const double nnz_total =
      static_cast<double>(inst.nnz()) *
      static_cast<double>(m.iterations ? m.iterations : 1);

  obs::Json rec = obs::Json::object();
  rec.set("bench", bench);
  // Ledger provenance: which code on which machine produced this row.
  rec.set("git_sha", obs::build_git_sha());
  rec.set("machine_id", obs::machine_fingerprint().id());
  rec.set("machine", obs::machine_fingerprint().to_json());
  rec.set("matrix", mc.name);
  rec.set("cls", mc.cls);
  rec.set("set", std::string(mc.set_class == SetClass::kSmall    ? "MS"
                             : mc.set_class == SetClass::kLarge  ? "ML"
                                                                 : "rej"));
  rec.set("format", format_name(inst.format()));
  rec.set("isa", isa_tier_name(inst.isa_tier()));
  rec.set("numa", numa_policy_name(inst.numa_policy()));
  rec.set("schedule", schedule_name(inst.schedule()));
  if (inst.schedule() != Schedule::kStatic) {
    rec.set("sched_chunks", static_cast<std::uint64_t>(m.sched_chunks));
    rec.set("steals", m.steals);
  }
  // Symmetric-format provenance: how much conflict-window state the run
  // carried and what the reduction phase cost (profile_report turns the
  // latter into a share of the timed loop).
  if (inst.sym_active()) {
    rec.set("sym_reduce", sym_reduce_name(inst.sym_reduce()));
    rec.set("sym_window_frac", m.sym_window_frac);
    rec.set("reduce_ns", m.reduce_ns);
  }
  // Column-tiling provenance: tiled and untiled runs of one cell are
  // different layouts; the ledger key splits on these fields so their
  // baselines never pool.
  rec.set("tiling", std::string(inst.tiling_active() ? "on" : "off"));
  if (inst.tiling_active()) {
    rec.set("stripe_bytes",
            static_cast<std::uint64_t>(inst.tile_stripe_bytes()));
    rec.set("stripes", static_cast<std::uint64_t>(inst.tile_stripes()));
  } else if (const char* why = inst.tile_plan().decline_reason;
             why != nullptr && *why != '\0') {
    rec.set("tiling_declined", std::string(why));
  }
  // Tuning provenance: whether spc::tune chose this cell, what the
  // choice cost, and whether the tuning cache supplied it. The ledger
  // key splits on "tuned" so auto-selected rows never pool with
  // hand-picked baselines of the same format.
  const SpmvInstance::TuneProvenance& tp = inst.tune_provenance();
  rec.set("tuned", std::string(tp.tuned ? "yes" : "no"));
  if (tp.tuned) {
    rec.set("tune_source", tp.source);
    rec.set("probe_ns", tp.probe_ns);
    rec.set("cache_hit", tp.cache_hit);
    rec.set("matrix_fp", tp.fingerprint);
  }
  rec.set("threads", static_cast<std::uint64_t>(m.threads));
  const SpmvInstance::NumaResidency res = inst.matrix_residency();
  if (res.available) {
    rec.set("numa_pages_sampled",
            static_cast<std::uint64_t>(res.pages_sampled));
    rec.set("numa_pages_local",
            static_cast<std::uint64_t>(res.pages_local));
  }
  rec.set("iters", static_cast<std::uint64_t>(m.iterations));
  rec.set("warmup", static_cast<std::uint64_t>(m.warmup));
  rec.set("nrows", static_cast<std::uint64_t>(inst.nrows()));
  rec.set("ncols", static_cast<std::uint64_t>(inst.ncols()));
  rec.set("nnz", static_cast<std::uint64_t>(inst.nnz()));
  rec.set("matrix_bytes", static_cast<std::uint64_t>(inst.matrix_bytes()));
  rec.set("seconds", m.seconds);
  rec.set("mflops", m.mflops);
  rec.set("ns_per_nnz",
          nnz_total > 0.0 ? m.seconds * 1e9 / nnz_total : 0.0);
  // Working-set attribution (§II-B): bytes one SpMV streams, per nnz,
  // and — when a bandwidth figure is known — the fraction of the
  // memory-roofline bound this cell actually achieved. A cell at
  // frac ≈ 1 is as fast as the memory system allows; a low frac is
  // slow for a *fixable* reason, not because the matrix is big.
  const usize_t streamed =
      spmv_streamed_bytes(inst.matrix_bytes(), inst.nrows(), inst.ncols());
  rec.set("bytes_per_nnz",
          inst.nnz() > 0
              ? static_cast<double>(streamed) /
                    static_cast<double>(inst.nnz())
              : 0.0);
  if (const double gbps = roofline_gbps();
      gbps > 0.0 && !m.sample_seconds.empty()) {
    const double med_s = median(m.sample_seconds);
    const double min_s = predicted_spmv_seconds(streamed, gbps);
    if (med_s > 0.0 && min_s > 0.0) {
      obs::Json roof = obs::Json::object();
      roof.set("gbps", gbps);
      roof.set("min_ns_per_nnz",
               inst.nnz() > 0
                   ? min_s * 1e9 / static_cast<double>(inst.nnz())
                   : 0.0);
      roof.set("frac", min_s / med_s);
      rec.set("roofline", std::move(roof));
    }
  }
  if (!m.sample_seconds.empty()) {
    obs::Json samples = obs::Json::array();
    for (const double s : m.sample_seconds) {
      samples.push(s * 1e9);
    }
    rec.set("samples_ns", std::move(samples));
  }
  if (speedup_vs_csr > 0.0) {
    rec.set("speedup_vs_csr", speedup_vs_csr);
  }
  rec.set("imbalance", m.imbalance);
  if (!m.busy_seconds.empty()) {
    obs::Json busy = obs::Json::array();
    for (const double b : m.busy_seconds) {
      busy.push(b);
    }
    rec.set("busy_s", std::move(busy));
  }
  if (m.counters.available) {
    obs::Json c = obs::Json::object();
    c.set("cycles", m.counters.cycles);
    c.set("instructions", m.counters.instructions);
    c.set("ipc", m.counters.ipc());
    c.set("cycles_per_nnz",
          nnz_total > 0.0
              ? static_cast<double>(m.counters.cycles) / nnz_total
              : 0.0);
    if (m.counters.has_llc) {
      c.set("llc_loads", m.counters.llc_loads);
      c.set("llc_misses", m.counters.llc_misses);
      c.set("misses_per_knnz",
            nnz_total > 0.0
                ? 1e3 * static_cast<double>(m.counters.llc_misses) / nnz_total
                : 0.0);
    }
    if (m.counters.has_stalled) {
      c.set("stalled_cycles", m.counters.stalled_cycles);
    }
    c.set("scale", m.counters.scale);
    rec.set("counters", std::move(c));
  } else {
    rec.set("counters", "unavailable");
    rec.set("counters_reason", m.counters.reason);
  }
  for (const auto& [key, value] : extras) {
    rec.set(key, value);
  }
  return rec;
}

void emit_metrics_record(
    const std::string& bench, const MatrixCase& mc,
    const SpmvInstance& inst, const RunMetrics& m, double speedup_vs_csr,
    const std::vector<std::pair<std::string, std::string>>& extras) {
  obs::MetricsSink& sink = obs::MetricsSink::global();
  if (!sink.enabled()) {
    return;
  }
  sink.write(make_metrics_record(bench, mc, inst, m, speedup_vs_csr, extras));
}

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    width[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  const auto print_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (std::size_t c = 0; c < width.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      os << " " << cell << std::string(width[c] - cell.size(), ' ') << " |";
    }
    os << "\n";
  };
  print_row(header_);
  os << "|";
  for (const std::size_t w : width) {
    os << std::string(w + 2, '-') << "|";
  }
  os << "\n";
  for (const auto& row : rows_) {
    print_row(row);
  }
}

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) {
    return field;
  }
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (const char c : field) {
    if (c == '"') {
      out += '"';
    }
    out += c;
  }
  out += '"';
  return out;
}

void write_csv(const std::string& path,
               const std::vector<std::string>& header,
               const std::vector<std::vector<std::string>>& rows) {
  std::ofstream f(path);
  if (!f) {
    std::cerr << "warning: cannot write " << path << "\n";
    return;
  }
  for (std::size_t c = 0; c < header.size(); ++c) {
    f << (c ? "," : "") << csv_escape(header[c]);
  }
  f << "\n";
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      f << (c ? "," : "") << csv_escape(row[c]);
    }
    f << "\n";
  }
}

}  // namespace spc
