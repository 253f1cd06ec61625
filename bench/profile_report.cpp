// Reproduces the paper's Fig. 7/8-style per-format breakdown from the
// JSONL metrics records the harness emits under SPC_METRICS.
//
// The paper argues CSR-DU/CSR-VI through per-kernel cycles,
// instructions, and cache misses (§VII): compression should trade a few
// decode instructions for fewer LLC misses per non-zero. This report
// makes that trade visible:
//   1. a per-(format, threads) aggregate — MFLOPS, speedup vs CSR, IPC,
//      cycles/nnz, LLC misses per thousand nnz, busy-time imbalance;
//   2. a per-matrix detail at the highest recorded thread count, sorted
//      by speedup the way Figs. 7/8 sort their bars.
//
// Usage: profile_report [metrics.jsonl]   (default: $SPC_METRICS)
// Cells read "-" where hardware counters were unavailable; wall-clock
// columns are always present.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "spc/bench/harness.hpp"
#include "spc/obs/json.hpp"
#include "spc/support/env.hpp"
#include "spc/support/strutil.hpp"

namespace {

struct Record {
  std::string bench;
  std::string matrix;
  std::string set;
  std::string format;
  std::string isa;
  std::string numa;
  std::string schedule;
  std::string tuned;
  std::size_t threads = 1;
  std::uint64_t probe_ns = 0;
  double mflops = 0.0;
  double speedup = 0.0;  ///< 0 when absent
  double imbalance = 0.0;
  std::uint64_t nnz = 0;
  bool has_counters = false;
  double ipc = 0.0;
  double cycles_per_nnz = 0.0;
  bool has_llc = false;
  double misses_per_knnz = 0.0;
  double bytes_per_nnz = 0.0;    ///< 0 when absent (pre-ledger record)
  double frac_roofline = 0.0;    ///< 0 when no roofline attribution
  /// Symmetric-format runs only: the reduction phase's share of the
  /// timed loop, and the window-rows fraction (reduce_ns / seconds).
  bool has_sym = false;
  double reduce_share = 0.0;
  double sym_window_frac = 0.0;
};

double num(const spc::obs::Json& j, const char* key, double dflt = 0.0) {
  const spc::obs::Json* v = j.find(key);
  return v != nullptr ? v->as_double(dflt) : dflt;
}

std::string str(const spc::obs::Json& j, const char* key) {
  const spc::obs::Json* v = j.find(key);
  return v != nullptr ? v->as_string() : std::string();
}

bool parse_record(const std::string& line, Record& r) {
  spc::obs::Json j;
  try {
    j = spc::obs::Json::parse(line);
  } catch (const spc::Error&) {
    return false;
  }
  if (!j.is_object()) {
    return false;
  }
  r.bench = str(j, "bench");
  r.matrix = str(j, "matrix");
  r.set = str(j, "set");
  r.format = str(j, "format");
  // Records predating the dispatch layer carry no "isa" field; they were
  // produced by the scalar kernels.
  r.isa = str(j, "isa");
  if (r.isa.empty()) {
    r.isa = "scalar";
  }
  // Records predating the NUMA placement engine carry no "numa" field;
  // they ran with master-touched shared arrays.
  r.numa = str(j, "numa");
  if (r.numa.empty()) {
    r.numa = "off";
  }
  // Records predating the work-stealing scheduler carry no "schedule"
  // field; they ran under the static owner-computes split.
  r.schedule = str(j, "schedule");
  if (r.schedule.empty()) {
    r.schedule = "static";
  }
  // Records predating the autotuner were all hand-picked cells.
  r.tuned = str(j, "tuned");
  if (r.tuned.empty()) {
    r.tuned = "no";
  }
  r.probe_ns =
      j.find("probe_ns") != nullptr ? j.find("probe_ns")->as_u64() : 0;
  r.threads = static_cast<std::size_t>(num(j, "threads", 1));
  r.mflops = num(j, "mflops");
  r.speedup = num(j, "speedup_vs_csr");
  r.imbalance = num(j, "imbalance");
  r.nnz = j.find("nnz") != nullptr ? j.find("nnz")->as_u64() : 0;
  if (const spc::obs::Json* c = j.find("counters");
      c != nullptr && c->is_object()) {
    r.has_counters = true;
    r.ipc = num(*c, "ipc");
    r.cycles_per_nnz = num(*c, "cycles_per_nnz");
    if (c->find("misses_per_knnz") != nullptr) {
      r.has_llc = true;
      r.misses_per_knnz = num(*c, "misses_per_knnz");
    }
  }
  r.bytes_per_nnz = num(j, "bytes_per_nnz");
  if (j.find("reduce_ns") != nullptr) {
    r.has_sym = true;
    const double seconds = num(j, "seconds");
    r.reduce_share =
        seconds > 0.0
            ? static_cast<double>(j.find("reduce_ns")->as_u64()) * 1e-9 /
                  seconds
            : 0.0;
    r.sym_window_frac = num(j, "sym_window_frac");
  }
  if (const spc::obs::Json* roof = j.find("roofline");
      roof != nullptr && roof->is_object()) {
    r.frac_roofline = num(*roof, "frac");
  }
  return !r.matrix.empty() && !r.format.empty();
}

std::string f2(double v) { return spc::fmt_fixed(v, 2); }
std::string f1(double v) { return spc::fmt_fixed(v, 1); }

/// Mean over added samples; "-" when none were added.
struct MaybeMean {
  double sum = 0.0;
  std::size_t n = 0;
  void add(double v) {
    sum += v;
    ++n;
  }
  std::string fmt(int digits) const {
    return n ? spc::fmt_fixed(sum / static_cast<double>(n), digits) : "-";
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  if (argc > 1) {
    path = argv[1];
  } else if (const auto env = spc::env_str("SPC_METRICS")) {
    path = *env;
  } else {
    std::cerr << "usage: profile_report <metrics.jsonl>  (or set "
                 "SPC_METRICS)\n";
    return 2;
  }

  std::ifstream f(path);
  if (!f) {
    std::cerr << "error: cannot read " << path << "\n";
    return 1;
  }

  std::vector<Record> records;
  std::size_t bad_lines = 0;
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty()) {
      continue;
    }
    Record r;
    if (parse_record(line, r)) {
      records.push_back(std::move(r));
    } else {
      ++bad_lines;
    }
  }
  if (records.empty()) {
    std::cerr << "error: no metrics records in " << path << "\n";
    return 1;
  }

  std::size_t with_counters = 0;
  std::size_t max_threads = 1;
  for (const Record& r : records) {
    with_counters += r.has_counters ? 1 : 0;
    max_threads = std::max(max_threads, r.threads);
  }
  std::cout << "=== profile report: " << path << " (" << records.size()
            << " records, " << with_counters << " with hardware counters";
  if (bad_lines > 0) {
    std::cout << ", " << bad_lines << " unparseable lines skipped";
  }
  std::cout << ") ===\n\n";

  // 1. Per-(format, threads) aggregate — the Fig. 7/8 summary view.
  struct Agg {
    MaybeMean mflops, speedup, ipc, cycles_per_nnz, misses_per_knnz,
        imbalance, bytes_per_nnz, frac_roofline, probe_ms, reduce_share;
    std::size_t runs = 0;
  };
  std::map<std::tuple<std::string, std::string, std::string, std::string,
                      std::string, std::size_t>,
           Agg>
      by_cell;
  for (const Record& r : records) {
    Agg& a = by_cell[{r.format, r.isa, r.numa, r.schedule, r.tuned,
                      r.threads}];
    ++a.runs;
    if (r.tuned == "yes") {
      a.probe_ms.add(static_cast<double>(r.probe_ns) * 1e-6);
    }
    a.mflops.add(r.mflops);
    if (r.speedup > 0.0) {
      a.speedup.add(r.speedup);
    }
    if (r.imbalance > 0.0) {
      a.imbalance.add(r.imbalance);
    }
    if (r.has_counters) {
      a.ipc.add(r.ipc);
      a.cycles_per_nnz.add(r.cycles_per_nnz);
      if (r.has_llc) {
        a.misses_per_knnz.add(r.misses_per_knnz);
      }
    }
    if (r.bytes_per_nnz > 0.0) {
      a.bytes_per_nnz.add(r.bytes_per_nnz);
    }
    if (r.frac_roofline > 0.0) {
      a.frac_roofline.add(r.frac_roofline);
    }
    if (r.has_sym) {
      a.reduce_share.add(r.reduce_share);
    }
  }
  spc::TextTable summary({"format", "isa", "numa", "sched", "tuned",
                          "threads", "runs", "MFLOPS", "speedup",
                          "IPC", "cyc/nnz", "miss/knnz", "B/nnz",
                          "roofline", "probe_ms", "red share",
                          "imbalance"});
  bool any_roofline = false;
  for (const auto& [key, a] : by_cell) {
    any_roofline = any_roofline || a.frac_roofline.n > 0;
    summary.add_row({std::get<0>(key), std::get<1>(key), std::get<2>(key),
                     std::get<3>(key), std::get<4>(key),
                     std::to_string(std::get<5>(key)),
                     std::to_string(a.runs), a.mflops.fmt(1),
                     a.speedup.fmt(2), a.ipc.fmt(2),
                     a.cycles_per_nnz.fmt(1), a.misses_per_knnz.fmt(2),
                     a.bytes_per_nnz.fmt(1), a.frac_roofline.fmt(2),
                     a.probe_ms.fmt(2), a.reduce_share.fmt(2),
                     a.imbalance.fmt(2)});
  }
  std::cout << "per-(format, isa, numa, schedule, tuned, threads) "
               "aggregate:\n";
  summary.print(std::cout);

  // 2. Per-matrix detail at the highest thread count, sorted by speedup
  //    (the paper sorts its Fig. 7/8 bars the same way).
  std::vector<const Record*> detail;
  for (const Record& r : records) {
    if (r.threads == max_threads) {
      detail.push_back(&r);
    }
  }
  std::sort(detail.begin(), detail.end(),
            [](const Record* a, const Record* b) {
              if (a->speedup != b->speedup) {
                return a->speedup < b->speedup;
              }
              return a->matrix < b->matrix;
            });
  spc::TextTable per_matrix({"matrix", "set", "format", "isa", "speedup",
                             "MFLOPS", "IPC", "cyc/nnz", "miss/knnz",
                             "imbalance"});
  for (const Record* r : detail) {
    per_matrix.add_row(
        {r->matrix, r->set, r->format, r->isa,
         r->speedup > 0.0 ? f2(r->speedup) : "-", f1(r->mflops),
         r->has_counters ? f2(r->ipc) : "-",
         r->has_counters ? f1(r->cycles_per_nnz) : "-",
         r->has_llc ? f2(r->misses_per_knnz) : "-",
         r->imbalance > 0.0 ? f2(r->imbalance) : "-"});
  }
  std::cout << "\nper-matrix detail at " << max_threads
            << " thread(s), sorted by speedup:\n";
  per_matrix.print(std::cout);

  if (with_counters == 0) {
    std::cout << "\nnote: hardware counters were unavailable for every "
                 "record (SPC_COUNTERS=0, perf_event_paranoid, or "
                 "platform limits); wall-clock columns remain valid.\n";
  }
  if (!any_roofline) {
    std::cout << "\nnote: no roofline attribution in these records — set "
                 "SPC_ROOFLINE_GBPS (or run regress_check --calibrate) "
                 "to record fraction-of-roofline per cell.\n";
  }
  return 0;
}
