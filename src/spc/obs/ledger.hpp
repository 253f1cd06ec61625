// Performance run-ledger: provenance-rich JSONL records of bench cells.
//
// The paper's whole argument is quantitative — ns/nnz deltas between
// formats — and such deltas are fragile: they depend on the machine, the
// ISA tier, the NUMA layout, and run-to-run noise. The ledger gives every
// measurement a durable, self-describing row: a machine fingerprint
// (model, caches, nodes, ISA), the git revision that produced it, the
// full cell coordinates (bench × matrix × format × isa × numa × schedule
// × threads), and — critically — the per-iteration raw samples the
// harness used to historically discard, so statistics (median, CI,
// rank tests) can be recomputed later instead of trusting a single
// pre-aggregated mean. compare.hpp consumes two ledgers and classifies
// each shared cell regressed / improved / neutral.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "spc/obs/json.hpp"

namespace spc::obs {

/// What makes two hosts' numbers incomparable: CPU model, cache sizes,
/// NUMA layout, and the widest ISA tier the machine runs. Embedded
/// verbatim in every ledger record (and printed by bench/machine_report)
/// so runs from different machines are never compared silently.
struct MachineFingerprint {
  std::string cpu_model;        ///< /proc/cpuinfo "model name" ("" unknown)
  std::size_t cpus = 0;         ///< logical cpu count
  std::size_t numa_nodes = 1;   ///< NUMA node count
  std::size_t llc_bytes = 0;    ///< one LLC instance
  std::size_t llc_instances = 1;
  std::size_t l2_bytes = 0;
  std::string isa;              ///< detected tier name ("scalar", "avx2", ...)
  std::string hostname;

  /// Stable JSON block (insertion-ordered keys) for embedding.
  Json to_json() const;

  /// 16-hex-digit FNV-1a over the canonical JSON, *excluding* hostname:
  /// two identically configured hosts may share baselines, two different
  /// CPUs never silently do.
  std::string id() const;

  static MachineFingerprint from_json(const Json& j);
};

/// Fingerprint of the running machine, discovered once per process.
const MachineFingerprint& machine_fingerprint();

/// Git revision baked in at configure time (SPC_GIT_SHA compile
/// definition), overridable at runtime via the SPC_GIT_SHA environment
/// variable; "unknown" when neither is available.
std::string build_git_sha();

/// One parsed ledger row. Pre-ledger SPC_METRICS records (no machine_id /
/// samples_ns) still parse: their sample vector is empty and they carry
/// an empty machine id, which compare.hpp treats as incomparable rather
/// than silently matching.
struct LedgerRecord {
  std::string bench;
  std::string matrix;
  std::string cls;
  std::string set;
  std::string format;
  std::string isa;
  std::string numa;
  std::string schedule;
  std::string tuned = "no";          ///< "yes" when spc::tune chose the cell
  std::uint64_t probe_ns = 0;        ///< tuning cost (0 on cache hit/untuned)
  bool cache_hit = false;            ///< winner came from the tuning cache
  std::size_t threads = 1;

  std::string machine_id;
  std::string git_sha;

  std::uint64_t nnz = 0;
  std::size_t iterations = 0;
  double seconds = 0.0;
  double ns_per_nnz = 0.0;
  double bytes_per_nnz = 0.0;       ///< streamed-bytes model (0 if absent)
  double frac_roofline = 0.0;       ///< fraction of the §II-B bound (0 if absent)
  std::vector<double> samples_ns;   ///< per-iteration wall time, finite only

  /// Cell identity across runs (machine excluded — that is checked
  /// separately and loudly).
  std::string key() const;
};

/// Parses one record object; false when it is not a ledger/metrics row
/// (missing matrix/format). Non-finite sample entries are dropped.
bool parse_ledger_record(const Json& j, LedgerRecord* out);

/// Reads a JSONL ledger; unparseable lines are counted into *bad_lines
/// (when non-null) and skipped, never fatal.
std::vector<LedgerRecord> read_ledger(const std::string& path,
                                      std::size_t* bad_lines = nullptr);

/// Appends one record to a ledger file (creating it if needed): one
/// line, immediately flushed. Throws spc::Error when the file cannot
/// be opened.
void append_ledger(const std::string& path, const Json& record);

}  // namespace spc::obs
