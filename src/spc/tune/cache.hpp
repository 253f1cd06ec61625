// Persistent tuning cache: probed winners, keyed by matrix and machine.
//
// Probing costs a handful of SpMV encodings and timed runs — fine once,
// wrong on every run of a production service. The cache remembers each
// probe's winner in a JSONL file beside the run-ledger (results/ by
// convention, SPC_TUNE_CACHE to relocate), keyed by the matrix content
// fingerprint plus the MachineFingerprint id plus the execution context
// (threads, isa, numa, schedule). A repeat run on the same
// matrix and machine constructs the cached winner directly and skips
// the probe entirely (probe_ns == 0 in the bench provenance); a run on
// different hardware, a different thread count, or a touched matrix
// misses — entries are never reused across machines, the id is part of
// the key. Unreadable lines are counted and skipped, and a cache that
// cannot be written degrades to a warning, never an error: tuning must
// work from a read-only checkout.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace spc::tune {

struct TuneCacheKey {
  std::string matrix_fp;   ///< matrix_fingerprint() hex
  std::string machine_id;  ///< obs::MachineFingerprint::id()
  std::size_t threads = 1;
  std::string isa;         ///< active tier name
  std::string numa;        ///< requested policy name (env-resolved)
  std::string schedule;    ///< requested schedule name (env-resolved)

  std::string key() const;
};

struct TuneCacheEntry {
  TuneCacheKey key;
  std::string format;            ///< winning format_name()
  std::uint64_t probe_ns = 0;    ///< wall time the original probe cost
  double best_ns_per_iter = 0.0; ///< the winner's median probe time
  std::string git_sha;           ///< revision that probed
};

class TuneCache {
 public:
  /// Binds to `path` and loads any existing entries (missing file =
  /// empty cache). Later lines win on duplicate keys, so re-probing a
  /// matrix simply appends the fresher verdict.
  explicit TuneCache(std::string path);

  /// SPC_TUNE_CACHE, or "results/tune_cache.jsonl" when unset.
  static std::string default_path();

  const std::string& path() const { return path_; }

  /// True and fills *out when an entry with exactly this key exists.
  bool lookup(const TuneCacheKey& key, TuneCacheEntry* out) const;

  /// Appends the entry to the file (creating parent directories as
  /// needed) and to the in-memory view. An unwritable path warns once
  /// per process and keeps the in-memory entry, so the process still
  /// benefits from its own probes.
  void store(const TuneCacheEntry& entry);

  std::size_t size() const { return entries_.size(); }
  /// Lines of the backing file that failed to parse at load.
  std::size_t bad_lines() const { return bad_lines_; }

 private:
  std::string path_;
  std::map<std::string, TuneCacheEntry> entries_;
  std::size_t bad_lines_ = 0;
};

}  // namespace spc::tune
