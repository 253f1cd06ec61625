// Per-matrix autotuner: features → cost-model pruning → empirical probe.
//
// No single format wins everywhere (the paper's own Tables II–IV switch
// winners matrix by matrix), so `auto_instance` picks the configuration
// per (matrix, machine) in three stages:
//   1. extract_features + prune_candidates (cost.hpp) cut the format
//      pool to a few plausible candidates from structure alone;
//   2. a short *interleaved* timed probe measures the survivors — the
//      candidates take turns round-robin (the regress_check sub-pass
//      trick), so slow frequency/thermal drift hits every candidate
//      equally instead of biasing whichever ran last — and the lowest
//      median wins, with a tie margin in plain CSR's favor so noise can
//      never auto-select a regression over the default;
//   3. the winner is persisted in the tuning cache (cache.hpp), and any
//      later run with the same matrix fingerprint, machine id, and
//      execution context skips stages 1–2 entirely (probe_ns == 0).
//
// The returned SpmvInstance carries TuneProvenance so the bench harness
// records tuned / cache_hit / probe_ns / source alongside the cell.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "spc/spmv/instance.hpp"
#include "spc/tune/cost.hpp"
#include "spc/tune/features.hpp"

namespace spc::tune {

struct TuneOptions {
  /// Interleaved probe shape: `rounds` passes over the candidate set,
  /// `iters_per_round` timed runs per candidate per pass, after
  /// `warmup` untimed runs each. 3×4 keeps the probe under ~25 SpMV
  /// runs per candidate-set while still pooling samples across drift.
  std::size_t rounds = 3;
  std::size_t iters_per_round = 4;
  std::size_t warmup = 1;
  std::size_t max_candidates = 4;
  /// A compressed candidate must beat CSR's median by more than this
  /// relative margin to dethrone it — the baseline wins ties.
  double csr_tie_margin = 0.03;
  bool use_cache = true;
  /// Empty = TuneCache::default_path() (SPC_TUNE_CACHE or
  /// results/tune_cache.jsonl).
  std::string cache_path;
  /// Times one probe run of a candidate, in nanoseconds. Empty (the
  /// default) means SpmvInstance::run_probe. Tests substitute scripted
  /// timings so their verdicts do not depend on how loaded the host is.
  std::function<std::uint64_t(SpmvInstance&, const Vector&, Vector&)>
      probe_timer;
};

struct TuneReport {
  Format chosen = Format::kCsr;
  bool cache_hit = false;
  std::uint64_t probe_ns = 0;   ///< total tuning wall time (0 on hit)
  std::string source;           ///< "cache" | "probe" | "cost-model"
  std::string fingerprint;
  TuneFeatures features;
  std::vector<Format> candidates;       ///< post-pruning, probe order
  std::vector<double> median_probe_ns;  ///< per candidate; empty on hit
};

/// True when SPC_TUNE requests auto format selection (1|true|on|yes).
/// format=auto entry points consult this; hand-picked formats ignore it.
bool tune_enabled();

/// Builds the auto-selected instance for `t` under `opts` (the same
/// options a hand-constructed instance would get — schedule and
/// sym-reduce requests apply to every candidate equally). Emits
/// spc.tune.* metrics and stamps the returned instance's provenance.
SpmvInstance auto_instance(const Triplets& t, std::size_t nthreads = 1,
                           const InstanceOptions& opts = {},
                           const TuneOptions& topts = {},
                           TuneReport* report = nullptr);

/// Format-only selection for callers that build the instance themselves
/// — the serving engine registers a matrix by picking its format here,
/// then constructing the instance against its shared pool. Same staged
/// flow and cache as auto_instance (a warm cache answers without
/// probing, probe_ns == 0); the probe instances are discarded. A cached
/// format name this build cannot parse falls back to a re-probe, but a
/// cached format the matrix can no longer encode surfaces when the
/// caller constructs (auto_instance additionally validates by building).
Format pick_format(const Triplets& t, std::size_t nthreads = 1,
                   const InstanceOptions& opts = {},
                   const TuneOptions& topts = {},
                   TuneReport* report = nullptr);

}  // namespace spc::tune
