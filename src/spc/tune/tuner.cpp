#include "spc/tune/tuner.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "spc/mm/vector.hpp"
#include "spc/obs/ledger.hpp"
#include "spc/obs/metrics.hpp"
#include "spc/obs/trace.hpp"
#include "spc/spmv/dispatch.hpp"
#include "spc/support/env.hpp"
#include "spc/support/error.hpp"
#include "spc/support/rng.hpp"
#include "spc/support/stats.hpp"
#include "spc/support/timing.hpp"
#include "spc/tune/cache.hpp"

namespace spc::tune {

namespace {

// The cache key's execution context: the *requested* configuration
// after env overrides, matching what every candidate instance will be
// built with. Resolution that depends on the matrix (e.g. a steal
// schedule degenerating to static) happens identically inside each
// candidate, so it does not belong in the key; resolution that depends
// on the machine is covered by machine_id.
TuneCacheKey make_key(const std::string& fingerprint, std::size_t nthreads,
                      const InstanceOptions& opts) {
  TuneCacheKey key;
  key.matrix_fp = fingerprint;
  key.machine_id = obs::machine_fingerprint().id();
  key.threads = nthreads;
  key.isa = isa_tier_name(active_isa_tier());
  key.schedule = schedule_name(schedule_from_env(opts.schedule));
  return key;
}

void stamp(SpmvInstance& inst, const TuneReport& rep) {
  SpmvInstance::TuneProvenance p;
  p.tuned = true;
  p.cache_hit = rep.cache_hit;
  p.probe_ns = rep.probe_ns;
  p.source = rep.source;
  p.fingerprint = rep.fingerprint;
  inst.set_tune_provenance(std::move(p));
}

// The staged selection shared by auto_instance and pick_format. Fills
// `rep`; returns the winning instance when `want_instance` (always
// non-null then), nullptr when the caller only wants the format.
std::unique_ptr<SpmvInstance> pick(const Triplets& t, std::size_t nthreads,
                                   const InstanceOptions& opts,
                                   const TuneOptions& topts,
                                   bool want_instance, TuneReport& rep) {
  obs::Registry& reg = obs::Registry::global();
  reg.counter("spc.tune.requests").add();
  obs::TraceSpan span("tune");
  const std::uint64_t t_begin = now_ns();
  rep.features = extract_features(t);
  rep.fingerprint = rep.features.fingerprint;
  rep.candidates = prune_candidates(rep.features, topts.max_candidates);

  const std::string cache_path =
      topts.cache_path.empty() ? TuneCache::default_path() : topts.cache_path;
  const TuneCacheKey key = make_key(rep.fingerprint, nthreads, opts);

  if (topts.use_cache) {
    TuneCache cache(cache_path);
    TuneCacheEntry hit;
    if (cache.lookup(key, &hit)) {
      try {
        const Format fmt = parse_format(hit.format);
        // Format-only callers build later themselves; auto_instance
        // validates here so an unencodable cached pick re-probes.
        std::unique_ptr<SpmvInstance> inst;
        if (want_instance) {
          inst = std::make_unique<SpmvInstance>(t, fmt, nthreads, opts);
        }
        reg.counter("spc.tune.cache_hits").add();
        rep.chosen = fmt;
        rep.cache_hit = true;
        rep.probe_ns = 0;  // the whole point: repeat runs skip the probe
        rep.source = "cache";
        return inst;
      } catch (const Error&) {
        // Unknown format name (older/newer writer) or a matrix this
        // build refuses to encode: treat as a miss and re-probe.
      }
    }
  }

  if (rep.candidates.size() == 1) {
    // The model left no choice to measure; skip the probe.
    std::unique_ptr<SpmvInstance> inst;
    if (want_instance) {
      inst = std::make_unique<SpmvInstance>(t, rep.candidates[0], nthreads,
                                            opts);
    }
    rep.chosen = rep.candidates[0];
    rep.probe_ns = now_ns() - t_begin;
    rep.source = "cost-model";
    return inst;
  }

  // Build every surviving candidate once (the encodings coexist for the
  // probe's duration — bounded by max_candidates), dropping any the
  // encoder refuses.
  std::vector<std::unique_ptr<SpmvInstance>> insts;
  std::vector<Format> built;
  for (const Format fmt : rep.candidates) {
    try {
      insts.push_back(
          std::make_unique<SpmvInstance>(t, fmt, nthreads, opts));
      built.push_back(fmt);
    } catch (const Error&) {
      // e.g. a guarded encoder bailing on a pathological shape.
    }
  }
  if (insts.empty()) {
    insts.push_back(
        std::make_unique<SpmvInstance>(t, Format::kCsr, nthreads, opts));
    built.push_back(Format::kCsr);
  }
  rep.candidates = built;

  Rng rng(0x7a11ull ^ t.nnz());
  const Vector x = random_vector(t.ncols(), rng);
  Vector y(t.nrows(), 0.0);
  for (auto& inst : insts) {
    for (std::size_t w = 0; w < topts.warmup; ++w) {
      inst->run(x, y);
    }
  }

  // Interleaved rounds: candidate i's samples are spread across the
  // probe's whole duration, so monotone drift cancels in the medians.
  std::vector<std::vector<double>> samples(insts.size());
  const std::size_t rounds = std::max<std::size_t>(topts.rounds, 1);
  const std::size_t iters = std::max<std::size_t>(topts.iters_per_round, 1);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < insts.size(); ++i) {
      for (std::size_t k = 0; k < iters; ++k) {
        samples[i].push_back(static_cast<double>(
            topts.probe_timer ? topts.probe_timer(*insts[i], x, y)
                              : insts[i]->run_probe(x, y)));
      }
    }
  }

  rep.median_probe_ns.resize(insts.size());
  std::size_t best = 0;
  for (std::size_t i = 0; i < insts.size(); ++i) {
    rep.median_probe_ns[i] = median(samples[i]);
    if (rep.median_probe_ns[i] < rep.median_probe_ns[best]) {
      best = i;
    }
  }
  // Baseline hysteresis: CSR keeps the cell unless a candidate is
  // faster by more than the tie margin. On the large matrices that
  // matter, real compression wins are far outside the margin; on small
  // noisy ones this pins auto to the default it must never lose to.
  for (std::size_t i = 0; i < built.size(); ++i) {
    if (built[i] == Format::kCsr && i != best &&
        rep.median_probe_ns[i] <=
            rep.median_probe_ns[best] * (1.0 + topts.csr_tie_margin)) {
      best = i;
      break;
    }
  }

  rep.chosen = built[best];
  rep.probe_ns = now_ns() - t_begin;
  rep.source = "probe";
  reg.counter("spc.tune.probes").add();
  reg.counter("spc.tune.probe_ns").add(rep.probe_ns);

  if (topts.use_cache) {
    TuneCacheEntry entry;
    entry.key = key;
    entry.format = format_name(rep.chosen);
    entry.probe_ns = rep.probe_ns;
    entry.best_ns_per_iter = rep.median_probe_ns[best];
    entry.git_sha = obs::build_git_sha();
    TuneCache cache(cache_path);
    cache.store(entry);
  }

  if (!want_instance) {
    return nullptr;
  }
  return std::move(insts[best]);
}

}  // namespace

bool tune_enabled() { return env_flag("SPC_TUNE").value_or(false); }

SpmvInstance auto_instance(const Triplets& t, std::size_t nthreads,
                           const InstanceOptions& opts,
                           const TuneOptions& topts, TuneReport* report) {
  TuneReport rep;
  std::unique_ptr<SpmvInstance> inst =
      pick(t, nthreads, opts, topts, /*want_instance=*/true, rep);
  stamp(*inst, rep);
  if (report != nullptr) {
    *report = std::move(rep);
  }
  return std::move(*inst);
}

Format pick_format(const Triplets& t, std::size_t nthreads,
                   const InstanceOptions& opts, const TuneOptions& topts,
                   TuneReport* report) {
  TuneReport rep;
  pick(t, nthreads, opts, topts, /*want_instance=*/false, rep);
  const Format chosen = rep.chosen;
  if (report != nullptr) {
    *report = std::move(rep);
  }
  return chosen;
}

}  // namespace spc::tune
