// Autotuner subsystem tests: content fingerprinting, the persistent
// tuning cache's durability and isolation properties, cost-model
// pruning invariants, and — the property the whole feature rests on —
// that an auto-selected instance computes exactly what the same
// hand-selected instance would.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "spc/gen/generators.hpp"
#include "spc/obs/json.hpp"
#include "spc/spmv/instance.hpp"
#include "spc/tune/cache.hpp"
#include "spc/tune/cost.hpp"
#include "spc/tune/features.hpp"
#include "spc/tune/tuner.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

// ---------------------------------------------------------------- features

TEST(Fingerprint, StableAcrossInsertionOrder) {
  // The same coordinates added in three different orders must hash
  // identically once canonicalized — the cache key must not depend on
  // how a caller happened to assemble its triplets.
  Triplets a(4, 4);
  a.add(0, 0, 1.5);
  a.add(1, 2, -2.0);
  a.add(3, 3, 0.25);
  a.add(2, 1, 4.0);
  a.sort_and_combine();

  Triplets b(4, 4);
  b.add(2, 1, 4.0);
  b.add(3, 3, 0.25);
  b.add(0, 0, 1.5);
  b.add(1, 2, -2.0);
  b.sort_and_combine();

  Triplets c(4, 4);  // duplicate that combines into the same entry set
  c.add(3, 3, 0.25);
  c.add(1, 2, -1.0);
  c.add(0, 0, 1.5);
  c.add(1, 2, -1.0);
  c.add(2, 1, 4.0);
  c.sort_and_combine();

  const std::string fp = tune::matrix_fingerprint(a);
  EXPECT_EQ(fp.size(), 16u);
  EXPECT_EQ(fp.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(tune::matrix_fingerprint(b), fp);
  EXPECT_EQ(tune::matrix_fingerprint(c), fp);
}

TEST(Fingerprint, SensitiveToEveryContentAxis) {
  const Triplets base = test::paper_matrix();
  const std::string fp = tune::matrix_fingerprint(base);

  {  // a single value bit-flip
    Triplets t = test::paper_matrix();
    Triplets u(t.nrows(), t.ncols());
    for (const Entry& e : t.entries()) {
      u.add(e.row, e.col, e.row == 0 && e.col == 0 ? e.val + 1e-9 : e.val);
    }
    u.sort_and_combine();
    EXPECT_NE(tune::matrix_fingerprint(u), fp);
  }
  {  // a moved coordinate
    Triplets t = test::paper_matrix();
    Triplets u(t.nrows(), t.ncols());
    for (const Entry& e : t.entries()) {
      u.add(e.row, e.row == 2 && e.col == 2 ? 3 : e.col, e.val);
    }
    u.sort_and_combine();
    EXPECT_NE(tune::matrix_fingerprint(u), fp);
  }
  {  // same entries, wider dimensions
    Triplets t = test::paper_matrix();
    Triplets u(t.nrows(), t.ncols() + 1);
    for (const Entry& e : t.entries()) {
      u.add(e.row, e.col, e.val);
    }
    u.sort_and_combine();
    EXPECT_NE(tune::matrix_fingerprint(u), fp);
  }
}

TEST(Features, PaperMatrixShape) {
  const tune::TuneFeatures f = tune::extract_features(test::paper_matrix());
  EXPECT_EQ(f.fingerprint, tune::matrix_fingerprint(test::paper_matrix()));
  // All the paper matrix's deltas fit one byte.
  EXPECT_DOUBLE_EQ(f.delta_share[0], 1.0);
  EXPECT_DOUBLE_EQ(f.delta_share[1] + f.delta_share[2] + f.delta_share[3],
                   0.0);
  EXPECT_GT(f.mean_row_span, 0.0);
}

// ------------------------------------------------------------------- cache

tune::TuneCacheEntry sample_entry(const std::string& machine_id,
                                  const std::string& format) {
  tune::TuneCacheEntry e;
  e.key.matrix_fp = "00112233445566aa";
  e.key.machine_id = machine_id;
  e.key.threads = 4;
  e.key.isa = "avx2";
  e.key.numa = "off";
  e.key.schedule = "static";
  e.format = format;
  e.probe_ns = 123456;
  e.best_ns_per_iter = 789.5;
  e.git_sha = "abc123";
  return e;
}

TEST(TuneCache, RoundTripAndLaterLinesWin) {
  const std::string path = ::testing::TempDir() + "/spc_tune_rt.jsonl";
  std::remove(path.c_str());
  {
    tune::TuneCache cache(path);
    EXPECT_EQ(cache.size(), 0u);
    cache.store(sample_entry("m1", "csr"));
    cache.store(sample_entry("m1", "csr-du"));  // same key, fresher verdict
  }
  tune::TuneCache back(path);
  EXPECT_EQ(back.bad_lines(), 0u);
  EXPECT_EQ(back.size(), 1u);  // later line replaced the earlier one
  tune::TuneCacheEntry hit;
  ASSERT_TRUE(back.lookup(sample_entry("m1", "").key, &hit));
  EXPECT_EQ(hit.format, "csr-du");
  EXPECT_EQ(hit.probe_ns, 123456u);
  EXPECT_DOUBLE_EQ(hit.best_ns_per_iter, 789.5);
  EXPECT_EQ(hit.git_sha, "abc123");
}

TEST(TuneCache, BadAndTruncatedLinesAreCountedNotFatal) {
  const std::string path = ::testing::TempDir() + "/spc_tune_bad.jsonl";
  std::remove(path.c_str());
  {
    tune::TuneCache cache(path);
    cache.store(sample_entry("m1", "csr-vi"));
  }
  {
    std::ofstream f(path, std::ios::app);
    f << "this is not json\n";
    f << "{\"tune\":\"v1\",\"matrix_fp\":\"ab\n";  // truncated mid-string
    f << "{\"tune\":\"v1\"}\n";                    // parses, missing fields
    f << "{\"bench\":\"not-a-tune-record\"}\n";    // foreign JSONL row
    f << "\n";                                     // blanks are fine
  }
  tune::TuneCache back(path);
  EXPECT_EQ(back.bad_lines(), 4u);
  EXPECT_EQ(back.size(), 1u);
  tune::TuneCacheEntry hit;
  EXPECT_TRUE(back.lookup(sample_entry("m1", "").key, &hit));
  EXPECT_EQ(hit.format, "csr-vi");
}

TEST(TuneCache, CrossMachineEntriesAreIncomparable) {
  const std::string path = ::testing::TempDir() + "/spc_tune_xmachine.jsonl";
  std::remove(path.c_str());
  tune::TuneCache cache(path);
  cache.store(sample_entry("machine-a", "csr-du"));
  // Identical matrix and execution context on different hardware: the
  // machine id is part of the key, so the entry must never be reused.
  EXPECT_FALSE(cache.lookup(sample_entry("machine-b", "").key, nullptr));
  EXPECT_TRUE(cache.lookup(sample_entry("machine-a", "").key, nullptr));
  // And the key string itself differs, so compare/merge tooling can
  // never silently join them either.
  EXPECT_NE(sample_entry("machine-a", "").key.key(),
            sample_entry("machine-b", "").key.key());
}

TEST(TuneCache, UnwritablePathDegradesToInMemory) {
  // Parent "directory" is a regular file, so neither create_directories
  // nor the append-open can succeed.
  const std::string blocker = ::testing::TempDir() + "/spc_tune_blocker";
  {
    std::ofstream f(blocker);
    f << "x";
  }
  tune::TuneCache cache(blocker + "/sub/cache.jsonl");
  cache.store(sample_entry("m1", "csr"));
  EXPECT_EQ(cache.size(), 1u);  // this process still benefits
  EXPECT_TRUE(cache.lookup(sample_entry("m1", "").key, nullptr));
  tune::TuneCache reread(blocker + "/sub/cache.jsonl");
  EXPECT_EQ(reread.size(), 0u);  // nothing persisted, nothing corrupted
}

// -------------------------------------------------------------- cost model

tune::TuneFeatures synthetic_features() {
  tune::TuneFeatures f;
  f.stats.nrows = 1000;
  f.stats.ncols = 1000;
  f.stats.nnz = 20000;
  f.stats.row_len_mean = 20.0;
  f.stats.unique_values = 100;
  f.stats.ttu = 200.0;
  f.delta_share[0] = 1.0;
  f.span_share[0] = 1.0;
  return f;
}

TEST(CostModel, ApplicabilityCriteria) {
  tune::TuneFeatures f = synthetic_features();
  EXPECT_TRUE(tune::predict_format(f, Format::kCsr).applicable);
  EXPECT_TRUE(tune::predict_format(f, Format::kCsr16).applicable);
  EXPECT_TRUE(tune::predict_format(f, Format::kCsrVi).applicable);
  EXPECT_TRUE(tune::predict_format(f, Format::kCsrDu).applicable);
  EXPECT_TRUE(tune::predict_format(f, Format::kCsrDuVi).applicable);

  f.stats.ttu = 2.0;  // below the §VI-E criterion
  EXPECT_FALSE(tune::predict_format(f, Format::kCsrVi).applicable);
  EXPECT_FALSE(tune::predict_format(f, Format::kCsrDuVi).applicable);

  f = synthetic_features();
  f.stats.ncols = 70000;  // past the u16 column range
  EXPECT_FALSE(tune::predict_format(f, Format::kCsr16).applicable);
}

TEST(CostModel, PredictionsAreOrderedSanely) {
  const tune::TuneFeatures f = synthetic_features();
  const auto csr = tune::predict_format(f, Format::kCsr);
  const auto csr16 = tune::predict_format(f, Format::kCsr16);
  const auto du = tune::predict_format(f, Format::kCsrDu);
  // 12 B/nnz CSR baseline plus amortized row pointers.
  EXPECT_NEAR(csr.matrix_bytes_per_nnz, 12.0 + 4.0 * 1001.0 / 20000.0,
              1e-9);
  // Halving the index always beats full CSR; all-u8 deltas beat both.
  EXPECT_LT(csr16.matrix_bytes_per_nnz, csr.matrix_bytes_per_nnz);
  EXPECT_LT(du.matrix_bytes_per_nnz, csr16.matrix_bytes_per_nnz);
  // The streamed figure adds the same vector traffic to every format.
  EXPECT_NEAR(csr.streamed_bytes_per_nnz - csr.matrix_bytes_per_nnz,
              8.0 * 2000.0 / 20000.0, 1e-9);
}

TEST(CostModel, SymmetricFormatsGateOnNumericSymmetry) {
  // Asymmetric features: the sym pair must be pruned, never probed.
  tune::TuneFeatures f = synthetic_features();
  EXPECT_FALSE(tune::predict_format(f, Format::kSymCsr).applicable);
  EXPECT_FALSE(tune::predict_format(f, Format::kSymCsrVi).applicable);
  for (const Format fmt : tune::prune_candidates(f, 10)) {
    EXPECT_FALSE(format_requires_symmetry(fmt)) << format_name(fmt);
  }

  // Structural symmetry alone is not enough — mirrored values must
  // match too (SymCsr::applicable would throw otherwise).
  f.structurally_symmetric = true;
  f.value_symmetric = false;
  EXPECT_FALSE(tune::predict_format(f, Format::kSymCsr).applicable);

  f.value_symmetric = true;
  f.ndiag = f.stats.nrows;
  const auto sym = tune::predict_format(f, Format::kSymCsr);
  const auto csr = tune::predict_format(f, Format::kCsr);
  ASSERT_TRUE(sym.applicable);
  // Half the off-diagonal stream plus a dense diagonal: well under CSR.
  EXPECT_LT(sym.matrix_bytes_per_nnz, csr.matrix_bytes_per_nnz);

  // sym-csr-vi keeps the §VI-E value-compression criterion on top.
  EXPECT_TRUE(tune::predict_format(f, Format::kSymCsrVi).applicable);
  f.stats.ttu = 2.0;
  EXPECT_FALSE(tune::predict_format(f, Format::kSymCsrVi).applicable);
  EXPECT_TRUE(tune::predict_format(f, Format::kSymCsr).applicable);
}

TEST(CostModel, PruningKeepsCsrAndRespectsCap) {
  const tune::TuneFeatures f = synthetic_features();
  for (const std::size_t cap : {1u, 2u, 4u, 10u}) {
    const std::vector<Format> c = tune::prune_candidates(f, cap);
    EXPECT_FALSE(c.empty());
    EXPECT_LE(c.size(), std::max<std::size_t>(cap, 1));
    EXPECT_NE(std::find(c.begin(), c.end(), Format::kCsr), c.end())
        << "cap " << cap << ": CSR must always be probed";
  }
  // Uncapped, an asymmetric matrix probes exactly the five
  // non-symmetric pool formats, smallest predicted stream first.
  EXPECT_EQ(tune::prune_candidates(f, 10),
            (std::vector<Format>{Format::kCsrDuVi, Format::kCsrVi,
                                 Format::kCsrDu, Format::kCsr16,
                                 Format::kCsr}));
  // An empty matrix leaves only the CSR baseline.
  tune::TuneFeatures empty;
  const std::vector<Format> c = tune::prune_candidates(empty, 4);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0], Format::kCsr);
}

// The DU formats are priced as the instance streams them — offset units
// of one 6-byte head per row plus offsets in the width of the row's
// column span — so on the Laplacians (no empty rows, rows far shorter
// than a unit) the prediction lands within 5% of the instance's bytes.
TEST(CostModel, DuPredictionsTrackTheInstancesOffsetUnits) {
  const std::pair<const char*, Triplets> fixtures[] = {
      {"lap2d", gen_laplacian_2d(200, 200)},
      {"lap3d", gen_laplacian_3d(30, 30, 30)},
  };
  for (const auto& [name, t] : fixtures) {
    const tune::TuneFeatures f = tune::extract_features(t);
    for (const Format fmt : {Format::kCsrDu, Format::kCsrDuVi}) {
      const double predicted =
          tune::predict_format(f, fmt).matrix_bytes_per_nnz;
      const SpmvInstance inst(t, fmt);
      const double actual = static_cast<double>(inst.matrix_bytes()) /
                            static_cast<double>(t.nnz());
      EXPECT_NEAR(predicted / actual, 1.0, 0.05)
          << name << " " << format_name(fmt) << ": predicted " << predicted
          << " B/nnz, instance " << actual;
    }
  }
}

// ------------------------------------------------------------------- tuner

tune::TuneOptions fast_topts(const std::string& tag) {
  tune::TuneOptions topts;
  topts.rounds = 1;
  topts.iters_per_round = 1;
  topts.warmup = 0;
  topts.cache_path = ::testing::TempDir() + "/spc_" + tag + ".jsonl";
  std::remove(topts.cache_path.c_str());
  return topts;
}

TEST(Tuner, CacheHitSkipsProbeOnRepeatRuns) {
  Rng rng(42);
  // Pooled values keep ttu high so several candidates survive pruning
  // and the first call genuinely probes.
  const Triplets t = test::random_triplets(200, 200, 3000, rng, 8);
  InstanceOptions opts;
  opts.pin_threads = false;
  const tune::TuneOptions topts = fast_topts("tune_hit");

  tune::TuneReport cold;
  SpmvInstance first = tune::auto_instance(t, 1, opts, topts, &cold);
  EXPECT_EQ(cold.source, "probe");
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_GT(cold.probe_ns, 0u);
  EXPECT_GE(cold.candidates.size(), 2u);
  EXPECT_EQ(cold.fingerprint, tune::matrix_fingerprint(t));
  EXPECT_TRUE(first.tune_provenance().tuned);
  EXPECT_EQ(first.tune_provenance().probe_ns, cold.probe_ns);

  tune::TuneReport warm;
  SpmvInstance second = tune::auto_instance(t, 1, opts, topts, &warm);
  EXPECT_EQ(warm.source, "cache");
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.probe_ns, 0u);
  EXPECT_EQ(warm.chosen, cold.chosen);
  EXPECT_EQ(second.format(), first.format());
  EXPECT_TRUE(second.tune_provenance().cache_hit);

  // A different thread count is a different cell: cold again.
  tune::TuneReport other;
  tune::auto_instance(t, 2, opts, topts, &other);
  EXPECT_FALSE(other.cache_hit);
}

TEST(Tuner, RetiredFormatNamesInTheCacheReprobe) {
  // A cache written before a format row was retired names a format this
  // build no longer runs: the line must read as a miss and re-probe.
  Rng rng(42);
  const Triplets t = test::random_triplets(200, 200, 3000, rng, 8);
  InstanceOptions opts;
  opts.pin_threads = false;
  const tune::TuneOptions topts = fast_topts("tune_retired");

  tune::TuneReport cold;
  tune::auto_instance(t, 1, opts, topts, &cold);
  ASSERT_EQ(cold.source, "probe");
  std::string line;
  {
    std::ifstream f(topts.cache_path);
    ASSERT_TRUE(std::getline(f, line));
  }
  for (const char* retired : {"dcsr", "csr-du-rle"}) {
    obs::Json j = obs::Json::parse(line);
    j.set("format", retired);
    {
      std::ofstream f(topts.cache_path, std::ios::app);
      f << j.dump() << '\n';  // later lines win
    }
    tune::TuneReport rep;
    SpmvInstance inst = tune::auto_instance(t, 1, opts, topts, &rep);
    EXPECT_EQ(rep.source, "probe") << retired;
    EXPECT_FALSE(rep.cache_hit) << retired;
    EXPECT_NE(std::find(rep.candidates.begin(), rep.candidates.end(),
                        rep.chosen),
              rep.candidates.end())
        << retired;
    EXPECT_EQ(inst.format(), rep.chosen) << retired;
  }
}

TEST(Tuner, VersionOneCacheLinesAreBadLinesAndReprobe) {
  // v1 lines keyed matrices by the byte-wise FNV-1a fingerprint. A v1
  // line for this very cell must count as a bad line, not throw, and
  // leave the tuner to probe again.
  Rng rng(42);
  const Triplets t = test::random_triplets(200, 200, 3000, rng, 8);
  InstanceOptions opts;
  opts.pin_threads = false;
  const tune::TuneOptions topts = fast_topts("tune_v1_line");

  tune::TuneReport cold;
  tune::auto_instance(t, 1, opts, topts, &cold);
  ASSERT_EQ(cold.source, "probe");
  std::string line;
  {
    std::ifstream f(topts.cache_path);
    ASSERT_TRUE(std::getline(f, line));
  }
  obs::Json j = obs::Json::parse(line);
  j.set("tune", "v1");
  {
    std::ofstream f(topts.cache_path, std::ios::trunc);
    f << j.dump() << '\n';
  }
  EXPECT_EQ(tune::TuneCache(topts.cache_path).bad_lines(), 1u);
  EXPECT_EQ(tune::TuneCache(topts.cache_path).size(), 0u);
  tune::TuneReport again;
  tune::auto_instance(t, 1, opts, topts, &again);
  EXPECT_EQ(again.source, "probe");
  EXPECT_FALSE(again.cache_hit);
}

TEST(Tuner, CacheLinesWithATilingFieldStillHit) {
  // Cache lines written while the key carried a column-tiling setting
  // hold "tiling":"auto". The field is no longer part of the key, so
  // such a line must hit for the same matrix, machine and execution
  // context instead of forcing a re-probe.
  Rng rng(42);
  const Triplets t = test::random_triplets(200, 200, 3000, rng, 8);
  InstanceOptions opts;
  opts.pin_threads = false;
  const tune::TuneOptions topts = fast_topts("tune_tiling_field");

  tune::TuneReport cold;
  tune::auto_instance(t, 1, opts, topts, &cold);
  ASSERT_EQ(cold.source, "probe");
  std::string line;
  {
    std::ifstream f(topts.cache_path);
    ASSERT_TRUE(std::getline(f, line));
  }
  // Name a format other than the probed winner, so a hit can only come
  // from the rewritten line.
  const Format old_pick =
      cold.chosen == Format::kCsr ? Format::kCsrVi : Format::kCsr;
  obs::Json j = obs::Json::parse(line);
  j.set("tiling", "auto");
  j.set("format", format_name(old_pick));
  {
    std::ofstream f(topts.cache_path, std::ios::trunc);
    f << j.dump() << '\n';
  }
  tune::TuneReport rep;
  SpmvInstance inst = tune::auto_instance(t, 1, opts, topts, &rep);
  EXPECT_EQ(rep.source, "cache");
  EXPECT_TRUE(rep.cache_hit);
  EXPECT_EQ(rep.probe_ns, 0u);
  EXPECT_EQ(rep.chosen, old_pick);
  EXPECT_EQ(inst.format(), old_pick);
}

// A + A^T: numerically symmetric by construction, and pooled source
// values keep the sum pool small so ttu stays CSR-VI friendly.
Triplets symmetrized(const Triplets& a) {
  Triplets s(a.nrows(), a.ncols());
  for (const Entry& e : a.entries()) {
    s.add(e.row, e.col, e.val);
    s.add(e.col, e.row, e.val);
  }
  s.sort_and_combine();
  return s;
}

TEST(Tuner, SymmetricMatrixProbesSymFormatsAndCrownsTheScriptedWinner) {
  // The probe's timer is scripted, so the verdict tests the tuner, not
  // which format this host happens to run fastest (bench/
  // ablation_symmetric measures that). Every candidate but the CSR
  // baseline is scripted to win in turn, so a tuner that ignored the
  // timings would crown the wrong format at least once.
  test::ScopedEnv isa("SPC_ISA", "scalar");
  Rng rng(88);
  const Triplets t = symmetrized(
      gen_banded(20000, 60, 30, rng, ValueModel::pooled(8)));
  ASSERT_TRUE(SymCsr::applicable(t));
  const tune::TuneFeatures f = tune::extract_features(t);
  EXPECT_TRUE(f.structurally_symmetric);
  EXPECT_TRUE(f.value_symmetric);
  EXPECT_EQ(f.ndiag, t.nrows());

  InstanceOptions opts;
  opts.pin_threads = false;
  const tune::TuneOptions base = fast_topts("tune_sym");
  const std::vector<Format> candidates =
      tune::prune_candidates(f, base.max_candidates);
  std::vector<Format> winners;
  for (const Format c : candidates) {
    if (c != Format::kCsr) {
      winners.push_back(c);
    }
  }
  ASSERT_TRUE(std::any_of(winners.begin(), winners.end(),
                          format_requires_symmetry));
  ASSERT_GE(winners.size(), 2u);

  for (const Format winner : winners) {
    const std::string name = format_name(winner);
    tune::TuneOptions topts = fast_topts("tune_sym_" + name);
    topts.rounds = 2;
    topts.iters_per_round = 3;
    std::vector<Format> probed;
    topts.probe_timer = [&](SpmvInstance& inst, const Vector& x,
                            Vector& y) -> std::uint64_t {
      probed.push_back(inst.format());
      inst.run(x, y);
      return inst.format() == winner ? 1000 : 2000;
    };

    tune::TuneReport cold;
    SpmvInstance inst = tune::auto_instance(t, 1, opts, topts, &cold);
    EXPECT_EQ(cold.candidates, candidates) << name;
    for (const Format c : candidates) {
      EXPECT_NE(std::find(probed.begin(), probed.end(), c), probed.end())
          << format_name(c) << " was not probed";
    }
    EXPECT_EQ(cold.source, "probe") << name;
    EXPECT_EQ(cold.chosen, winner)
        << "probe chose " << format_name(cold.chosen) << ", scripted " << name;
    EXPECT_EQ(inst.format(), winner);

    // The verdict is cached: the one cache line names the winner.
    EXPECT_EQ(tune::TuneCache(topts.cache_path).size(), 1u) << name;
    {
      std::ifstream file(topts.cache_path);
      std::string line;
      ASSERT_TRUE(std::getline(file, line));
      EXPECT_EQ(obs::Json::parse(line).find("format")->as_string(), name);
    }

    // Warm rerun: the verdict comes from the cache without probing.
    probed.clear();
    tune::TuneReport warm;
    SpmvInstance again = tune::auto_instance(t, 1, opts, topts, &warm);
    EXPECT_TRUE(probed.empty()) << name;
    EXPECT_TRUE(warm.cache_hit) << name;
    EXPECT_EQ(warm.probe_ns, 0u);
    EXPECT_EQ(warm.chosen, winner);
    EXPECT_EQ(again.format(), winner);

    // And the auto instance computes what the hand instance computes.
    Rng xr(77);
    const Vector x = random_vector(t.ncols(), xr);
    Vector y(t.nrows(), 0.0);
    inst.run(x, y);
    EXPECT_LT(rel_error(test::reference_spmv(t, x), y), 1e-12);
  }
}

// 21-seed swarm: whatever format auto picks, the instance it returns
// must be bit-identical to a hand-constructed instance of that format
// at the scalar tier — tuning may only ever change speed, never bits.
Triplets tune_fuzz_matrix(int seed) {
  Rng rng(7000 + seed);
  switch (seed % 4) {
    case 0:
      return test::random_triplets(
          1 + static_cast<index_t>(rng.next_below(300)),
          1 + static_cast<index_t>(rng.next_below(300)),
          rng.next_below(5000), rng,
          static_cast<std::uint32_t>(rng.next_below(200)));
    case 1:
      return gen_ragged(1 + static_cast<index_t>(rng.next_below(250)),
                        1 + static_cast<index_t>(rng.next_below(250)),
                        1 + static_cast<index_t>(rng.next_below(30)),
                        0.4 * rng.next_double(), rng,
                        ValueModel::pooled(12));
    case 2:
      return gen_banded(32 + static_cast<index_t>(rng.next_below(300)),
                        1 + static_cast<index_t>(rng.next_below(50)),
                        1 + static_cast<index_t>(rng.next_below(10)), rng,
                        ValueModel::random());
    default:
      return gen_rmat(6 + static_cast<std::uint32_t>(rng.next_below(4)),
                      400 + rng.next_below(3000), rng,
                      ValueModel::pooled(6));
  }
}

class TunerFuzz : public ::testing::TestWithParam<int> {};

TEST_P(TunerFuzz, AutoSelectionIsBitIdenticalToHandSelection) {
  const Triplets t = tune_fuzz_matrix(GetParam());
  if (t.nnz() == 0) {
    GTEST_SKIP() << "degenerate draw";
  }
  test::ScopedEnv isa("SPC_ISA", "scalar");
  Rng xr(9300 + GetParam());
  const Vector x = random_vector(t.ncols(), xr);
  InstanceOptions opts;
  opts.pin_threads = false;
  const tune::TuneOptions topts =
      fast_topts("tune_fuzz_" + std::to_string(GetParam()));

  for (const std::size_t threads : {1u, 3u}) {
    tune::TuneReport rep;
    SpmvInstance auto_inst =
        tune::auto_instance(t, threads, opts, topts, &rep);
    EXPECT_NE(std::find(rep.candidates.begin(), rep.candidates.end(),
                        Format::kCsr),
              rep.candidates.end());
    SpmvInstance hand(t, auto_inst.format(), threads, opts);

    Vector y_auto(t.nrows(), 0.0);
    Vector y_hand(t.nrows(), 1.0);  // different fill: result must overwrite
    auto_inst.run(x, y_auto);
    hand.run(x, y_hand);
    EXPECT_EQ(max_abs_diff(y_auto, y_hand), 0.0)
        << format_name(auto_inst.format()) << " x" << threads << " seed "
        << GetParam();
    EXPECT_TRUE(auto_inst.tune_provenance().tuned);
    EXPECT_FALSE(hand.tune_provenance().tuned);
  }
}

INSTANTIATE_TEST_SUITE_P(Swarm, TunerFuzz, ::testing::Range(0, 21));

}  // namespace
}  // namespace spc
