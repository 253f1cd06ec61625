#include "spc/obs/compare.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "spc/support/rng.hpp"

namespace spc::obs {
namespace {

/// Noisy timing-like samples: base µs-scale value plus uniform jitter
/// and an occasional heavy-tail outlier, the shape real per-iteration
/// samples have.
std::vector<double> draw_samples(Rng& rng, std::size_t n, double center_ns,
                                 double jitter_ns) {
  std::vector<double> out(n);
  for (double& v : out) {
    v = center_ns + rng.next_double(-jitter_ns, jitter_ns);
    if (rng.next_bernoulli(0.05)) {
      v += 4.0 * jitter_ns;  // tail: an IRQ hit one iteration
    }
  }
  return out;
}

TEST(BootstrapCi, MedianInsideIntervalAndDeterministic) {
  Rng rng(7);
  const std::vector<double> s = draw_samples(rng, 64, 10000.0, 500.0);
  const BootstrapCi a = bootstrap_median_ci(s);
  EXPECT_LE(a.lo, a.median);
  EXPECT_GE(a.hi, a.median);
  EXPECT_LT(a.lo, a.hi);
  // Same samples, same seed → identical interval (reproducible verdicts).
  const BootstrapCi b = bootstrap_median_ci(s);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
}

TEST(BootstrapCi, DegenerateInputsCollapse) {
  const BootstrapCi empty = bootstrap_median_ci({});
  EXPECT_DOUBLE_EQ(empty.lo, empty.hi);
  const BootstrapCi one = bootstrap_median_ci({5.0});
  EXPECT_DOUBLE_EQ(one.median, 5.0);
  EXPECT_DOUBLE_EQ(one.lo, 5.0);
  EXPECT_DOUBLE_EQ(one.hi, 5.0);
}

TEST(BootstrapCi, WiderConfidenceWidensInterval) {
  Rng rng(11);
  const std::vector<double> s = draw_samples(rng, 48, 5000.0, 400.0);
  const BootstrapCi narrow = bootstrap_median_ci(s, 1000, 0.80);
  const BootstrapCi wide = bootstrap_median_ci(s, 1000, 0.99);
  EXPECT_LE(wide.lo, narrow.lo);
  EXPECT_GE(wide.hi, narrow.hi);
}

TEST(MannWhitney, IdenticalSamplesNotSignificant) {
  Rng rng(3);
  const std::vector<double> s = draw_samples(rng, 32, 1000.0, 100.0);
  EXPECT_GT(mann_whitney_p(s, s), 0.9);
}

TEST(MannWhitney, ClearShiftIsSignificant) {
  Rng rng(5);
  const std::vector<double> a = draw_samples(rng, 32, 1000.0, 50.0);
  std::vector<double> b = a;
  for (double& v : b) {
    v += 500.0;  // 50% shift, far beyond the jitter
  }
  EXPECT_LT(mann_whitney_p(a, b), 1e-6);
}

TEST(MannWhitney, EdgeCases) {
  EXPECT_DOUBLE_EQ(mann_whitney_p({}, {1.0}), 1.0);
  EXPECT_DOUBLE_EQ(mann_whitney_p({1.0}, {}), 1.0);
  // All values tied → zero variance → indistinguishable.
  EXPECT_DOUBLE_EQ(mann_whitney_p({2.0, 2.0, 2.0}, {2.0, 2.0}), 1.0);
}

TEST(CompareSamples, TooFewSamplesIsIncomparable) {
  const std::vector<double> few = {1.0, 2.0, 3.0};
  const CellComparison c = compare_samples(few, few);
  EXPECT_EQ(c.verdict, Verdict::kIncomparable);
  EXPECT_NE(c.note.find("too few"), std::string::npos);
}

TEST(CompareSamples, DetectsTwentyPercentSlowdown) {
  // The acceptance bar: a ~20% injected slowdown on µs-scale cells must
  // classify regressed (and the mirror image improved).
  Rng rng(17);
  const std::vector<double> base = draw_samples(rng, 96, 10000.0, 300.0);
  std::vector<double> cur = draw_samples(rng, 96, 12000.0, 300.0);
  const CellComparison slow = compare_samples(base, cur);
  EXPECT_EQ(slow.verdict, Verdict::kRegressed);
  EXPECT_GT(slow.ratio, 1.15);
  EXPECT_LT(slow.p_value, 0.01);
  const CellComparison fast = compare_samples(cur, base);
  EXPECT_EQ(fast.verdict, Verdict::kImproved);
}

TEST(CompareSamples, AbsoluteFloorMutesTinyCells) {
  // 190 ns vs 290 ns: a 1.5x ratio whose absolute size (~one cache
  // miss per iteration) is below measurement resolution — must stay
  // neutral at default thresholds no matter how significant.
  Rng rng(23);
  const std::vector<double> base = draw_samples(rng, 96, 190.0, 5.0);
  const std::vector<double> cur = draw_samples(rng, 96, 290.0, 5.0);
  const CellComparison c = compare_samples(base, cur);
  EXPECT_EQ(c.verdict, Verdict::kNeutral);
  EXPECT_NE(c.note.find("absolute floor"), std::string::npos);
  // The same shift clears a lowered floor.
  CompareThresholds th;
  th.min_effect_ns = 50.0;
  EXPECT_EQ(compare_samples(base, cur, th).verdict, Verdict::kRegressed);
}

TEST(CompareSamples, SmallEffectStaysNeutralEvenWhenSignificant) {
  // A real but tiny (2%) shift: significant under MWU at n=128, below
  // the 5% effect floor → neutral. Gates fire on meaningful moves only.
  Rng rng(29);
  const std::vector<double> base = draw_samples(rng, 128, 100000.0, 500.0);
  std::vector<double> cur = base;
  for (double& v : cur) {
    v *= 1.02;
  }
  const CellComparison c = compare_samples(base, cur);
  EXPECT_EQ(c.verdict, Verdict::kNeutral);
}

TEST(CompareSamples, AaSanityNeutralAtLeast95Percent) {
  // The contract stated in the header: two draws from one distribution
  // classify neutral ≥95% of the time at default thresholds. 200 trials
  // of 48-vs-48 samples from the same noisy distribution.
  Rng rng(0xaau);
  int neutral = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const std::vector<double> a = draw_samples(rng, 48, 8000.0, 600.0);
    const std::vector<double> b = draw_samples(rng, 48, 8000.0, 600.0);
    if (compare_samples(a, b).verdict == Verdict::kNeutral) {
      ++neutral;
    }
  }
  EXPECT_GE(neutral, trials * 95 / 100)
      << "A/A false-positive rate too high: " << (trials - neutral) << "/"
      << trials;
}

LedgerRecord make_record(const std::string& matrix, const std::string& fmt,
                         std::size_t threads, const std::string& machine,
                         std::vector<double> samples) {
  LedgerRecord r;
  r.bench = "regress_check";
  r.matrix = matrix;
  r.format = fmt;
  r.isa = "avx2";
  r.numa = "off";
  r.schedule = "static";
  r.threads = threads;
  r.machine_id = machine;
  r.git_sha = "abc";
  r.nnz = 1000;
  r.iterations = samples.size();
  r.samples_ns = std::move(samples);
  r.ns_per_nnz = 1.0;
  return r;
}

TEST(CompareLedgers, PairsCellsAndCountsOneSided) {
  Rng rng(31);
  const auto s = [&](double c) { return draw_samples(rng, 32, c, 100.0); };
  const std::vector<LedgerRecord> base = {
      make_record("m1", "csr", 1, "aaaa", s(10000.0)),
      make_record("m2", "csr", 1, "aaaa", s(10000.0)),
  };
  const std::vector<LedgerRecord> cur = {
      make_record("m1", "csr", 1, "aaaa", s(10000.0)),
      make_record("m3", "csr", 1, "aaaa", s(10000.0)),
  };
  const LedgerComparison cmp = compare_ledgers(base, cur);
  EXPECT_EQ(cmp.cells.size(), 1u);
  EXPECT_EQ(cmp.baseline_only, 1u);
  EXPECT_EQ(cmp.current_only, 1u);
  EXPECT_FALSE(cmp.has_regressions());
}

TEST(CompareLedgers, PoolsSameKeyRecords) {
  // Two 24-sample records of one cell pool into 48 samples — enough to
  // clear min_samples and compare; a single 4-sample record would not.
  Rng rng(37);
  const auto s = [&](double c) { return draw_samples(rng, 24, c, 100.0); };
  const std::vector<LedgerRecord> base = {
      make_record("m1", "csr", 1, "aaaa", s(10000.0)),
      make_record("m1", "csr", 1, "aaaa", s(10000.0)),
  };
  const std::vector<LedgerRecord> cur = {
      make_record("m1", "csr", 1, "aaaa", s(14000.0)),
      make_record("m1", "csr", 1, "aaaa", s(14000.0)),
  };
  const LedgerComparison cmp = compare_ledgers(base, cur);
  ASSERT_EQ(cmp.cells.size(), 1u);
  EXPECT_EQ(cmp.cells[0].cmp.verdict, Verdict::kRegressed);
  EXPECT_EQ(cmp.regressed, 1u);
  EXPECT_TRUE(cmp.has_regressions());
}

TEST(CompareLedgers, MachineMismatchIsLoudNotSilent) {
  Rng rng(41);
  const auto s = [&](double c) { return draw_samples(rng, 32, c, 100.0); };
  const std::vector<LedgerRecord> base = {
      make_record("m1", "csr", 1, "aaaa", s(10000.0))};
  // Twice as slow on a different machine: must NOT be called a
  // regression — it is not comparable at all.
  const std::vector<LedgerRecord> cur = {
      make_record("m1", "csr", 1, "bbbb", s(20000.0))};
  const LedgerComparison cmp = compare_ledgers(base, cur);
  ASSERT_EQ(cmp.cells.size(), 1u);
  EXPECT_EQ(cmp.cells[0].cmp.verdict, Verdict::kIncomparable);
  EXPECT_TRUE(cmp.machine_mismatch);
  EXPECT_FALSE(cmp.has_regressions());
  EXPECT_NE(cmp.to_markdown().find("machine fingerprints differ"),
            std::string::npos);
}

TEST(CompareLedgers, MissingFingerprintIsIncomparable) {
  Rng rng(43);
  const auto s = [&](double c) { return draw_samples(rng, 32, c, 100.0); };
  const std::vector<LedgerRecord> base = {
      make_record("m1", "csr", 1, "", s(10000.0))};  // pre-ledger record
  const std::vector<LedgerRecord> cur = {
      make_record("m1", "csr", 1, "aaaa", s(10000.0))};
  const LedgerComparison cmp = compare_ledgers(base, cur);
  ASSERT_EQ(cmp.cells.size(), 1u);
  EXPECT_EQ(cmp.cells[0].cmp.verdict, Verdict::kIncomparable);
}

TEST(CompareLedgers, VerdictArtifactsCarryTheCells) {
  Rng rng(47);
  const auto s = [&](double c) { return draw_samples(rng, 32, c, 100.0); };
  const std::vector<LedgerRecord> base = {
      make_record("m1", "csr", 1, "aaaa", s(10000.0)),
      make_record("m2", "csr-du", 2, "aaaa", s(10000.0)),
  };
  const std::vector<LedgerRecord> cur = {
      make_record("m1", "csr", 1, "aaaa", s(14000.0)),
      make_record("m2", "csr-du", 2, "aaaa", s(10000.0)),
  };
  const LedgerComparison cmp = compare_ledgers(base, cur);
  const Json j = cmp.to_json();
  ASSERT_NE(j.find("summary"), nullptr);
  EXPECT_EQ(j.find("summary")->find("regressed")->as_u64(), 1u);
  ASSERT_NE(j.find("cells"), nullptr);
  EXPECT_EQ(j.find("cells")->size(), 2u);
  // Regressions sort first in both artifacts.
  EXPECT_EQ(j.find("cells")->at(0).find("verdict")->as_string(),
            "regressed");
  const std::string md = cmp.to_markdown();
  EXPECT_NE(md.find("**1 regressed**"), std::string::npos);
  EXPECT_NE(md.find("| `regress_check|m1|csr|avx2|off|static|no|1` |"),
            std::string::npos);
}

TEST(VerdictName, AllNamed) {
  EXPECT_EQ(verdict_name(Verdict::kNeutral), "neutral");
  EXPECT_EQ(verdict_name(Verdict::kImproved), "improved");
  EXPECT_EQ(verdict_name(Verdict::kRegressed), "regressed");
  EXPECT_EQ(verdict_name(Verdict::kIncomparable), "incomparable");
}

}  // namespace
}  // namespace spc::obs
