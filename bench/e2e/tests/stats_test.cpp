// Self-tests of the benchmark's statistics, schedule, span accounting
// and result line.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "spans.hpp"
#include "spc/support/error.hpp"
#include "stats.hpp"

namespace e2e {
namespace {

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Quantile, NearestRank) {
  EXPECT_EQ(quantile({}, 0.5), 0.0);
  EXPECT_EQ(quantile({7.0}, 0.99), 7.0);
  EXPECT_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.0);
  EXPECT_EQ(quantile(iota(100), 0.99), 99.0);
  EXPECT_EQ(quantile(iota(100), 1.0), 100.0);
}

TEST(HighestSupportedPct, NeedsTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_pct(0), 0.0);
  EXPECT_EQ(highest_supported_pct(19), 0.0);
  EXPECT_EQ(highest_supported_pct(20), 50.0);   // rank 10, 10 beyond
  EXPECT_EQ(highest_supported_pct(39), 50.0);   // p75 rank 30: 9 beyond
  EXPECT_EQ(highest_supported_pct(40), 75.0);
  EXPECT_EQ(highest_supported_pct(199), 90.0);  // p95 rank 190: 9 beyond
  EXPECT_EQ(highest_supported_pct(200), 95.0);
  EXPECT_EQ(highest_supported_pct(999), 95.0);  // p99 rank 990: 9 beyond
  EXPECT_EQ(highest_supported_pct(1000), 99.0);
  EXPECT_EQ(highest_supported_pct(10000), 99.9);
}

TEST(HighestSupportedPct, TailHasAtLeastTenBeyond) {
  for (std::size_t n = 20; n < 3000; n += 7) {
    const std::vector<double> v = iota(n);
    const Summary s = summarize(v);
    ASSERT_GT(s.tail_pct, 0.0) << n;
    const auto beyond = std::count_if(v.begin(), v.end(), [&](double x) { return x > s.tail; });
    EXPECT_GE(beyond, 10) << n;
  }
}

TEST(Summarize, MedianTailAndCount) {
  const Summary s = summarize(iota(1000));
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.median, 500.0);
  EXPECT_EQ(s.tail_pct, 99.0);
  EXPECT_EQ(s.tail, 990.0);
}

TEST(PoissonSchedule, DeterministicPerSeed) {
  const auto a = poisson_schedule(1, 500.0, 2'000'000'000);
  const auto b = poisson_schedule(1, 500.0, 2'000'000'000);
  const auto c = poisson_schedule(2, 500.0, 2'000'000'000);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 2'000'000'000u);
  EXPECT_TRUE(poisson_schedule(1, 0.0, 1'000'000'000).empty());
}

TEST(PoissonSchedule, MeanRateWithinTwoPercent) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const double rate = 400.0;
    const auto s = poisson_schedule(seed, rate, 100'000'000'000);  // 100 s
    const double measured = static_cast<double>(s.size()) / 100.0;
    EXPECT_NEAR(measured, rate, 0.02 * rate) << seed;
    // Exponential gaps: standard deviation close to the mean.
    std::vector<double> gaps;
    for (std::size_t i = 1; i < s.size(); ++i) {
      gaps.push_back(static_cast<double>(s[i] - s[i - 1]));
    }
    const double mean = std::accumulate(gaps.begin(), gaps.end(), 0.0) / gaps.size();
    double var = 0.0;
    for (const double g : gaps) {
      var += (g - mean) * (g - mean);
    }
    EXPECT_NEAR(std::sqrt(var / gaps.size()) / mean, 1.0, 0.05) << seed;
  }
}

TEST(Lateness, ClampsEarlySendsAndConvertsToMicroseconds) {
  const auto late = lateness_us({1000, 5000, 9000}, {1000, 7500, 8000});
  ASSERT_EQ(late.size(), 3u);
  EXPECT_EQ(late[0], 0.0);
  EXPECT_EQ(late[1], 2.5);
  EXPECT_EQ(late[2], 0.0);
  EXPECT_THROW(lateness_us({1}, {}), spc::Error);
}

TEST(ResultLine, RoundTripsWithExactlyTheResultKeys) {
  Result r;
  r.correct = false;
  r.attempted = 1234;
  r.failed = 5;
  r.metrics = {{"setup_s", 0.8127, "s"}, {"spmv_vs_ref.csr-du", 1.0 / 3.0, "x"}};
  const std::string line = result_json(r).dump();
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one line
  const spc::obs::Json back = spc::obs::Json::parse(line);
  ASSERT_EQ(back.items().size(), 4u);
  EXPECT_EQ(back.items()[0].first, "correct");
  EXPECT_EQ(back.items()[1].first, "attempted");
  EXPECT_EQ(back.items()[2].first, "failed");
  EXPECT_EQ(back.items()[3].first, "metrics");
  EXPECT_FALSE(back.find("correct")->as_bool(true));
  EXPECT_EQ(back.find("attempted")->as_u64(), 1234u);
  EXPECT_EQ(back.find("failed")->as_u64(), 5u);
  const spc::obs::Json& metrics = *back.find("metrics");
  ASSERT_EQ(metrics.size(), 2u);
  for (const Metric& m : r.metrics) {
    const spc::obs::Json* got = metrics.find(m.name);
    ASSERT_NE(got, nullptr) << m.name;
    EXPECT_EQ(got->find("value")->as_double(), m.value);  // all digits kept
    EXPECT_EQ(got->find("unit")->as_string(), m.unit);
  }
}

TEST(SpanLog, SelfTimeSubtractsMergedChildren) {
  SpanLog log(true);
  log.record({"bench.serve", 1, 0, 0, 0, 0, 100});
  // Two concurrent children overlapping on [20, 30): 40 ns covered.
  log.record({"engine.submit", 2, 1, 7, 0, 10, 30});
  log.record({"engine.wait", 3, 1, 7, 0, 20, 50});
  // A child running past its parent is clipped at the parent's end.
  log.record({"spmv.run", 4, 3, 0, 0, 40, 60});
  const auto self = log.layer_self_s();
  EXPECT_NEAR(self.at("bench"), 60e-9, 1e-15);
  EXPECT_NEAR(self.at("engine"), 20e-9 + 20e-9, 1e-15);  // submit 20, wait 30-10
  EXPECT_NEAR(self.at("spmv"), 20e-9, 1e-15);
}

TEST(SpanLog, ALogBuiltWhereAnotherDiedStartsEmpty) {
  for (int i = 0; i < 3; ++i) {  // the same stack slot each time
    SpanLog log(true);
    { ScopedSpan s(log, "spmv.run"); }
    EXPECT_EQ(log.spans().size(), 1u);
  }
}

TEST(SpanLog, DisabledRecordsNothing) {
  SpanLog log(false);
  { ScopedSpan s(log, "spmv.run", "csr"); }
  EXPECT_TRUE(log.spans().empty());
  EXPECT_EQ(log.next_id(), 0u);
}

TEST(SpanLog, ScopedSpansNestAndKeepRequestIds) {
  SpanLog log(true);
  {
    ScopedSpan outer(log, "bench.kernel");
    ScopedSpan inner(log, "spmv.run", "csr-du", 42);
  }
  const auto spans = log.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "bench.kernel");
  EXPECT_EQ(spans[1].name, "spmv.run.csr-du");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].req, 42u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
  const auto doc = log.chrome_trace(spc::obs::Json::object().set("k", 1));
  ASSERT_NE(doc.find("traceEvents"), nullptr);
  EXPECT_EQ(doc.find("traceEvents")->size(), 2u);
  EXPECT_NE(doc.find("k"), nullptr);
}

}  // namespace
}  // namespace e2e
