#include "spc/bench/harness.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "spc/gen/generators.hpp"
#include "spc/obs/ledger.hpp"
#include "spc/support/env.hpp"

namespace spc {
namespace {

class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      saved_ = old;
      had_ = true;
    }
    ::setenv(name, value, 1);
  }
  ~EnvGuard() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

TEST(Thresholds, PaperDefaultsAtBenchScale) {
  const SetThresholds th = thresholds_for(CorpusScale::kBench);
  EXPECT_EQ(th.reject_below, 3ull << 20);
  EXPECT_EQ(th.large_at_least, 17ull << 20);
}

TEST(Thresholds, ScaledDownForSmallCorpora) {
  const SetThresholds bench = thresholds_for(CorpusScale::kBench);
  const SetThresholds small = thresholds_for(CorpusScale::kSmall);
  const SetThresholds tiny = thresholds_for(CorpusScale::kTiny);
  EXPECT_LT(small.reject_below, bench.reject_below);
  EXPECT_LT(tiny.reject_below, small.reject_below);
}

TEST(Thresholds, EnvOverride) {
  EnvGuard g1("SPC_WS_REJECT_KB", "100");
  EnvGuard g2("SPC_WS_LARGE_KB", "900");
  const SetThresholds th = thresholds_for(CorpusScale::kBench);
  EXPECT_EQ(th.reject_below, 100ull << 10);
  EXPECT_EQ(th.large_at_least, 900ull << 10);
}

TEST(Classify, ThreeWaySplit) {
  SetThresholds th;
  th.reject_below = 1000;
  th.large_at_least = 5000;
  EXPECT_EQ(classify_ws(999, th), SetClass::kRejected);
  EXPECT_EQ(classify_ws(1000, th), SetClass::kSmall);
  EXPECT_EQ(classify_ws(4999, th), SetClass::kSmall);
  EXPECT_EQ(classify_ws(5000, th), SetClass::kLarge);
}

TEST(BenchConfig, EnvParsing) {
  EnvGuard g1("SPC_SCALE", "tiny");
  EnvGuard g2("SPC_ITERS", "17");
  EnvGuard g3("SPC_THREADS", "1,3,9");
  EnvGuard g4("SPC_PIN", "0");
  const BenchConfig cfg = BenchConfig::from_env();
  EXPECT_EQ(cfg.scale, CorpusScale::kTiny);
  EXPECT_EQ(cfg.iterations, 17u);
  EXPECT_EQ(cfg.threads, (std::vector<std::size_t>{1, 3, 9}));
  EXPECT_FALSE(cfg.pin_threads);
  EXPECT_FALSE(cfg.describe().empty());

  // Unparseable values warn once and keep the defaults instead of
  // ending the bench: an unknown scale, a thread list with a non-number,
  // and a zero thread count.
  const BenchConfig dflt;
  {
    EnvGuard bad("SPC_SCALE", "full");
    EXPECT_EQ(BenchConfig::from_env().scale, dflt.scale);
  }
  for (const char* threads : {"2,x", "0"}) {
    EnvGuard bad("SPC_THREADS", threads);
    EXPECT_EQ(BenchConfig::from_env().threads, dflt.threads) << threads;
  }
}

// Every scale the env registry advertises (and so docs/API.md) parses.
TEST(BenchConfig, EveryRegisteredScaleParses) {
  const EnvVarInfo* row = nullptr;
  for (const EnvVarInfo& v : env_registry()) {
    if (std::string(v.name) == "SPC_SCALE") {
      row = &v;
    }
  }
  ASSERT_NE(row, nullptr);
  std::stringstream ss(row->values);
  std::string scale;
  while (std::getline(ss, scale, '|')) {
    EXPECT_NO_THROW(parse_corpus_scale(scale)) << scale;
  }
}

TEST(ForEachMatrix, VisitsTinyCorpus) {
  BenchConfig cfg;
  cfg.scale = CorpusScale::kTiny;
  std::size_t count = 0;
  for_each_matrix(
      cfg,
      [&](MatrixCase& mc) {
        ++count;
        EXPECT_GT(mc.mat.nnz(), 0u);
        EXPECT_EQ(mc.ws, mc.stats.working_set_bytes());
      },
      /*apply_rejection=*/false);
  EXPECT_EQ(count, corpus_specs(CorpusScale::kTiny).size());
}

TEST(ForEachMatrix, RejectionFiltersSmallWorkingSets) {
  BenchConfig cfg;
  cfg.scale = CorpusScale::kTiny;
  std::size_t all = 0, kept = 0;
  for_each_matrix(cfg, [&](MatrixCase&) { ++all; }, false);
  for_each_matrix(cfg, [&](MatrixCase& mc) {
    ++kept;
    EXPECT_NE(mc.set_class, SetClass::kRejected);
  });
  EXPECT_LE(kept, all);
}

TEST(ForEachMatrix, MaxMatricesTruncates) {
  BenchConfig cfg;
  cfg.scale = CorpusScale::kTiny;
  cfg.max_matrices = 3;
  std::size_t count = 0;
  for_each_matrix(cfg, [&](MatrixCase&) { ++count; }, false);
  EXPECT_LE(count, 3u);
}

TEST(TimeSpmv, ProducesPositiveTime) {
  const auto spec = corpus_spec("lap2d-s", CorpusScale::kTiny);
  const Triplets t = spec.build();
  SpmvInstance inst(t, Format::kCsr);
  const double secs = time_spmv(inst, 4, 1);
  EXPECT_GT(secs, 0.0);
  EXPECT_GT(mflops(t.nnz(), 4, secs), 0.0);
}

TEST(TimeSpmvMetrics, SampleSecondsMatchAggregateSeconds) {
  const auto spec = corpus_spec("lap2d-s", CorpusScale::kTiny);
  const Triplets t = spec.build();
  SpmvInstance inst(t, Format::kCsr);
  const RunMetrics m = time_spmv_metrics(inst, 16, 1);
  ASSERT_EQ(m.sample_seconds.size(), 16u);
  double sum = 0.0;
  for (const double s : m.sample_seconds) {
    EXPECT_GE(s, 0.0);
    sum += s;
  }
  // The samples are consecutive timestamp deltas over the same loop the
  // aggregate timed, so they must add back up to it (same clock, no
  // gaps — only float rounding apart).
  EXPECT_NEAR(sum, m.seconds, 1e-9 * 16);
}

TEST(TimeSpmvMetrics, PadHookInflatesEveryIteration) {
  const auto spec = corpus_spec("lap2d-s", CorpusScale::kTiny);
  const Triplets t = spec.build();
  SpmvInstance inst(t, Format::kCsr);
  const RunMetrics before = time_spmv_metrics(inst, 8, 1);
  const double base_med =
      median(std::vector<double>(before.sample_seconds));
  {
    // 50 µs/iteration: orders of magnitude above the tiny cell's real
    // time, so the shift is unambiguous even on a noisy CI box.
    EnvGuard pad("SPC_PAD_NS_PER_ITER", "50000");
    const RunMetrics padded = time_spmv_metrics(inst, 8, 1);
    const double pad_med =
        median(std::vector<double>(padded.sample_seconds));
    EXPECT_GT(pad_med, base_med + 40e-6);
  }
  // Hook is read per run: clearing the env restores normal timing.
  const RunMetrics after = time_spmv_metrics(inst, 8, 1);
  EXPECT_LT(median(std::vector<double>(after.sample_seconds)),
            base_med + 40e-6);
}

TEST(MakeMetricsRecord, CarriesLedgerProvenanceAndSamples) {
  const auto spec = corpus_spec("lap2d-s", CorpusScale::kTiny);
  MatrixCase mc;
  mc.name = spec.name;
  mc.cls = spec.cls;
  mc.mat = spec.build();
  SpmvInstance inst(mc.mat, Format::kCsr);
  const RunMetrics m = time_spmv_metrics(inst, 8, 1);
  const obs::Json rec = make_metrics_record("harness_test", mc, inst, m);

  ASSERT_NE(rec.find("machine_id"), nullptr);
  EXPECT_EQ(rec.find("machine_id")->as_string(),
            obs::machine_fingerprint().id());
  ASSERT_NE(rec.find("machine"), nullptr);
  EXPECT_TRUE(rec.find("machine")->is_object());
  ASSERT_NE(rec.find("git_sha"), nullptr);
  EXPECT_FALSE(rec.find("git_sha")->as_string().empty());
  ASSERT_NE(rec.find("samples_ns"), nullptr);
  EXPECT_EQ(rec.find("samples_ns")->size(), 8u);
  ASSERT_NE(rec.find("bytes_per_nnz"), nullptr);
  EXPECT_GT(rec.find("bytes_per_nnz")->as_double(), 0.0);
  // No SPC_ROOFLINE_GBPS → no roofline block.
  EXPECT_EQ(rec.find("roofline"), nullptr);
}

// A pooled symmetric run records its window share and fold time; the
// reduction has one scheme, so no mode key.
TEST(MakeMetricsRecord, PooledSymCsrCarriesWindowAndReduceFields) {
  MatrixCase mc;
  mc.name = "lap2d";
  mc.mat = gen_laplacian_2d(40, 40);
  InstanceOptions opts;
  opts.pin_threads = false;
  SpmvInstance inst(mc.mat, Format::kSymCsr, 2, opts);
  ASSERT_TRUE(inst.sym_active());
  const RunMetrics m = time_spmv_metrics(inst, 4, 1);
  const obs::Json rec = make_metrics_record("harness_test", mc, inst, m);
  ASSERT_NE(rec.find("sym_window_frac"), nullptr);
  EXPECT_GT(rec.find("sym_window_frac")->as_double(), 0.0);
  EXPECT_LT(rec.find("sym_window_frac")->as_double(), 1.0);
  ASSERT_NE(rec.find("reduce_ns"), nullptr);
  EXPECT_EQ(rec.find("sym_reduce"), nullptr);
}

TEST(MakeMetricsRecord, RooflineBlockWhenBandwidthKnown) {
  EnvGuard gbps("SPC_ROOFLINE_GBPS", "10.0");
  EXPECT_DOUBLE_EQ(roofline_gbps(), 10.0);
  const auto spec = corpus_spec("lap2d-s", CorpusScale::kTiny);
  MatrixCase mc;
  mc.name = spec.name;
  mc.cls = spec.cls;
  mc.mat = spec.build();
  SpmvInstance inst(mc.mat, Format::kCsr);
  const RunMetrics m = time_spmv_metrics(inst, 8, 1);
  const obs::Json rec = make_metrics_record("harness_test", mc, inst, m);
  const obs::Json* roof = rec.find("roofline");
  ASSERT_NE(roof, nullptr);
  EXPECT_DOUBLE_EQ(roof->find("gbps")->as_double(), 10.0);
  EXPECT_GT(roof->find("min_ns_per_nnz")->as_double(), 0.0);
  // frac is achieved/bound — positive, and sane (a tiny cache-resident
  // cell can exceed the DRAM bound, so only sanity-bound it loosely).
  EXPECT_GT(roof->find("frac")->as_double(), 0.0);
}

TEST(RooflineGbps, UnsetOrGarbageMeansDisabled) {
  ::unsetenv("SPC_ROOFLINE_GBPS");
  EXPECT_DOUBLE_EQ(roofline_gbps(), 0.0);
  EnvGuard bad("SPC_ROOFLINE_GBPS", "not-a-number");
  EXPECT_DOUBLE_EQ(roofline_gbps(), 0.0);
}

TEST(Mflops, Formula) {
  EXPECT_DOUBLE_EQ(mflops(1000, 10, 0.001), 2.0 * 1000 * 10 / 0.001 / 1e6);
  EXPECT_DOUBLE_EQ(mflops(1000, 10, 0.0), 0.0);
}

TEST(SpeedupAgg, TracksPaperStatistics) {
  SpeedupAgg agg;
  for (const double s : {1.2, 0.9, 1.5, 0.97, 1.0}) {
    agg.add(s);
  }
  EXPECT_EQ(agg.count(), 5u);
  EXPECT_DOUBLE_EQ(agg.max(), 1.5);
  EXPECT_DOUBLE_EQ(agg.min(), 0.9);
  EXPECT_EQ(agg.slowdowns(), 2u);  // 0.9 and 0.97
  EXPECT_NEAR(agg.avg(), (1.2 + 0.9 + 1.5 + 0.97 + 1.0) / 5, 1e-12);
}

TEST(TextTable, AlignsColumns) {
  TextTable tt({"name", "val"});
  tt.add_row({"a", "1.00"});
  tt.add_row({"longer-name", "2"});
  std::ostringstream os;
  tt.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name        | val  |"), std::string::npos);
  EXPECT_NE(out.find("| longer-name | 2    |"), std::string::npos);
}

TEST(WriteCsv, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/spc_harness_test.csv";
  write_csv(path, {"a", "b"}, {{"1", "2"}, {"3", "4"}});
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "a,b");
  std::getline(f, line);
  EXPECT_EQ(line, "1,2");
  std::getline(f, line);
  EXPECT_EQ(line, "3,4");
}

TEST(CsvEscape, PlainFieldsPassThrough) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape(""), "");
  EXPECT_EQ(csv_escape("1.25"), "1.25");
  EXPECT_EQ(csv_escape("with space"), "with space");
}

TEST(CsvEscape, SpecialFieldsAreQuoted) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(csv_escape("cr\rhere"), "\"cr\rhere\"");
  EXPECT_EQ(csv_escape("\""), "\"\"\"\"");
}

TEST(WriteCsv, EscapesHeaderAndCells) {
  const std::string path = ::testing::TempDir() + "/spc_harness_escape.csv";
  write_csv(path, {"name", "notes, units"},
            {{"mat,1", "says \"fast\""}, {"plain", "ok"}});
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "name,\"notes, units\"");
  std::getline(f, line);
  EXPECT_EQ(line, "\"mat,1\",\"says \"\"fast\"\"\"");
  std::getline(f, line);
  EXPECT_EQ(line, "plain,ok");
}

}  // namespace
}  // namespace spc
