// spc_e2e — the repository's end-to-end benchmark (one workload per run).
//
//   spc_e2e --workload W --seed N --seconds S [--trace 0|1]
//           [--out DIR] [--tmp DIR]
//
// Phases, in order: inputs from the seed (with long-double references),
// set-up three times (median = setup_s), kernel rounds (50% of S),
// open-loop serving at R_ref (25%), R_high (15%) and overload (10%),
// then the registration stream. Prints one line per metric and, last,
// the JSON result line; writes the full result (and with --trace 1 the
// Chrome trace) under --out. Exits 1 when an output check failed.
//
// run.sh builds this binary and is the intended entry point.
#include <sys/sysinfo.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "phases.hpp"
#include "spc/obs/ledger.hpp"
#include "spc/parallel/schedule.hpp"
#include "spc/spmv/dispatch.hpp"
#include "spc/support/error.hpp"
#include "spc/support/first_touch.hpp"
#include "spc/support/rng.hpp"
#include "stats.hpp"

namespace e2e {
namespace {

using spc::obs::Json;

constexpr std::size_t kSetupReps = 3;
// Shares of --seconds per measured phase.
constexpr double kKernelShare = 0.5;
constexpr double kRefShare = 0.25;
constexpr double kHighShare = 0.15;
constexpr double kOverShare = 0.1;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 0.0;
  bool trace = false;
  std::string out = ".bench_build/out";
  std::string tmp = ".bench_build/tmp";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "spc_e2e: " << why
            << "\nusage: spc_e2e --workload W --seed N --seconds S "
               "[--trace 0|1] [--out DIR] [--tmp DIR]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + k);
    }
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
        a.have_seed = true;
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") {
          usage("--trace takes 0 or 1");
        }
        a.trace = v == "1";
      } else if (k == "--out") {
        a.out = v;
      } else if (k == "--tmp") {
        a.tmp = v;
      } else {
        usage("unknown flag " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (a.workload.empty() || !a.have_seed || a.seconds == 0.0) {
    usage("--workload, --seed and --seconds are required");
  }
  if (!(a.seconds >= 1.0 && a.seconds <= 600.0)) {
    usage("--seconds must lie in [1, 600]");
  }
  return a;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Metrics in print order, each with the sample summary it came from.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const Summary& s = {}) {
    metrics_.push_back(Metric{name, value, unit});
    summaries_.push_back(s);
  }
  void sampled(const std::string& name, const std::vector<double>& v,
               const std::string& unit) {
    const Summary s = summarize(v);
    add(name, s.median, unit, s);
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

  void print(const std::string& workload) const {
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      const Summary& s = summaries_[i];
      std::printf("%-34s %-12s %12.6g %-7s", m.name.c_str(), workload.c_str(), m.value,
                  m.unit.c_str());
      if (s.n > 0) {
        std::printf(" (median %.6g", s.median);
        if (s.tail_pct > 0.0) {
          std::printf(", p%g %.6g", s.tail_pct, s.tail);
        }
        std::printf(", n=%zu)", s.n);
      }
      std::printf("\n");
    }
  }

  Json summaries_json() const {
    Json j = Json::object();
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Summary& s = summaries_[i];
      if (s.n > 0) {
        j.set(metrics_[i].name, Json::object()
                                    .set("median", s.median)
                                    .set("tail_pct", s.tail_pct)
                                    .set("tail", s.tail)
                                    .set("n", static_cast<std::uint64_t>(s.n)));
      }
    }
    return j;
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<Summary> summaries_;
};

std::string fmt_key(const char* prefix, std::size_t f) {
  return std::string(prefix) + kFormatNames[f];
}

Json provenance(const Inputs& in, const Resident& r, const KernelResult& k) {
  const auto& fp = spc::obs::machine_fingerprint();
  Json insts = Json::array();
  for (std::size_t f = 0; f < kNumFormats; ++f) {
    for (std::size_t i = 0; i < in.mats.size(); ++i) {
      const spc::SpmvInstance& inst = *r.inst[f][i];
      Json decisions = Json::array();
      for (const spc::InstanceDecision& d : inst.decisions()) {
        decisions.push(Json::object()
                           .set("aspect", d.aspect)
                           .set("requested", d.requested)
                           .set("resolved", d.resolved)
                           .set("reason", d.reason));
      }
      insts.push(Json::object()
                     .set("matrix", in.mats[i].id)
                     .set("format", kFormatNames[f])
                     .set("nnz", static_cast<std::uint64_t>(inst.nnz()))
                     .set("isa", spc::isa_tier_name(inst.isa_tier()))
                     .set("tiling", inst.tiling_active())
                     .set("stripe_bytes", static_cast<std::uint64_t>(inst.tile_stripe_bytes()))
                     .set("schedule", spc::schedule_name(inst.schedule()))
                     .set("numa", spc::numa_policy_name(inst.numa_policy()))
                     .set("decisions", std::move(decisions)));
    }
  }
  const double llc = static_cast<double>(fp.llc_bytes);
  Json ws = Json::object();
  for (std::size_t f = 0; f < kNumFormats; ++f) {
    ws.set(kFormatNames[f],
           Json::object()
               .set("bytes", static_cast<std::uint64_t>(k.streamed_bytes[f]))
               .set("over_llc", llc > 0 ? static_cast<double>(k.streamed_bytes[f]) / llc : 0.0));
  }
  const spc::engine::EngineOptions& eo = r.eng->options();
  return Json::object()
      .set("git_sha", spc::obs::build_git_sha())
      .set("machine_id", fp.id())
      .set("machine", fp.to_json())
      .set("nproc", static_cast<std::uint64_t>(get_nprocs()))
      .set("llc_bytes", static_cast<std::uint64_t>(fp.llc_bytes))
      .set("working_set", std::move(ws))
      .set("engine", Json::object()
                         .set("pool_threads", static_cast<std::uint64_t>(eo.pool_threads))
                         .set("dispatchers", static_cast<std::uint64_t>(eo.dispatchers))
                         .set("queue_capacity", static_cast<std::uint64_t>(eo.queue_capacity)))
      .set("instances", std::move(insts));
}

// Traced over untraced, minus one, per end-to-end metric, against the
// untraced result file of the same workload and seed; null when that
// run has not been made (or its file does not parse).
Json tracing_overhead(const std::string& untraced_path, const std::vector<Metric>& traced) {
  std::ifstream f(untraced_path);
  if (!f) {
    return Json();
  }
  std::stringstream text;
  text << f.rdbuf();
  try {
    const Json doc = Json::parse(text.str());
    const Json* e2e = doc.find("e2e");
    const Json* base = e2e == nullptr ? nullptr : e2e->find("metrics");
    if (base == nullptr) {
      return Json();
    }
    Json out = Json::object();
    for (const Metric& m : traced) {
      if (const Json* b = base->find(m.name); b != nullptr && b->find("value") != nullptr) {
        out.set(m.name, m.value / b->find("value")->as_double() - 1.0);
      }
    }
    return out;
  } catch (const spc::ParseError&) {
    return Json();
  }
}

int run(const Args& a) {
  const WorkloadSpec& spec = find_workload(a.workload);
  std::filesystem::create_directories(a.out);
  std::filesystem::create_directories(a.tmp);

  SpanLog log(a.trace);
  Tally tally;
  Ctx ctx{log, tally, a.tmp};
  const double S = a.seconds;
  const auto phase_seed = [&](std::uint64_t salt) {
    return spc::SplitMix64(a.seed * 0x100000001b3ULL + salt).next();
  };

  Inputs in;
  {
    ScopedSpan s(log, "bench.inputs");
    in = make_inputs(spec, a.seed);
  }
  Yard yard(in);
  SetupResult su;
  Resident r = setup(ctx, in, kSetupReps, &su);
  FormatLayer fl;
  if (a.trace) {
    fl = format_layer(ctx, r, in);
  }
  const KernelResult kr = kernel_phase(ctx, r, yard, in, kKernelShare * S);
  const ServeResult ref = serve_phase(ctx, r, in, "ref", spec.r_ref, kRefShare * S,
                                      phase_seed(1), false, spec.churn);
  const ServeResult high = serve_phase(ctx, r, in, "high", spec.r_high, kHighShare * S,
                                       phase_seed(2), false, false);
  const ServeResult over = serve_phase(ctx, r, in, "overload", spec.r_over, kOverShare * S,
                                       phase_seed(3), true, false);
  const std::vector<double> register_ms =
      spec.churn ? ref.register_ms : register_stream(ctx, r, in);
  TuneLayer tl;
  if (a.trace) {
    tl = tune_layer(ctx, in);
  }

  // End-to-end metrics are set-up time and ratios measured within the
  // run, because on a shared machine absolute times drift by tens of
  // percent between runs and even between phases of one run:
  //  - kernel passes over the yardstick passes bracketing them
  //    (yardstick.hpp). Of the serial passes only csr is end-to-end: the
  //    decoding formats slow down unlike the memory-bound yardstick when
  //    a neighbour shares their core, so their ratios spread past any
  //    useful bound;
  //  - serving latency over the engine's own execution time, and
  //    overload goodput times it (requests completed per execution
  //    time: how many the engine overlaps, net of dispatch gaps).
  const double exec_ref_us = quantile(ref.exec_us, 0.5);
  const double goodput = static_cast<double>(over.ok_in_window) / over.seconds;
  Report e2e;
  e2e.sampled("setup_s", su.total_s, "s");
  for (std::size_t f = 0; f < kNumFormats; ++f) {
    e2e.sampled(fmt_key("spmv_vs_ref.", f), kr.r4[f], "x");
  }
  e2e.sampled("spmv_t1_vs_ref.csr", kr.r1[0], "x");
  e2e.add("serve_p50_over_exec", quantile(ref.latency_us, 0.5) / exec_ref_us, "x");
  e2e.add("serve_goodput_x_exec", goodput * quantile(over.exec_us, 0.5) * 1e-6, "req");

  Report layer;
  for (std::size_t f = 0; f < kNumFormats; ++f) {
    layer.sampled(fmt_key("spmv.ns_per_nnz.", f), kr.t4[f], "ns/nnz");
  }
  for (std::size_t f = 0; f < kNumSerialFormats; ++f) {
    layer.sampled(fmt_key("spmv.t1_ns_per_nnz.", f), kr.t1[f], "ns/nnz");
  }
  for (std::size_t f = 1; f < kNumSerialFormats; ++f) {
    layer.sampled(fmt_key("spmv.t1_vs_ref.", f), kr.r1[f], "x");
  }
  layer.sampled("yardstick.ns_per_nnz", kr.ref4, "ns/nnz");
  layer.sampled("yardstick.t1_ns_per_nnz", kr.ref1, "ns/nnz");
  layer.sampled("serve.p50_us", ref.latency_us, "us");
  layer.add("serve.p95_us", quantile(ref.latency_us, 0.95), "us");
  layer.add("serve.p50_high_over_exec",
            quantile(high.latency_us, 0.5) / quantile(high.exec_us, 0.5), "x");
  layer.add("serve.p95_high_us", quantile(high.latency_us, 0.95), "us");
  layer.add("serve.goodput_rps", goodput, "req/s");
  layer.sampled("tune.register_ms", register_ms, "ms");
  Result absolute;
  absolute.metrics = layer.metrics();
  if (a.trace) {
    for (std::size_t f = 0; f < kNumFormats; ++f) {
      const double build = median(su.build_s[f]);
      layer.add(fmt_key("formats.encode_s.", f), fl.encode_s[f], "s");
      layer.add(fmt_key("formats.bytes_per_nnz.", f), fl.bytes_per_nnz[f], "B/nnz");
      layer.add(fmt_key("spmv.build_s.", f), build, "s");
      layer.add(fmt_key("spmv.plan_s.", f), build - fl.encode_s[f], "s");
      layer.add(fmt_key("spmv.prepare_s.", f), fl.prepare_s[f], "s");
      const double t4_s = median(kr.t4[f]) * 1e-9;  // per nnz
      double nnz = 0.0;
      std::uint64_t tiled = 0;
      std::uint64_t stripes = 0;
      std::uint64_t u8_units = 0;
      std::uint64_t units = 0;
      for (const auto& inst : r.inst[f]) {
        nnz += static_cast<double>(inst->nnz());
        tiled += inst->tiling_active() ? 1 : 0;
        stripes += inst->tile_stripes();
        if (const auto* h = inst->du_histogram()) {
          u8_units += h->units_per_class[0];
          units += h->units;
        }
      }
      layer.add(fmt_key("spmv.gbps.", f),
                static_cast<double>(kr.streamed_bytes[f]) * 1e-9 / (t4_s * nnz), "GB/s");
      if (kFormats[f] == spc::Format::kCsrDu || kFormats[f] == spc::Format::kCsrDuVi) {
        layer.add(fmt_key("spmv.du_u8_unit_share.", f),
                  units == 0 ? 0.0 : static_cast<double>(u8_units) / static_cast<double>(units),
                  "frac");
      }
      layer.add(fmt_key("spmv.tiled.", f), static_cast<double>(tiled), "count");
      layer.add(fmt_key("spmv.stripes.", f), static_cast<double>(stripes), "count");
      if (f < kNumSerialFormats) {
        layer.add(fmt_key("spmv.speedup4.", f), median(kr.t1[f]) / median(kr.t4[f]), "x");
      }
      layer.add(fmt_key("parallel.imbalance.", f), kr.imbalance[f], "x");
      layer.add(fmt_key("parallel.busy_frac.", f), kr.busy_frac[f], "frac");
    }
    layer.add("parallel.join_us", median(kr.join_us), "us");
    layer.add("tune.features_s", median(tl.features_s), "s");
    layer.add("tune.probe_s", median(tl.probe_s), "s");
    layer.add("tune.candidates", median(tl.candidates), "count");
    for (std::size_t f = 0; f < kNumFormats; ++f) {
      layer.add(fmt_key("tune.picked.", f), static_cast<double>(tl.picked[f]), "count");
    }
    layer.add("tune.picked.other", static_cast<double>(tl.picked_other), "count");
    layer.add("engine.exec_us.p50", quantile(ref.exec_us, 0.5), "us");
    layer.add("engine.exec_us.p99", quantile(ref.exec_us, 0.99), "us");
    layer.add("engine.queue_us.p50", quantile(ref.queue_us, 0.5), "us");
    layer.add("engine.queue_us.p99", quantile(high.queue_us, 0.99), "us");
    layer.add("engine.notify_us.p50", quantile(ref.notify_us, 0.5), "us");
    layer.add("engine.serial_frac",
              ref.ok == 0 ? 0.0 : static_cast<double>(ref.serial) / static_cast<double>(ref.ok),
              "frac");
    layer.add("engine.queue_depth_max", static_cast<double>(high.queue_depth_max), "count");
    layer.add("engine.reqs_per_batch", ref.reqs_per_batch, "count");
    layer.add("engine.same_matrix_overlap", ref.same_matrix_overlap, "frac");
    layer.add("engine.submit_us.p99", quantile(ref.submit_us, 0.99), "us");
    layer.add("engine.overload_shed_frac",
              over.sent == 0 ? 0.0 : static_cast<double>(over.shed) / static_cast<double>(over.sent),
              "frac");
    layer.add("loadgen.late_us.p99", quantile(ref.late_us, 0.99), "us");
    const std::map<std::string, double> self = log.layer_self_s();
    for (const char* l : {"formats", "spmv", "tune", "engine"}) {
      const auto it = self.find(l);
      layer.add(std::string("self_s.") + l, it == self.end() ? 0.0 : it->second, "s");
    }
  }

  Result res;
  res.attempted = tally.attempted.load();
  res.failed = tally.failed.load();
  res.correct = tally.wrong.load() == 0;
  const Report& shown = a.trace ? layer : e2e;
  res.metrics = shown.metrics();

  const std::string tag = a.workload + "-seed" + std::to_string(a.seed) + (a.trace ? "-trace" : "");
  Json failures = Json::array();
  for (const std::string& n : tally.notes()) {
    failures.push(n);
  }
  Result e2e_res = res;
  e2e_res.metrics = e2e.metrics();
  Json doc = Json::object()
                 .set("workload", a.workload)
                 .set("seed", a.seed)
                 .set("seconds", S)
                 .set("trace", a.trace)
                 .set("rates_rps", Json::object()
                                       .set("ref", spec.r_ref)
                                       .set("high", spec.r_high)
                                       .set("overload", spec.r_over))
                 .set("result", result_json(res))
                 .set("e2e", result_json(e2e_res))
                 .set("absolute", result_json(absolute))
                 .set("summaries", e2e.summaries_json())
                 .set("provenance", provenance(in, r, kr))
                 .set("failures", std::move(failures));
  std::ofstream(a.out + "/result-" + tag + ".json") << doc.dump() << "\n";
  if (a.trace) {
    Json self = Json::object();
    for (const auto& [l, s] : log.layer_self_s()) {
      self.set(l, s);
    }
    Json extra = Json::object()
                     .set("per_layer", result_json(res))
                     .set("e2e_traced", result_json(e2e_res))
                     .set("layer_self_s", std::move(self))
                     .set("tracing_overhead",
                          tracing_overhead(a.out + "/result-" + a.workload + "-seed" +
                                               std::to_string(a.seed) + ".json",
                                           e2e.metrics()));
    std::ofstream(a.out + "/trace-" + tag + ".json") << log.chrome_trace(extra).dump() << "\n";
  }

  shown.print(a.workload);
  for (const std::string& n : tally.notes()) {
    std::printf("FAILED: %s\n", n.c_str());
  }
  std::printf("%s\n", result_json(res).dump().c_str());
  std::fflush(stdout);
  return res.correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  const e2e::Args a = e2e::parse_args(argc, argv);
  try {
    return e2e::run(a);
  } catch (const std::exception& e) {
    std::cerr << "spc_e2e: " << e.what() << "\n";
    return 1;
  }
}
