#include "stats.hpp"

#include <algorithm>
#include <cmath>

#include "spc/support/error.hpp"
#include "spc/support/rng.hpp"

namespace e2e {

namespace {

// Percentiles in per-mille, highest first.
constexpr std::size_t kLadder[] = {999, 990, 950, 900, 750, 500};

// 1-based nearest rank of the per-mille quantile `pm` among n samples.
std::size_t rank_of(std::size_t pm, std::size_t n) {
  return std::max<std::size_t>(1, (pm * n + 999) / 1000);
}

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

double highest_supported_pct(std::size_t n) {
  for (const std::size_t pm : kLadder) {
    if (n >= rank_of(pm, n) + 10) {
      return static_cast<double>(pm) / 10.0;
    }
  }
  return 0.0;
}

Summary summarize(const std::vector<double>& v) {
  Summary s;
  s.n = v.size();
  s.median = quantile(v, 0.5);
  s.tail_pct = highest_supported_pct(v.size());
  if (s.tail_pct > 0.0) {
    s.tail = quantile(v, s.tail_pct / 100.0);
  }
  return s;
}

std::vector<std::uint64_t> poisson_schedule(std::uint64_t seed,
                                            double rate_per_s,
                                            std::uint64_t duration_ns) {
  std::vector<std::uint64_t> out;
  if (rate_per_s <= 0.0) {
    return out;
  }
  spc::Rng rng(seed);
  const double mean_gap_ns = 1e9 / rate_per_s;
  double t = 0.0;
  for (;;) {
    // 1 - U lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.next_double()) * mean_gap_ns;
    if (t >= static_cast<double>(duration_ns)) {
      return out;
    }
    out.push_back(static_cast<std::uint64_t>(t));
  }
}

std::vector<double> lateness_us(const std::vector<std::uint64_t>& due_ns,
                                const std::vector<std::uint64_t>& sent_ns) {
  SPC_CHECK_MSG(due_ns.size() == sent_ns.size(),
                "lateness needs one send time per due time");
  std::vector<double> out(due_ns.size());
  for (std::size_t i = 0; i < due_ns.size(); ++i) {
    out[i] = sent_ns[i] > due_ns[i]
                 ? static_cast<double>(sent_ns[i] - due_ns[i]) * 1e-3
                 : 0.0;
  }
  return out;
}

spc::obs::Json result_json(const Result& r) {
  using spc::obs::Json;
  Json metrics = Json::object();
  for (const Metric& m : r.metrics) {
    metrics.set(m.name, Json::object().set("value", m.value).set("unit", m.unit));
  }
  return Json::object()
      .set("correct", r.correct)
      .set("attempted", r.attempted)
      .set("failed", r.failed)
      .set("metrics", std::move(metrics));
}

}  // namespace e2e
