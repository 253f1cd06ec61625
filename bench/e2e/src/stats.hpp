// Statistics and result I/O for the end-to-end benchmark.
//
// Everything here is pure (no clocks, no threads) so the self-tests in
// tests/stats_test.cpp can pin it down exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spc/obs/json.hpp"

namespace e2e {

/// Nearest-rank quantile: the smallest sample with at least q*n samples
/// at or below it. Sorts a copy. Returns 0 for an empty input.
double quantile(std::vector<double> v, double q);

/// A timing as the benchmark reports it: the median, the highest
/// percentile from a fixed ladder (99.9, 99, 95, 90, 75, 50) that still
/// has at least ten samples beyond it, and the sample count.
struct Summary {
  double median = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;  ///< 0 when under 20 samples support none
  std::size_t n = 0;
};
Summary summarize(const std::vector<double>& v);

/// The highest ladder percentile with at least ten of `n` samples
/// strictly beyond its nearest-rank position; 0 when none qualifies.
double highest_supported_pct(std::size_t n);

/// Open-loop arrival schedule: Poisson arrivals at `rate_per_s` over
/// [0, duration_ns), as offsets from the phase start. Deterministic in
/// `seed`.
std::vector<std::uint64_t> poisson_schedule(std::uint64_t seed,
                                            double rate_per_s,
                                            std::uint64_t duration_ns);

/// How late an open-loop generator sent each request: sent - due,
/// clamped at zero (sending early is not lateness).
std::vector<double> lateness_us(const std::vector<std::uint64_t>& due_ns,
                                const std::vector<std::uint64_t>& sent_ns);

/// One named measurement in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The machine-readable result of one benchmark run — the last line of
/// its standard output.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value","unit"}}}
spc::obs::Json result_json(const Result& r);

}  // namespace e2e
