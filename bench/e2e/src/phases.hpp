// The benchmark's phases: set-up, kernel rounds, open-loop serving, the
// registration stream, and the traced-only layer probes.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "spans.hpp"
#include "spc/engine/engine.hpp"
#include "workload.hpp"
#include "yardstick.hpp"

namespace e2e {

/// Operation accounting shared by every phase. `wrong` counts outputs
/// that failed a check (a wrong y, or a completion observed before the
/// time the engine reported); it decides `correct` and the exit code.
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> wrong{0};

  /// Counts a failure (and a wrong output when `wrong_output`), keeping
  /// the first few messages for the result file.
  void fail(const std::string& what, bool wrong_output);
  std::vector<std::string> notes() const;

 private:
  mutable std::mutex mu_;  ///< guards notes_
  std::vector<std::string> notes_;
};

struct Ctx {
  SpanLog& log;
  Tally& tally;
  std::string tmp_dir;  ///< cold tune caches live here
  std::atomic<std::uint64_t> caches{0};

  /// Fresh, never-used tune cache path.
  std::string cold_cache_path();
};

/// The yardstick (yardstick.hpp) over the workload's matrices. Built
/// from the inputs, outside set-up.
struct Yard {
  explicit Yard(const Inputs& in);

  Team team;
  std::vector<PlainCsr> mats;
  std::vector<spc::Vector> y;  ///< per matrix

  /// One team pass over every matrix (x variant 0); ns.
  std::uint64_t pass_team(const Inputs& in);
  /// One calling-thread pass over every matrix; ns.
  std::uint64_t pass1(const Inputs& in);
};

/// What set-up leaves resident: one 4-thread instance per (format,
/// matrix) and an Engine serving every matrix in CSR.
struct Resident {
  std::vector<std::unique_ptr<spc::SpmvInstance>> inst[kNumFormats];
  std::unique_ptr<spc::engine::Engine> eng;
};

struct SetupResult {
  std::vector<double> total_s;                ///< one per repetition
  std::vector<double> build_s[kNumFormats];  ///< per repetition, all matrices
};

/// Sets the workload up `reps` times from its Triplets (each repetition
/// tears the previous one down first) and keeps the last.
Resident setup(Ctx& ctx, const Inputs& in, std::size_t reps, SetupResult* out);

struct KernelResult {
  std::vector<double> t4[kNumFormats];        ///< ns/nnz per 4-thread pass
  std::vector<double> t1[kNumSerialFormats];  ///< ns/nnz per serial pass
  /// The same passes over the mean of the two yardstick passes that
  /// bracket them.
  std::vector<double> r4[kNumFormats];
  std::vector<double> r1[kNumSerialFormats];
  std::vector<double> ref4;                   ///< yardstick ns/nnz, team passes
  std::vector<double> ref1;                   ///< yardstick ns/nnz, serial passes
  std::vector<double> join_us;                ///< csr: wall - max busy per run
  double imbalance[kNumFormats] = {};          ///< nnz-weighted over matrices
  double busy_frac[kNumFormats] = {};
  std::uint64_t streamed_bytes[kNumFormats] = {};  ///< per pass, computed
};

/// Interleaved rounds over the formats and the yardstick for at least
/// `budget_s` and at least the minimum sample counts, then checks every
/// format's y.
KernelResult kernel_phase(Ctx& ctx, Resident& r, Yard& yard, const Inputs& in,
                          double budget_s);

struct ServeResult {
  double seconds = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;          ///< queue-full rejections
  std::uint64_t ok_in_window = 0;  ///< completed before the phase ended
  std::uint64_t serial = 0;        ///< ran on a dispatcher thread
  std::vector<double> latency_us;  ///< due -> completion, ok requests
  std::vector<double> queue_us, exec_us, notify_us, submit_us, late_us;
  double reqs_per_batch = 0.0;
  std::size_t queue_depth_max = 0;
  double same_matrix_overlap = 0.0;
  std::vector<double> register_ms;  ///< churn registrations
};

/// One open-loop phase of `seconds` at `rate` req/s. With `overload`,
/// queue-full rejections are expected (shed), otherwise they fail. With
/// `churn`, a writer thread registers the stream across the phase.
ServeResult serve_phase(Ctx& ctx, Resident& r, const Inputs& in, const char* name,
                        double rate, double seconds, std::uint64_t seed, bool overload,
                        bool churn);

/// Registers the stream one by one on the quiet engine (auto_format,
/// cold cache), unregistering each; returns wall ms per registration.
std::vector<double> register_stream(Ctx& ctx, Resident& r, const Inputs& in);

// ---- traced-only layer probes ------------------------------------------

struct FormatLayer {
  double encode_s[kNumFormats] = {};         ///< from_triplets, all matrices
  double bytes_per_nnz[kNumFormats] = {};    ///< exact encoded size
  double prepare_s[kNumFormats] = {};
};
FormatLayer format_layer(Ctx& ctx, Resident& r, const Inputs& in);

struct TuneLayer {
  std::vector<double> features_s, probe_s, candidates;
  std::uint64_t picked[kNumFormats] = {};
  std::uint64_t picked_other = 0;
};
TuneLayer tune_layer(Ctx& ctx, const Inputs& in);

}  // namespace e2e
