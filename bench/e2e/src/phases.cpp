#include "phases.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <stdexcept>
#include <thread>

#include "spc/bench/model.hpp"
#include "spc/formats/csr.hpp"
#include "spc/formats/csr_du.hpp"
#include "spc/formats/csr_du_vi.hpp"
#include "spc/formats/csr_vi.hpp"
#include "spc/support/error.hpp"
#include "spc/support/rng.hpp"
#include "spc/support/timing.hpp"
#include "spc/tune/tuner.hpp"
#include "stats.hpp"

namespace e2e {

namespace {

using spc::now_ns;
using spc::engine::Engine;
using spc::engine::Future;

constexpr std::size_t kThreads = 4;
// 24 rounds x 5 cycles = 120 samples per 4-thread format; 24 serial.
constexpr std::size_t kMinRounds = 24;
constexpr std::size_t kCyclesPerRound = 5;
constexpr std::size_t kWarmPasses = 2;
// Every 16th served response is checked against its reference.
constexpr std::size_t kCheckEvery = 16;
// An overload phase fills the admission queue, so its capacity is sized
// to hold at most this many bytes of request vectors (8 to 1024 slots;
// 1024 is the engine's default).
constexpr std::size_t kQueueBytes = 256u << 20;

double secs(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }
double us(std::uint64_t ns) { return static_cast<double>(ns) * 1e-3; }

std::uint64_t total_nnz(const Inputs& in) {
  std::uint64_t n = 0;
  for (const Matrix& m : in.mats) {
    n += m.t.nnz();
  }
  return n;
}

void sleep_until_ns(std::uint64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t)));
}

spc::engine::EngineOptions engine_options(const Inputs& in) {
  std::size_t x_bytes = 0;
  for (const Matrix& m : in.mats) {
    x_bytes = std::max(x_bytes, m.t.ncols() * sizeof(spc::value_t));
  }
  spc::engine::EngineOptions o;
  o.pool_threads = kThreads;
  o.queue_capacity = std::clamp<std::size_t>(kQueueBytes / x_bytes, 8, 1024);
  return o;
}

void check_status(Ctx& ctx, const spc::Status& st, const std::string& what) {
  if (!st.ok()) {
    ctx.tally.fail(what + ": " + st.to_string(), false);
    throw std::runtime_error(what + " failed: " + st.to_string());
  }
}

// Share of requests whose in-flight interval [sent, done] overlaps
// another request's for the same matrix.
double overlap_share(std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> per_mat) {
  std::uint64_t overlapped = 0;
  std::uint64_t total = 0;
  for (auto& iv : per_mat) {
    std::sort(iv.begin(), iv.end());
    std::uint64_t reach = 0;
    for (std::size_t j = 0; j < iv.size(); ++j) {
      const bool before = j > 0 && iv[j].first < reach;
      const bool after = j + 1 < iv.size() && iv[j + 1].first < iv[j].second;
      overlapped += (before || after) ? 1 : 0;
      reach = std::max(reach, iv[j].second);
    }
    total += iv.size();
  }
  return total == 0 ? 0.0 : static_cast<double>(overlapped) / static_cast<double>(total);
}

std::atomic<std::uint64_t> g_next_req{1};

// One auto_format registration of stream matrix j on a cold tune cache;
// appends its wall time.
spc::Status register_one(Ctx& ctx, Engine& eng, const Inputs& in, std::size_t j,
                         const std::string& id, std::uint64_t parent,
                         std::vector<double>* wall_ms) {
  spc::engine::RegisterOptions ro;
  ro.auto_format = true;
  ro.tune.cache_path = ctx.cold_cache_path();
  ctx.tally.attempted.fetch_add(1);
  const std::uint64_t t0 = now_ns();
  spc::Status st;
  {
    ScopedSpan c(ctx.log, "engine.register_matrix", {}, 0, parent);
    st = eng.register_matrix(id, in.stream[j], ro);
  }
  wall_ms->push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  return st;
}

}  // namespace

void Tally::fail(const std::string& what, bool wrong_output) {
  failed.fetch_add(1, std::memory_order_relaxed);
  if (wrong_output) {
    wrong.fetch_add(1, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (notes_.size() < 20) {
    notes_.push_back(what);
  }
}

std::vector<std::string> Tally::notes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return notes_;
}

std::string Ctx::cold_cache_path() {
  return tmp_dir + "/tune-" + std::to_string(caches.fetch_add(1)) + ".jsonl";
}

// ---- yardstick -----------------------------------------------------------

Yard::Yard(const Inputs& in) : team(kThreads) {
  for (const Matrix& m : in.mats) {
    mats.emplace_back(m.t, kThreads);
    y.emplace_back(m.t.nrows(), 0.0);
    // The yardstick is benchmark code, but its output is checked like
    // any other so a broken yardstick cannot go unnoticed.
    mats.back().run_team(team, m.x[0], y.back());
    SPC_CHECK_MSG(bad_rows(m.ref[0], y.back()) == 0, "yardstick CSR disagrees with the reference");
  }
}

std::uint64_t Yard::pass_team(const Inputs& in) {
  std::uint64_t ns = 0;
  for (std::size_t i = 0; i < mats.size(); ++i) {
    ns += mats[i].run_team(team, in.mats[i].x[0], y[i]);
  }
  return ns;
}

std::uint64_t Yard::pass1(const Inputs& in) {
  std::uint64_t ns = 0;
  for (std::size_t i = 0; i < mats.size(); ++i) {
    ns += mats[i].run1(in.mats[i].x[0], y[i]);
  }
  return ns;
}


// ---- set-up ------------------------------------------------------------

Resident setup(Ctx& ctx, const Inputs& in, std::size_t reps, SetupResult* out) {
  Resident r;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (auto& v : r.inst) {
      v.clear();
    }
    r.eng.reset();
    ScopedSpan span(ctx.log, "bench.setup");
    const std::uint64_t t0 = now_ns();
    for (std::size_t f = 0; f < kNumFormats; ++f) {
      const std::uint64_t tf = now_ns();
      for (const Matrix& m : in.mats) {
        ScopedSpan c(ctx.log, "spmv.SpmvInstance", kFormatNames[f]);
        ctx.tally.attempted.fetch_add(1);
        r.inst[f].push_back(
            std::make_unique<spc::SpmvInstance>(m.t, kFormats[f], kThreads));
      }
      out->build_s[f].push_back(secs(now_ns() - tf));
    }
    {
      ScopedSpan c(ctx.log, "engine.Engine");
      r.eng = std::make_unique<Engine>(engine_options(in));
    }
    for (const Matrix& m : in.mats) {
      ctx.tally.attempted.fetch_add(1);
      {
        ScopedSpan c(ctx.log, "engine.register_matrix");
        check_status(ctx, r.eng->register_matrix(m.id, m.t), "register " + m.id);
      }
      ScopedSpan c(ctx.log, "engine.warm");
      check_status(ctx, r.eng->warm(m.id, kWarmPasses), "warm " + m.id);
    }
    out->total_s.push_back(secs(now_ns() - t0));
  }
  return r;
}

// ---- kernel rounds -------------------------------------------------------

KernelResult kernel_phase(Ctx& ctx, Resident& r, Yard& yard, const Inputs& in,
                          double budget_s) {
  KernelResult k;
  ScopedSpan span(ctx.log, "bench.kernel");
  const std::size_t nm = in.mats.size();
  const double nnz = static_cast<double>(total_nnz(in));
  std::vector<std::vector<spc::Vector>> y4(kNumFormats), y1(kNumSerialFormats);
  std::vector<std::vector<std::uint64_t>> wall(kNumFormats, std::vector<std::uint64_t>(nm, 0));
  for (std::size_t f = 0; f < kNumFormats; ++f) {
    for (const Matrix& m : in.mats) {
      y4[f].emplace_back(m.t.nrows(), 0.0);
      if (f < kNumSerialFormats) {
        y1[f].emplace_back(m.t.nrows(), 0.0);
      }
    }
  }

  const auto pass4 = [&](std::size_t f) {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < nm; ++i) {
      spc::SpmvInstance& inst = *r.inst[f][i];
      const std::uint64_t t0 = now_ns();
      {
        ScopedSpan c(ctx.log, "spmv.run", kFormatNames[f]);
        inst.run(in.mats[i].x[0], y4[f][i]);
      }
      const std::uint64_t dt = now_ns() - t0;
      total += dt;
      wall[f][i] += dt;
      if (f == 0) {
        std::uint64_t busiest = 0;
        for (std::size_t t = 0; t < inst.nthreads(); ++t) {
          busiest = std::max(busiest, inst.pool()->last_busy_ns(t));
        }
        k.join_us.push_back(us(dt - std::min(dt, busiest)));
      }
    }
    ctx.tally.attempted.fetch_add(nm);
    return static_cast<double>(total) / nnz;
  };
  const auto pass1 = [&](std::size_t f) {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < nm; ++i) {
      const std::uint64_t t0 = now_ns();
      bool ran = false;
      {
        ScopedSpan c(ctx.log, "spmv.run_on_caller", kFormatNames[f]);
        ran = r.inst[f][i]->run_on_caller(in.mats[i].x[0], y1[f][i]);
      }
      total += now_ns() - t0;
      if (!ran) {
        ctx.tally.fail(std::string("run_on_caller refused ") + kFormatNames[f], false);
      }
    }
    ctx.tally.attempted.fetch_add(nm);
    return static_cast<double>(total) / nnz;
  };

  yard.pass_team(in);
  yard.pass1(in);
  for (std::size_t f = 0; f < kNumFormats; ++f) {
    for (std::size_t w = 0; w < kWarmPasses; ++w) {
      pass4(f);
    }
    if (f < kNumSerialFormats) {
      pass1(f);
    }
    for (std::size_t i = 0; i < nm; ++i) {
      r.inst[f][i]->pool()->busy_reset();
      wall[f][i] = 0;
    }
  }
  k.join_us.clear();

  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
  const auto yard4 = [&] {
    k.ref4.push_back(static_cast<double>(yard.pass_team(in)) / nnz);
    return k.ref4.back();
  };
  const auto yard1 = [&] {
    k.ref1.push_back(static_cast<double>(yard.pass1(in)) / nnz);
    return k.ref1.back();
  };
  for (std::size_t round = 0; round < kMinRounds || now_ns() < deadline; ++round) {
    // Cycles visit every format once, starting at a rotating format, so
    // slow drift hits all alike and no format finds its own data still
    // in the shared LLC from its previous pass (whether it would fit
    // depends on the neighbours, not on the code). Yardstick passes
    // bracket every cycle; each pass is divided by their mean.
    double before = yard4();
    for (std::size_t c = 0; c < kCyclesPerRound; ++c) {
      double t[kNumFormats];
      for (std::size_t j = 0; j < kNumFormats; ++j) {
        const std::size_t f = (round + j) % kNumFormats;
        t[f] = pass4(f);
        k.t4[f].push_back(t[f]);
      }
      const double after = yard4();
      for (std::size_t f = 0; f < kNumFormats; ++f) {
        k.r4[f].push_back(2.0 * t[f] / (before + after));
      }
      before = after;
    }
    PinCaller pin(round);
    const double serial_before = yard1();
    for (std::size_t j = 0; j < kNumSerialFormats; ++j) {
      const std::size_t f = (round + j) % kNumSerialFormats;
      k.t1[f].push_back(pass1(f));
    }
    const double serial_after = yard1();
    for (std::size_t f = 0; f < kNumSerialFormats; ++f) {
      k.r1[f].push_back(2.0 * k.t1[f].back() / (serial_before + serial_after));
    }
  }

  for (std::size_t f = 0; f < kNumFormats; ++f) {
    double weighted = 0.0;
    std::uint64_t busy = 0;
    std::uint64_t walls = 0;
    for (std::size_t i = 0; i < nm; ++i) {
      const spc::SpmvInstance& inst = *r.inst[f][i];
      weighted += inst.pool()->total_imbalance() * static_cast<double>(inst.nnz());
      for (std::size_t t = 0; t < inst.nthreads(); ++t) {
        busy += inst.pool()->total_busy_ns(t);
      }
      walls += wall[f][i] * inst.nthreads();
      k.streamed_bytes[f] +=
          spc::spmv_streamed_bytes(inst.matrix_bytes(), inst.nrows(), inst.ncols());
      const std::size_t bad4 = bad_rows(in.mats[i].ref[0], y4[f][i]);
      if (bad4 != 0) {
        ctx.tally.fail(std::string(kFormatNames[f]) + " 4-thread y wrong in " +
                           std::to_string(bad4) + " rows of " + in.mats[i].id,
                       true);
      }
      if (f < kNumSerialFormats) {
        const std::size_t bad1 = bad_rows(in.mats[i].ref[0], y1[f][i]);
        if (bad1 != 0) {
          ctx.tally.fail(std::string(kFormatNames[f]) + " serial y wrong in " +
                             std::to_string(bad1) + " rows of " + in.mats[i].id,
                         true);
        }
      }
    }
    k.imbalance[f] = weighted / nnz;
    k.busy_frac[f] = walls == 0 ? 0.0 : static_cast<double>(busy) / static_cast<double>(walls);
  }
  return k;
}

// ---- open-loop serving ---------------------------------------------------

ServeResult serve_phase(Ctx& ctx, Resident& r, const Inputs& in, const char* name,
                        double rate, double seconds, std::uint64_t seed, bool overload,
                        bool churn) {
  struct Slot {
    Future fut;
    std::uint64_t due = 0;
    std::uint64_t sent = 0;
    std::uint32_t mat = 0;
    std::uint32_t variant = 0;
    std::uint64_t req = 0;
  };

  ServeResult res;
  res.seconds = seconds;
  Engine& eng = *r.eng;
  ScopedSpan span(ctx.log, "bench.serve", name);
  const std::uint64_t phase_id = span.id();

  const std::uint64_t dur_ns = static_cast<std::uint64_t>(seconds * 1e9);
  const std::vector<std::uint64_t> offsets = poisson_schedule(seed, rate, dur_ns);
  const std::size_t n = offsets.size();
  std::vector<Slot> slots(n);
  {
    double wsum = 0.0;
    for (const Matrix& m : in.mats) {
      wsum += m.weight;
    }
    spc::Rng rng(seed ^ 0x5e1ec7ULL);
    for (Slot& s : slots) {
      double u = rng.next_double() * wsum;
      std::size_t mi = 0;
      while (mi + 1 < in.mats.size() && u >= in.mats[mi].weight) {
        u -= in.mats[mi].weight;
        ++mi;
      }
      s.mat = static_cast<std::uint32_t>(mi);
      s.variant = static_cast<std::uint32_t>(rng.next_below(kVariants));
      s.req = g_next_req.fetch_add(1);
    }
  }

  const spc::engine::Engine::Stats before = eng.stats();
  // A short lead so the first due time is not already in the past.
  const std::uint64_t t0 = now_ns() + 2'000'000;
  const std::uint64_t t_end = t0 + dur_ns;

  std::mutex mu;  // guards published
  std::condition_variable cv;
  std::size_t published = 0;
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> inflight(in.mats.size());

  std::thread waiter([&] {
    for (std::size_t i = 0; i < n; ++i) {
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return published > i; });
      }
      Slot& s = slots[i];
      const bool was_waiting = !s.fut.done();
      {
        ScopedSpan w(ctx.log, "engine.wait", {}, s.req, phase_id);
        s.fut.wait();
      }
      const std::uint64_t observed = now_ns();
      const spc::Status st = s.fut.status();
      if (!st.ok()) {
        if (overload && st.code() == spc::StatusCode::kResourceExhausted) {
          ++res.shed;
        } else {
          ctx.tally.fail(std::string(name) + " request: " + st.to_string(), false);
        }
        s.fut = Future{};
        continue;
      }
      const std::uint64_t done = s.sent + s.fut.queue_ns() + s.fut.exec_ns();
      if (observed < done) {
        ctx.tally.fail(std::string(name) + " completion seen before engine-reported time", true);
      }
      ++res.ok;
      res.ok_in_window += done <= t_end ? 1 : 0;
      res.serial += s.fut.ran_serial() ? 1 : 0;
      res.latency_us.push_back(done > s.due ? us(done - s.due) : 0.0);
      res.queue_us.push_back(us(s.fut.queue_ns()));
      res.exec_us.push_back(us(s.fut.exec_ns()));
      if (was_waiting) {
        res.notify_us.push_back(us(observed - std::min(observed, done)));
      }
      inflight[s.mat].emplace_back(s.sent, done);
      if (i % kCheckEvery == 0) {
        const std::size_t bad = bad_rows(in.mats[s.mat].ref[s.variant], s.fut.value());
        if (bad != 0) {
          ctx.tally.fail(std::string(name) + " response wrong in " + std::to_string(bad) +
                             " rows of " + in.mats[s.mat].id,
                         true);
        }
      }
      s.fut = Future{};  // frees x and y
    }
  });

  // Registration writer: one stream matrix per slice of the phase,
  // unregistering the previous one, so at most two churn matrices are
  // resident at any time.
  std::thread writer;
  if (churn) {
    writer = std::thread([&] {
      const std::size_t k = in.stream.size();
      for (std::size_t j = 0; j < k; ++j) {
        sleep_until_ns(t0 + dur_ns * (2 * j + 1) / (2 * k));
        const spc::Status st = register_one(ctx, eng, in, j, "churn-" + std::to_string(j),
                                            phase_id, &res.register_ms);
        if (!st.ok()) {
          ctx.tally.fail("churn register: " + st.to_string(), false);
        }
        if (j > 0) {
          ScopedSpan c(ctx.log, "engine.unregister_matrix", {}, 0, phase_id);
          eng.unregister_matrix("churn-" + std::to_string(j - 1));
        }
      }
      if (k > 0) {
        eng.unregister_matrix("churn-" + std::to_string(k - 1));
      }
    });
  }

  std::vector<std::uint64_t> due(n);
  std::vector<std::uint64_t> sent(n);
  for (std::size_t i = 0; i < n; ++i) {
    Slot& s = slots[i];
    const Matrix& m = in.mats[s.mat];
    spc::Vector x = m.x[s.variant];  // copied before the due time
    s.due = due[i] = t0 + offsets[i];
    sleep_until_ns(s.due);
    s.sent = sent[i] = now_ns();
    {
      ScopedSpan c(ctx.log, "engine.submit", {}, s.req, phase_id);
      s.fut = eng.submit(m.id, std::move(x));
    }
    res.submit_us.push_back(us(now_ns() - s.sent));
    res.queue_depth_max = std::max(res.queue_depth_max, eng.queue_depth());
    {
      std::lock_guard<std::mutex> lk(mu);
      published = i + 1;
    }
    cv.notify_one();
  }
  ctx.tally.attempted.fetch_add(n);
  res.sent = n;
  res.late_us = lateness_us(due, sent);
  waiter.join();
  if (writer.joinable()) {
    writer.join();
  }

  const spc::engine::Engine::Stats after = eng.stats();
  const std::uint64_t batches = after.batches - before.batches;
  const std::uint64_t queued = (after.submitted - before.submitted) - (after.rejected - before.rejected);
  res.reqs_per_batch = batches == 0 ? 0.0 : static_cast<double>(queued) / static_cast<double>(batches);
  res.same_matrix_overlap = overlap_share(std::move(inflight));
  return res;
}

std::vector<double> register_stream(Ctx& ctx, Resident& r, const Inputs& in) {
  ScopedSpan span(ctx.log, "bench.register");
  std::vector<double> ms;
  for (std::size_t j = 0; j < in.stream.size(); ++j) {
    const std::string id = "stream-" + std::to_string(j);
    check_status(ctx, register_one(ctx, *r.eng, in, j, id, span.id(), &ms), "register " + id);
    ScopedSpan c(ctx.log, "engine.unregister_matrix");
    r.eng->unregister_matrix(id);
  }
  return ms;
}

// ---- traced-only layer probes --------------------------------------------

FormatLayer format_layer(Ctx& ctx, Resident& r, const Inputs& in) {
  FormatLayer fl;
  const double nnz = static_cast<double>(total_nnz(in));
  for (std::size_t f = 0; f < kNumFormats; ++f) {
    std::uint64_t bytes = 0;
    std::uint64_t ns = 0;
    for (const Matrix& m : in.mats) {
      const std::uint64_t t0 = now_ns();
      {
        ScopedSpan c(ctx.log, "formats.from_triplets", kFormatNames[f]);
        switch (kFormats[f]) {
          case spc::Format::kCsr:
            bytes += spc::Csr::from_triplets(m.t).bytes();
            break;
          case spc::Format::kCsrDu:
            bytes += spc::CsrDu::from_triplets(m.t).bytes();
            break;
          case spc::Format::kCsrVi:
            bytes += spc::CsrVi::from_triplets(m.t).bytes();
            break;
          default:
            bytes += spc::CsrDuVi::from_triplets(m.t).bytes();
            break;
        }
      }
      ns += now_ns() - t0;
    }
    fl.encode_s[f] = secs(ns);
    fl.bytes_per_nnz[f] = static_cast<double>(bytes) / nnz;
    const std::uint64_t tp = now_ns();
    for (auto& inst : r.inst[f]) {
      ScopedSpan c(ctx.log, "spmv.prepare", kFormatNames[f]);
      inst->prepare();
    }
    fl.prepare_s[f] = secs(now_ns() - tp);
  }
  return fl;
}

TuneLayer tune_layer(Ctx& ctx, const Inputs& in) {
  TuneLayer tl;
  for (const spc::Triplets& t : in.stream) {
    const std::uint64_t t0 = now_ns();
    {
      ScopedSpan c(ctx.log, "tune.extract_features");
      (void)spc::tune::extract_features(t);
    }
    tl.features_s.push_back(secs(now_ns() - t0));
    spc::tune::TuneOptions topts;
    topts.cache_path = ctx.cold_cache_path();
    spc::tune::TuneReport rep;
    spc::Format chosen;
    {
      ScopedSpan c(ctx.log, "tune.pick_format");
      chosen = spc::tune::pick_format(t, kThreads, {}, topts, &rep);
    }
    tl.probe_s.push_back(secs(rep.probe_ns));
    tl.candidates.push_back(static_cast<double>(rep.candidates.size()));
    const auto* it = std::find(std::begin(kFormats), std::end(kFormats), chosen);
    if (it == std::end(kFormats)) {
      ++tl.picked_other;
    } else {
      ++tl.picked[it - std::begin(kFormats)];
    }
  }
  return tl;
}

}  // namespace e2e
