#include "spc/engine/engine.hpp"

#include <algorithm>
#include <new>
#include <utility>

#include "spc/support/error.hpp"
#include "spc/support/timing.hpp"
#include "spc/support/topology.hpp"

namespace spc::engine {

Status EngineOptions::validate() const {
  if (dispatchers < 1) {
    return Status::Invalid("EngineOptions.dispatchers must be >= 1, got 0");
  }
  if (queue_capacity < 1) {
    return Status::Invalid("EngineOptions.queue_capacity must be >= 1, got 0");
  }
  if (batch_max < 1) {
    return Status::Invalid("EngineOptions.batch_max must be >= 1, got 0");
  }
  if (overflow == OverflowPolicy::kTimeout && submit_timeout_ms == 0) {
    return Status::Invalid(
        "EngineOptions.submit_timeout_ms must be nonzero under the "
        "timeout overflow policy (0 would reject instantly; use kReject "
        "for that)");
  }
  return instance.validate();
}

Engine::Engine(const EngineOptions& opts) : opts_(opts) {
  const Status st = opts_.validate();
  if (!st.ok()) {
    throw InvalidArgument(st.message());
  }

  const Topology topo = discover_topology();
  std::size_t nthreads = opts_.pool_threads;
  if (nthreads == 0) {
    nthreads = std::max<std::size_t>(topo.cpus.size(), 1);
  }
  std::vector<int> plan;
  if (opts_.pin_threads) {
    plan = plan_placement(topo, nthreads, opts_.placement);
  }
  pool_ = std::make_shared<ThreadPool>(nthreads, plan);

  obs::Registry& reg = obs::Registry::global();
  m_submitted_ = &reg.counter("spc.engine.submitted");
  m_completed_ = &reg.counter("spc.engine.completed");
  m_rejected_ = &reg.counter("spc.engine.rejected");
  m_cancelled_ = &reg.counter("spc.engine.cancelled");
  m_deadline_ = &reg.counter("spc.engine.deadline_missed");
  m_serial_ = &reg.counter("spc.engine.serial_runs");
  m_batches_ = &reg.counter("spc.engine.batches");
  m_depth_ = &reg.gauge("spc.engine.queue_depth");
  m_queue_ns_ = &reg.histogram("spc.engine.queue_ns");
  m_exec_ns_ = &reg.histogram("spc.engine.exec_ns");
  m_latency_ns_ = &reg.histogram("spc.engine.latency_ns");

  dispatchers_.reserve(opts_.dispatchers);
  for (std::size_t i = 0; i < opts_.dispatchers; ++i) {
    dispatchers_.emplace_back([this] { dispatcher_main(); });
  }
}

Engine::~Engine() { shutdown(); }

// ---- Registry ---------------------------------------------------------

Status Engine::register_matrix(const std::string& id, const Triplets& t,
                               const RegisterOptions& ropts) {
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    if (closed_) {
      return Status::Unavailable("engine is shut down");
    }
  }
  {
    std::shared_lock<std::shared_mutex> lk(reg_mu_);
    if (matrices_.count(id) != 0) {
      return Status::AlreadyExists("matrix id '" + id +
                                   "' is already registered");
    }
  }

  // Encode outside the registry lock: tuning/encoding may take a while
  // and must not stall concurrent submits to other matrices.
  std::shared_ptr<MatrixEntry> entry;
  try {
    entry = std::make_shared<MatrixEntry>();
    entry->id = id;
    Format fmt = ropts.format;
    tune::TuneReport rep;
    if (ropts.auto_format) {
      fmt = tune::pick_format(t, pool_->size(), opts_.instance, ropts.tune,
                              &rep);
    }
    entry->inst =
        std::make_unique<SpmvInstance>(t, fmt, pool_, opts_.instance);
    if (ropts.auto_format) {
      SpmvInstance::TuneProvenance p;
      p.tuned = true;
      p.cache_hit = rep.cache_hit;
      p.probe_ns = rep.probe_ns;
      p.source = rep.source;
      p.fingerprint = rep.fingerprint;
      entry->inst->set_tune_provenance(std::move(p));
    }
  } catch (const InvalidArgument& e) {
    return Status::Invalid("registering matrix '" + id + "': " + e.what());
  } catch (const ParseError& e) {
    return Status::Invalid("registering matrix '" + id + "': " + e.what());
  } catch (const std::bad_alloc&) {
    return Status::Exhausted("registering matrix '" + id +
                             "': out of memory");
  } catch (const Error& e) {
    // A failed SPC_CHECK or another library fault, not the caller's.
    return Status::Internal("registering matrix '" + id + "': " + e.what());
  }

  {
    std::unique_lock<std::shared_mutex> lk(reg_mu_);
    if (!matrices_.emplace(id, entry).second) {
      return Status::AlreadyExists("matrix id '" + id +
                                   "' is already registered");
    }
  }

  if (ropts.warm_runs > 0) {
    return warm(id, ropts.warm_runs);
  }
  return Status::Ok();
}

Status Engine::unregister_matrix(const std::string& id) {
  std::unique_lock<std::shared_mutex> lk(reg_mu_);
  if (matrices_.erase(id) == 0) {
    return Status::NotFound("no matrix registered under id '" + id + "'");
  }
  return Status::Ok();
}

bool Engine::has_matrix(const std::string& id) const {
  std::shared_lock<std::shared_mutex> lk(reg_mu_);
  return matrices_.count(id) != 0;
}

std::vector<std::string> Engine::matrix_ids() const {
  std::shared_lock<std::shared_mutex> lk(reg_mu_);
  std::vector<std::string> ids;
  ids.reserve(matrices_.size());
  for (const auto& [id, entry] : matrices_) {
    ids.push_back(id);
  }
  return ids;
}

Status Engine::matrix_info(const std::string& id, MatrixInfo* out) const {
  const std::shared_ptr<MatrixEntry> entry = find_entry(id);
  if (entry == nullptr) {
    return Status::NotFound("no matrix registered under id '" + id + "'");
  }
  if (out != nullptr) {
    const SpmvInstance& inst = *entry->inst;
    out->format = inst.format();
    out->nrows = inst.nrows();
    out->ncols = inst.ncols();
    out->nnz = inst.nnz();
    out->nthreads = inst.nthreads();
    out->tuned = inst.tune_provenance().tuned;
    out->tune_cache_hit = inst.tune_provenance().cache_hit;
    out->tune_source = inst.tune_provenance().source;
    out->runs = entry->runs.load(std::memory_order_relaxed);
    out->decisions = inst.decisions();
  }
  return Status::Ok();
}

Status Engine::warm(const std::string& id, std::size_t iters) {
  const std::shared_ptr<MatrixEntry> entry = find_entry(id);
  if (entry == nullptr) {
    return Status::NotFound("no matrix registered under id '" + id + "'");
  }
  const Vector x = const_vector(entry->inst->ncols(), 1.0);
  Vector y(entry->inst->nrows(), 0.0);
  for (std::size_t i = 0; i < iters; ++i) {
    entry->inst->run(x, y);
  }
  return Status::Ok();
}

// ---- Serving ----------------------------------------------------------

Future Engine::submit(const std::string& id, Vector x,
                      const SubmitOptions& sopts) {
  auto state = std::make_shared<RequestState>();
  state->x = std::move(x);
  state->submit_ns = now_ns();
  if (sopts.deadline_ms > 0) {
    state->deadline_ns = state->submit_ns + sopts.deadline_ms * 1'000'000ull;
  }
  Future fut(state);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  m_submitted_->add();

  const std::shared_ptr<MatrixEntry> entry = find_entry(id);
  if (entry == nullptr) {
    state->complete(
        Status::NotFound("no matrix registered under id '" + id + "'"));
    return fut;
  }
  if (state->x.size() != static_cast<std::size_t>(entry->inst->ncols())) {
    state->complete(Status::Invalid(
        "matrix '" + id + "' needs x with " +
        std::to_string(entry->inst->ncols()) + " elements, got " +
        std::to_string(state->x.size())));
    return fut;
  }

  {
    std::unique_lock<std::mutex> lk(queue_mu_);
    if (closed_) {
      lk.unlock();
      state->complete(Status::Unavailable("engine is shut down"));
      return fut;
    }
    if (queue_.size() >= opts_.queue_capacity) {
      switch (opts_.overflow) {
        case OverflowPolicy::kReject:
          lk.unlock();
          rejected_.fetch_add(1, std::memory_order_relaxed);
          m_rejected_->add();
          state->complete(Status::Exhausted(
              "admission queue full (" +
              std::to_string(opts_.queue_capacity) + " requests)"));
          return fut;
        case OverflowPolicy::kBlock:
          queue_push_cv_.wait(lk, [&] {
            return closed_ || queue_.size() < opts_.queue_capacity;
          });
          break;
        case OverflowPolicy::kTimeout: {
          const bool got_slot = queue_push_cv_.wait_for(
              lk, std::chrono::milliseconds(opts_.submit_timeout_ms), [&] {
                return closed_ || queue_.size() < opts_.queue_capacity;
              });
          if (!got_slot) {
            lk.unlock();
            rejected_.fetch_add(1, std::memory_order_relaxed);
            m_rejected_->add();
            state->complete(Status::Exhausted(
                "admission queue full after waiting " +
                std::to_string(opts_.submit_timeout_ms) + " ms"));
            return fut;
          }
          break;
        }
      }
      if (closed_) {
        lk.unlock();
        state->complete(Status::Unavailable("engine is shut down"));
        return fut;
      }
    }
    queue_.push_back(Request{entry, state});
    m_depth_->set(static_cast<double>(queue_.size()));
  }
  queue_pop_cv_.notify_one();
  return fut;
}

Status Engine::run_sync(const std::string& id, const Vector& x, Vector* y,
                        const SubmitOptions& sopts) {
  Future fut = submit(id, x, sopts);
  const Status st = fut.status();
  if (st.ok() && y != nullptr) {
    *y = fut.take();
  }
  return st;
}

void Engine::drain() {
  std::unique_lock<std::mutex> lk(queue_mu_);
  drain_cv_.wait(lk, [&] {
    return queue_.empty() && in_flight_.load(std::memory_order_acquire) == 0;
  });
}

void Engine::shutdown() {
  // Idempotent: the dispatcher threads are claimed under the lock, so
  // exactly one caller joins them (the destructor's call after an
  // explicit shutdown() claims an empty vector and returns).
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    closed_ = true;
    to_join.swap(dispatchers_);
  }
  queue_pop_cv_.notify_all();
  queue_push_cv_.notify_all();
  for (std::thread& th : to_join) {
    if (th.joinable()) {
      th.join();
    }
  }
}

// ---- Introspection ----------------------------------------------------

std::size_t Engine::queue_depth() const {
  std::lock_guard<std::mutex> lk(queue_mu_);
  return queue_.size();
}

Engine::Stats Engine::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.deadline_missed = deadline_missed_.load(std::memory_order_relaxed);
  s.serial_runs = serial_runs_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  return s;
}

// ---- Internals --------------------------------------------------------

std::shared_ptr<Engine::MatrixEntry> Engine::find_entry(
    const std::string& id) const {
  std::shared_lock<std::shared_mutex> lk(reg_mu_);
  const auto it = matrices_.find(id);
  return it == matrices_.end() ? nullptr : it->second;
}

void Engine::dispatcher_main() {
  std::vector<Request> batch;
  batch.reserve(opts_.batch_max);
  for (;;) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      queue_pop_cv_.wait(lk, [&] { return closed_ || !queue_.empty(); });
      if (queue_.empty()) {
        // closed_ and drained: every dispatcher leaves. Admission is
        // already refused, so the queue can never refill.
        return;
      }
      const std::size_t take = std::min(opts_.batch_max, queue_.size());
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      in_flight_.fetch_add(batch.size(), std::memory_order_acq_rel);
      m_depth_->set(static_cast<double>(queue_.size()));
    }
    queue_push_cv_.notify_all();
    batches_.fetch_add(1, std::memory_order_relaxed);
    m_batches_->add();

    // Group the batch per matrix so consecutive runs reuse the matrix's
    // cache-resident slices (submission order is preserved within a
    // matrix; cross-matrix order within one batch is reordered anyway
    // by having several dispatchers).
    std::stable_sort(batch.begin(), batch.end(),
                     [](const Request& a, const Request& b) {
                       return a.entry.get() < b.entry.get();
                     });
    for (Request& req : batch) {
      execute(req);
      if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lk(queue_mu_);
        if (queue_.empty()) {
          drain_cv_.notify_all();
        }
      }
    }
  }
}

void Engine::execute(Request& req) {
  RequestState& st = *req.state;
  const std::uint64_t start = now_ns();
  st.queue_ns = start - st.submit_ns;

  if (st.cancel_requested.load(std::memory_order_relaxed)) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    m_cancelled_->add();
    st.complete(Status::Cancelled("request cancelled before execution"));
    return;
  }
  if (st.deadline_ns != 0 && start > st.deadline_ns) {
    deadline_missed_.fetch_add(1, std::memory_order_relaxed);
    m_deadline_->add();
    st.complete(Status::DeadlineExceeded(
        "deadline passed after " + std::to_string(st.queue_ns / 1'000'000) +
        " ms in queue"));
    return;
  }

  SpmvInstance& inst = *req.entry->inst;
  st.y.assign(static_cast<std::size_t>(inst.nrows()), 0.0);
  Status result = Status::Ok();
  try {
    // Degraded mode: when the shared pool is mid-dispatch for someone
    // else, a row-partitioned matrix computes bit-identically on this
    // dispatcher thread — trading parallel speed for not queueing
    // behind the pool. busy() is advisory, but a stale answer only
    // costs the optimal choice, never correctness.
    if (opts_.serial_fallback && inst.can_run_on_caller() && pool_->busy() &&
        inst.run_on_caller(st.x, st.y)) {
      st.ran_serial = true;
      serial_runs_.fetch_add(1, std::memory_order_relaxed);
      m_serial_->add();
    } else {
      inst.run(st.x, st.y);
    }
  } catch (const std::exception& e) {
    result = Status::Internal(std::string("SpMV execution failed: ") +
                              e.what());
  }

  const std::uint64_t end = now_ns();
  st.exec_ns = end - start;
  if (result.ok()) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    m_completed_->add();
    req.entry->runs.fetch_add(1, std::memory_order_relaxed);
    m_queue_ns_->record(st.queue_ns);
    m_exec_ns_->record(st.exec_ns);
    m_latency_ns_->record(end - st.submit_ns);
  }
  st.complete(std::move(result));
}

}  // namespace spc::engine
