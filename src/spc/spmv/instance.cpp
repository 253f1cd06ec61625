#include "spc/spmv/instance.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <tuple>
#include <utility>

#include "spc/obs/metrics_io.hpp"
#include "spc/obs/trace.hpp"
#include "spc/spmv/kernels.hpp"
#include "spc/support/strutil.hpp"
#include "spc/support/timing.hpp"

namespace spc {

void SpmvInstance::dispatch_raw(ThreadPool::RawJob fn) {
  xpool_->run(fn, this);
}

void SpmvInstance::xcopy_job(void* ctx, std::size_t tid) {
  auto* self = static_cast<SpmvInstance*>(ctx);
  self->numa_x_copy_[tid](self->run_args_.x);
}

void SpmvInstance::static_job(void* ctx, std::size_t tid) {
  auto* self = static_cast<SpmvInstance*>(ctx);
  self->binding_.per_thread[tid](self->worker_x(tid), self->run_args_.y);
}

void SpmvInstance::chunked_job(void* ctx, std::size_t tid) {
  auto* self = static_cast<SpmvInstance*>(ctx);
  const value_t* const x = self->worker_x(tid);
  value_t* const y = self->run_args_.y;
  const std::uint32_t b = self->chunk_plan_.owner_begin[tid];
  const std::uint32_t e = self->chunk_plan_.owner_begin[tid + 1];
  for (std::uint32_t c = b; c < e; ++c) {
    self->binding_.per_chunk[c](x, y);
  }
  self->sched_slots_[tid].executed += e - b;
}

void SpmvInstance::steal_job(void* ctx, std::size_t tid) {
  auto* self = static_cast<SpmvInstance*>(ctx);
  const value_t* const x = self->worker_x(tid);
  value_t* const y = self->run_args_.y;
  std::uint64_t executed = 0;
  std::uint64_t stolen = 0;
  std::uint32_t c = 0;
  // Own chunks first, in ascending row order (streaming locality).
  while (self->deques_[tid].take(&c)) {
    self->binding_.per_chunk[c](x, y);
    ++executed;
  }
  // Then sweep victims — NUMA-near ones first (steal_victims_ order),
  // draining each before moving on. A kContended result means somebody
  // is still active on that deque, so the sweep must run again: only a
  // full pass of kEmpty proves there is no work left anywhere.
  const std::vector<std::uint32_t>& victims = self->steal_victims_[tid];
  bool again = true;
  while (again) {
    again = false;
    bool got_any = false;
    for (const std::uint32_t v : victims) {
      for (;;) {
        const ChunkDeque::Steal r = self->deques_[v].steal(&c);
        if (r == ChunkDeque::Steal::kGot) {
          self->binding_.per_chunk[c](x, y);
          ++executed;
          ++stolen;
          got_any = true;
          continue;
        }
        if (r == ChunkDeque::Steal::kContended) {
          again = true;
        }
        break;
      }
    }
    // A fruitless contended pass means the remaining work is being
    // drained by others; give the CPU away instead of spinning on their
    // deques (on oversubscribed hosts the spin starves the very workers
    // holding the chunks).
    if (again && !got_any) {
      std::this_thread::yield();
    }
  }
  SchedSlot& slot = self->sched_slots_[tid];
  slot.executed += executed;
  slot.stolen += stolen;
  if (stolen != 0) {
    self->sched_steals_counter_->add(stolen);
  }
}

void SpmvInstance::sym_compute_job(void* ctx, std::size_t tid) {
  auto* self = static_cast<SpmvInstance*>(ctx);
  // Zero this worker's conflict window (or full private scratch) before
  // its rows run; the kernels accumulate into it.
  if (self->sym_reduce_ == SymReduce::kWindow) {
    value_t* const win = self->sym_win_ptr_[tid];
    const index_t len = self->partition_.row_begin(tid) -
                        self->sym_plan_.win_begin[tid];
    std::fill(win, win + len, 0.0);
  } else {
    Vector& s = self->csc_scratch_[tid];
    std::fill(s.begin(), s.end(), 0.0);
  }
  const value_t* const x = self->worker_x(tid);
  value_t* const y = self->run_args_.y;
  if (self->sched_ != Schedule::kStatic &&
      !self->binding_.per_chunk.empty()) {
    // kChunked only: every chunk stays on its owner (ascending row
    // order), so the window writes match the static schedule exactly.
    const std::uint32_t b = self->chunk_plan_.owner_begin[tid];
    const std::uint32_t e = self->chunk_plan_.owner_begin[tid + 1];
    for (std::uint32_t c = b; c < e; ++c) {
      self->binding_.per_chunk[c](x, y);
    }
    self->sched_slots_[tid].executed += e - b;
  } else {
    self->binding_.per_thread[tid](x, y);
  }
}

void SpmvInstance::sym_reduce_job(void* ctx, std::size_t tid) {
  auto* self = static_cast<SpmvInstance*>(ctx);
  value_t* const y = self->run_args_.y;
  if (self->sym_reduce_ == SymReduce::kWindow) {
    // Fold the overlapping windows into this worker's own compute rows
    // (cache/NUMA-local — it just wrote them). Ascending thread order
    // keeps the accumulation deterministic. Thread 0's window is always
    // empty (nothing below row 0), so the fold starts at 1.
    const index_t r0 = self->partition_.row_begin(tid);
    const index_t r1 = self->partition_.row_end(tid);
    for (std::size_t t = 1; t < self->nthreads_; ++t) {
      const index_t wb = self->sym_plan_.win_begin[t];
      const index_t we = self->partition_.row_begin(t);
      const index_t lo = std::max(r0, wb);
      const index_t hi = std::min(r1, we);
      if (lo >= hi) {
        continue;
      }
      const value_t* const win = self->sym_win_ptr_[t];
      for (index_t r = lo; r < hi; ++r) {
        y[r] += win[r - wb];
      }
    }
  } else {
    // Private-y fallback: even row split sums the full-length copies.
    const index_t r0 = self->csc_reduce_rows_.row_begin(tid);
    const index_t r1 = self->csc_reduce_rows_.row_end(tid);
    std::fill(y + r0, y + r1, 0.0);
    for (const Vector& s : self->csc_scratch_) {
      const value_t* const sp = s.data();
      for (index_t r = r0; r < r1; ++r) {
        y[r] += sp[r];
      }
    }
  }
}

namespace {

// What each format supports, one row per Format in enum order (which is
// also all_formats()'s presentation order). The names are tune-cache
// keys: never rename one.
struct FormatCaps {
  Format format;
  const char* name;
  /// The encoder refuses matrices that are not numerically symmetric.
  bool symmetric;
  /// Per-thread work is a contiguous row range of one kernel, so it can
  /// run as chunks under the dynamic schedules.
  bool chunkable;
  /// Has a column-tiled (stripe-major) execution path.
  bool tileable;
  /// Per-thread work is a row-partitioned slice of plain arrays that the
  /// NUMA placement can repack.
  bool repackable;
};

constexpr FormatCaps kFormatCaps[] = {
    // format           name          sym    chunk  tile   repack
    {Format::kCsr,      "csr",        false, true,  true,  true},
    {Format::kCsr16,    "csr16",      false, true,  false, true},
    {Format::kCoo,      "coo",        false, false, false, false},
    {Format::kCsc,      "csc",        false, false, false, false},
    {Format::kBcsr,     "bcsr",       false, true,  false, true},
    {Format::kEll,      "ell",        false, true,  false, true},
    {Format::kDia,      "dia",        false, false, false, false},
    {Format::kJds,      "jds",        false, false, false, false},
    {Format::kCsrDu,    "csr-du",     false, true,  true,  true},
    {Format::kCsrDuRle, "csr-du-rle", false, true,  true,  true},
    {Format::kCsrVi,    "csr-vi",     false, true,  true,  true},
    {Format::kCsrDuVi,  "csr-du-vi",  false, true,  true,  true},
    {Format::kDcsr,     "dcsr",       false, false, false, false},
    {Format::kSymCsr,   "sym-csr",    true,  true,  false, true},
    {Format::kSymCsrVi, "sym-csr-vi", true,  true,  false, true},
};

constexpr bool caps_in_enum_order() {
  for (std::size_t i = 0; i < std::size(kFormatCaps); ++i) {
    if (static_cast<std::size_t>(kFormatCaps[i].format) != i) {
      return false;
    }
  }
  return true;
}
static_assert(caps_in_enum_order(),
              "kFormatCaps must list every Format in enum order");

const FormatCaps& caps(Format f) {
  const auto i = static_cast<std::size_t>(f);
  SPC_CHECK_MSG(i < std::size(kFormatCaps), "unknown Format value");
  return kFormatCaps[i];
}

}  // namespace

std::string format_name(Format f) {
  const auto i = static_cast<std::size_t>(f);
  return i < std::size(kFormatCaps) ? kFormatCaps[i].name : "?";
}

Format parse_format(const std::string& name) {
  const std::string n = to_lower(name);
  for (const FormatCaps& c : kFormatCaps) {
    if (n == c.name) {
      return c.format;
    }
  }
  throw InvalidArgument("unknown format: " + name);
}

const std::vector<Format>& all_formats() {
  static const std::vector<Format> kAll = [] {
    std::vector<Format> all;
    for (const FormatCaps& c : kFormatCaps) {
      all.push_back(c.format);
    }
    return all;
  }();
  return kAll;
}

bool format_requires_symmetry(Format f) { return caps(f).symmetric; }

SpmvInstance::~SpmvInstance() = default;
SpmvInstance::SpmvInstance(SpmvInstance&&) noexcept = default;

Status InstanceOptions::validate() const {
  if (bcsr_block_rows < 1 || bcsr_block_cols < 1) {
    return Status::Invalid(
        "bcsr_block_rows/cols must be >= 1 (got " +
        std::to_string(bcsr_block_rows) + "x" +
        std::to_string(bcsr_block_cols) + ")");
  }
  if (!std::isfinite(ell_max_width_factor) || ell_max_width_factor < 0.0) {
    return Status::Invalid(
        "ell_max_width_factor must be a finite factor >= 0 (0 = "
        "unguarded), got " +
        std::to_string(ell_max_width_factor));
  }
  if (tiling.mode == TileMode::kForced && tiling.stripe_bytes == 0) {
    return Status::Invalid(
        "a forced tile stripe needs a byte width (stripe_bytes == 0; "
        "use TileMode::kAuto for a derived width)");
  }
  return Status::Ok();
}

void SpmvInstance::note_decision(const std::string& aspect,
                                 const std::string& requested,
                                 const std::string& resolved,
                                 const std::string& reason) {
  for (const InstanceDecision& d : decisions_) {
    if (d.aspect == aspect && d.resolved == resolved &&
        d.reason == reason) {
      return;
    }
  }
  decisions_.push_back({aspect, requested, resolved, reason});
}

SpmvInstance::SpmvInstance(const Triplets& t, Format format,
                           std::size_t nthreads,
                           const InstanceOptions& opts)
    : format_(format), nthreads_(nthreads), opts_(opts) {
  init(t);
}

SpmvInstance::SpmvInstance(const Triplets& t, Format format,
                           std::shared_ptr<ThreadPool> pool,
                           const InstanceOptions& opts)
    : format_(format),
      nthreads_(pool != nullptr ? pool->size() : 0),
      opts_(opts),
      shared_pool_(std::move(pool)) {
  SPC_CHECK_MSG(shared_pool_ != nullptr,
                "shared-pool SpmvInstance requires a pool");
  init(t);
}

void SpmvInstance::init(const Triplets& t) {
  const std::size_t nthreads = nthreads_;
  const Format format = format_;
  SPC_CHECK_MSG(nthreads >= 1, "nthreads must be >= 1");
  SPC_CHECK_MSG(t.is_sorted_unique(),
                "SpmvInstance requires sorted/combined triplets");
  if (const Status st = opts_.validate(); !st.ok()) {
    throw InvalidArgument("InstanceOptions: " + st.message());
  }
  nrows_ = t.nrows();
  ncols_ = t.ncols();
  nnz_ = t.nnz();
  runs_counter_ = &obs::Registry::global().counter("spc.spmv.runs");
  run_histo_ = &obs::Registry::global().histogram("spc.spmv.run_ns");

  // Covers encoding plus partitioning/slicing below.
  obs::TraceSpan prepare_span("prepare:" + format_name(format));

  // Encode the matrix.
  switch (format) {
    case Format::kCsr:
      matrix_.emplace<Csr>(Csr::from_triplets(t));
      break;
    case Format::kCsr16:
      SPC_CHECK_MSG(csr16_applicable(t),
                    "csr16 requires ncols <= 65536");
      matrix_.emplace<Csr16>(Csr16::from_triplets(t));
      break;
    case Format::kCoo:
      matrix_.emplace<Coo>(Coo::from_triplets(t));
      break;
    case Format::kCsc:
      matrix_.emplace<Csc>(Csc::from_triplets(t));
      break;
    case Format::kBcsr:
      matrix_.emplace<Bcsr>(Bcsr::from_triplets(t, opts_.bcsr_block_rows,
                                                opts_.bcsr_block_cols));
      break;
    case Format::kEll:
      matrix_.emplace<Ell>(
          Ell::from_triplets(t, opts_.ell_max_width_factor));
      break;
    case Format::kDia:
      matrix_.emplace<Dia>(Dia::from_triplets(t, opts_.dia_max_diags));
      break;
    case Format::kJds:
      matrix_.emplace<Jds>(Jds::from_triplets(t));
      break;
    case Format::kCsrDu: {
      CsrDuOptions du = opts_.du;
      du.enable_rle = false;
      matrix_.emplace<CsrDu>(CsrDu::from_triplets(t, du));
      break;
    }
    case Format::kCsrDuRle: {
      CsrDuOptions du = opts_.du;
      du.enable_rle = true;
      matrix_.emplace<CsrDu>(CsrDu::from_triplets(t, du));
      break;
    }
    case Format::kCsrVi:
      matrix_.emplace<CsrVi>(CsrVi::from_triplets(t));
      break;
    case Format::kCsrDuVi:
      matrix_.emplace<CsrDuVi>(CsrDuVi::from_triplets(t, opts_.du));
      break;
    case Format::kDcsr:
      matrix_.emplace<Dcsr>(Dcsr::from_triplets(t));
      break;
    case Format::kSymCsr:
      matrix_.emplace<SymCsr>(SymCsr::from_triplets(t));
      break;
    case Format::kSymCsrVi:
      matrix_.emplace<SymCsrVi>(SymCsrVi::from_triplets(t));
      break;
  }

  // Partition work. CSC partitions columns (§II-C); everything else rows.
  if (nthreads > 1) {
    obs::TraceSpan partition_span("partition");
    if (format == Format::kCsc) {
      aligned_vector<index_t> col_ptr(t.ncols() + 1, 0);
      for (const Entry& e : t.entries()) {
        ++col_ptr[e.col + 1];
      }
      for (index_t c = 0; c < t.ncols(); ++c) {
        col_ptr[c + 1] += col_ptr[c];
      }
      partition_ = opts_.balance_by_nnz
                       ? partition_rows_by_nnz(col_ptr, nthreads)
                       : partition_rows_even(t.ncols(), nthreads);
      csc_scratch_.assign(nthreads, Vector(t.nrows(), 0.0));
    } else if (format == Format::kBcsr) {
      const auto& m = std::get<Bcsr>(matrix_);
      partition_ = opts_.balance_by_nnz
                       ? partition_rows_by_nnz(m.block_row_ptr(), nthreads)
                       : partition_rows_even(m.nblock_rows(), nthreads);
    } else if (format == Format::kJds) {
      // JDS threads own ranges of *permuted* positions; balance by the
      // permuted rows' lengths.
      const auto& m = std::get<Jds>(matrix_);
      std::vector<index_t> len(t.nrows(), 0);
      for (const Entry& e : t.entries()) {
        ++len[e.row];
      }
      aligned_vector<index_t> pptr(t.nrows() + 1, 0);
      for (index_t i = 0; i < t.nrows(); ++i) {
        pptr[i + 1] = pptr[i] + len[m.perm()[i]];
      }
      partition_ = opts_.balance_by_nnz
                       ? partition_rows_by_nnz(pptr, nthreads)
                       : partition_rows_even(t.nrows(), nthreads);
    } else if (format_requires_symmetry(format)) {
      // Balance by stored (lower-triangle) elements, not full nnz.
      const aligned_vector<index_t>& rp =
          format == Format::kSymCsr
              ? std::get<SymCsr>(matrix_).row_ptr()
              : std::get<SymCsrVi>(matrix_).row_ptr();
      partition_ = opts_.balance_by_nnz
                       ? partition_rows_by_nnz(rp, nthreads)
                       : partition_rows_even(t.nrows(), nthreads);
    } else {
      partition_ = opts_.balance_by_nnz
                       ? partition_rows_by_nnz(t, nthreads)
                       : partition_rows_even(t.nrows(), nthreads);
    }
    if (format_requires_symmetry(format)) {
      const bool vi = format == Format::kSymCsrVi;
      const aligned_vector<index_t>& rp =
          vi ? std::get<SymCsrVi>(matrix_).row_ptr()
             : std::get<SymCsr>(matrix_).row_ptr();
      const aligned_vector<index_t>& ci =
          vi ? std::get<SymCsrVi>(matrix_).col_ind()
             : std::get<SymCsr>(matrix_).col_ind();
      sym_plan_ = plan_sym_windows(rp.data(), ci.data(), partition_,
                                   nthreads, nrows_,
                                   sym_reduce_from_env(opts_.sym_reduce));
      sym_reduce_ = sym_plan_.use_window ? SymReduce::kWindow
                                         : SymReduce::kPrivate;
      sym_active_ = true;
    }
    // Precompute per-thread slices for the streaming formats.
    if (const auto* du = std::get_if<CsrDu>(&matrix_)) {
      for (std::size_t th = 0; th < nthreads; ++th) {
        du_slices_.push_back(
            du->slice(partition_.row_begin(th), partition_.row_end(th)));
      }
    } else if (const auto* duvi = std::get_if<CsrDuVi>(&matrix_)) {
      for (std::size_t th = 0; th < nthreads; ++th) {
        du_slices_.push_back(duvi->du().slice(partition_.row_begin(th),
                                              partition_.row_end(th)));
      }
    } else if (const auto* dc = std::get_if<Dcsr>(&matrix_)) {
      for (std::size_t th = 0; th < nthreads; ++th) {
        dcsr_slices_.push_back(
            dc->slice(partition_.row_begin(th), partition_.row_end(th)));
      }
    }

    Topology topo;
    std::vector<int> plan;
    if (shared_pool_ != nullptr) {
      // Borrowed pool: placement facts come from its workers. An unpinned
      // pool leaves every worker's node unknowable.
      topo = discover_topology();
      const std::vector<int>& cpus = shared_pool_->worker_cpus();
      if (!cpus.empty() && cpus[0] >= 0) {
        plan = cpus;
      }
      xpool_ = shared_pool_.get();
      run_mu_ = std::make_unique<std::mutex>();
    } else {
      if (opts_.pin_threads) {
        topo = discover_topology();
        plan = plan_placement(topo, nthreads, opts_.placement);
      }
      pool_ = std::make_unique<ThreadPool>(nthreads, plan);
      xpool_ = pool_.get();
    }
    // Schedule first, NUMA second: the chunk plan (and the DU chunk
    // slices) are computed against the pristine arrays, then setup_numa
    // translates the owned slices into each worker's repacked arena
    // block.
    setup_schedule(t, topo);
    // Tiling after the schedule (the chunk plan defines the execution
    // blocks) and before NUMA placement (which repacks the tiled store's
    // per-worker spans instead of the matrix's).
    setup_tiling(t);
    // NUMA placement needs pinned workers: without a plan a worker's node
    // is unknowable, so the policy resolves to off.
    if (!plan.empty()) {
      setup_numa(topo);
    } else if (const NumaPolicy req = numa_policy_from_env(opts_.numa);
               req != NumaPolicy::kOff) {
      note_decision("numa", numa_policy_name(req), "off",
                    "workers are not pinned, so per-worker NUMA nodes "
                    "are unknown");
    }
    if (sym_active_) {
      if (sym_reduce_ == SymReduce::kWindow) {
        // setup_numa fills sym_win_ptr_ from arena blocks; otherwise
        // fall back to master-touched per-thread window buffers.
        if (sym_win_ptr_.empty()) {
          sym_win_ptr_.resize(nthreads);
          sym_win_store_.reserve(nthreads);
          for (std::size_t th = 0; th < nthreads; ++th) {
            sym_win_store_.emplace_back(
                partition_.row_begin(th) - sym_plan_.win_begin[th], 0.0);
            sym_win_ptr_[th] = sym_win_store_[th].data();
          }
        }
      } else {
        csc_scratch_.assign(nthreads, Vector(t.nrows(), 0.0));
        csc_reduce_rows_ = partition_rows_even(nrows_, nthreads);
      }
      auto& reg = obs::Registry::global();
      sym_reduce_counter_ = &reg.counter("spc.sym.reduce_ns");
      reg.gauge("spc.sym.window_rows")
          .set(static_cast<double>(sym_window_rows()));
    }
  }

  if (nthreads == 1) {
    setup_tiling(t);
  }
  prepare();
}

void SpmvInstance::setup_schedule(const Triplets& t, const Topology& topo) {
  Schedule requested = schedule_from_env(opts_.schedule);
  if (requested == Schedule::kStatic) {
    return;
  }
  // Formats without a chunked path (CSC's column partition + reduction,
  // DIA/JDS diagonal traversals, COO, DCSR) silently keep the static
  // schedule; schedule() reports what actually runs.
  if (!caps(format_).chunkable) {
    note_decision("schedule", schedule_name(requested), "static",
                  format_name(format_) +
                      " has no chunked execution path (work is not a "
                      "contiguous row range of one kernel)");
    return;
  }
  // A stolen symmetric chunk would scatter into the owner's conflict
  // window concurrently with the owner — a data race the window scheme
  // cannot absorb. Chunked keeps every chunk on its owner (run in
  // ascending order), so it stays bit-identical and safe.
  if (caps(format_).symmetric && requested == Schedule::kSteal) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      std::fprintf(stderr,
                   "spc: schedule=steal is unsafe for the symmetric "
                   "formats (concurrent window scatters); running "
                   "schedule=chunked instead\n");
    }
    note_decision("schedule", "steal", "chunked",
                  "stolen symmetric chunks would scatter into the "
                  "owner's conflict window concurrently");
    requested = Schedule::kChunked;
  }
  obs::TraceSpan sched_span("schedule:" + schedule_name(requested));

  usize_t target = chunk_nnz_from_env(opts_.chunk_nnz);
  if (target == 0) {
    target = chunk_target_nnz(topo.l2_bytes);
    // One chunk per deque degenerates stealing into relocating whole
    // thread ranges; when the matrix is small relative to the L2 target
    // but still has real work, shrink toward >= 4 chunks per worker
    // (never below the planner's 1024-nnz floor).
    const usize_t adaptive = nnz_ / (nthreads_ * 4);
    if (adaptive >= 1024 && adaptive < target) {
      target = adaptive;
    }
  }
  // Row-cost profile for the planner: BCSR budgets blocks against the
  // block-row partition; everything else budgets true non-zeros per row
  // (rebuilt from the triplets — the DU family has no row_ptr).
  if (format_ == Format::kBcsr) {
    chunk_plan_ = plan_chunks(std::get<Bcsr>(matrix_).block_row_ptr(),
                              partition_, target);
  } else if (format_ == Format::kSymCsr) {
    // Budget stored (lower-triangle) elements — the sym kernels never
    // touch the mirrored upper half.
    chunk_plan_ = plan_chunks(std::get<SymCsr>(matrix_).row_ptr(),
                              partition_, target);
  } else if (format_ == Format::kSymCsrVi) {
    chunk_plan_ = plan_chunks(std::get<SymCsrVi>(matrix_).row_ptr(),
                              partition_, target);
  } else {
    aligned_vector<index_t> rp(nrows_ + 1, 0);
    for (const Entry& e : t.entries()) {
      ++rp[e.row + 1];
    }
    for (index_t r = 0; r < nrows_; ++r) {
      rp[r + 1] += rp[r];
    }
    chunk_plan_ = plan_chunks(rp, partition_, target);
  }
  if (chunk_plan_.nchunks() == 0) {
    chunk_plan_ = ChunkPlan{};
    note_decision("schedule", schedule_name(requested), "static",
                  "chunk plan degenerated (too little work per worker "
                  "for the chunk target)");
    return;
  }
  sched_ = requested;

  // Per-chunk DU slices in one ctl scan (chunk bounds are row-aligned,
  // and units never span rows, so every bound is a unit boundary).
  if (const auto* du = std::get_if<CsrDu>(&matrix_)) {
    du_chunk_slices_ = du->slices(chunk_plan_.bounds);
  } else if (const auto* duvi = std::get_if<CsrDuVi>(&matrix_)) {
    du_chunk_slices_ = duvi->du().slices(chunk_plan_.bounds);
  }

  sched_slots_.assign(nthreads_, SchedSlot{});
  if (sched_ == Schedule::kSteal) {
    std::vector<std::uint32_t> ids(chunk_plan_.nchunks());
    for (std::size_t c = 0; c < ids.size(); ++c) {
      ids[c] = static_cast<std::uint32_t>(c);
    }
    deques_ = std::vector<ChunkDeque>(nthreads_);
    for (std::size_t th = 0; th < nthreads_; ++th) {
      deques_[th].init(
          ids.data() + chunk_plan_.owner_begin[th],
          chunk_plan_.owner_begin[th + 1] - chunk_plan_.owner_begin[th]);
    }
    // NUMA-near victim order from the pin plan; unknown topology (or a
    // single node) degrades to plain rotation inside the helper.
    std::vector<int> tnodes;
    const std::vector<int>& cpus = xpool_->worker_cpus();
    if (topo.num_nodes() > 1 && !cpus.empty() && cpus[0] >= 0) {
      tnodes.resize(nthreads_);
      for (std::size_t th = 0; th < nthreads_; ++th) {
        tnodes[th] = std::max(0, topo.node_of_cpu(cpus[th]));
      }
    }
    steal_victims_ = steal_victim_order(nthreads_, tnodes);
  }

  auto& reg = obs::Registry::global();
  sched_steals_counter_ = &reg.counter("spc.sched.steals");
  reg.gauge("spc.sched.chunks")
      .set(static_cast<double>(chunk_plan_.nchunks()));
}

std::uint64_t SpmvInstance::sched_steals_total() const {
  std::uint64_t total = 0;
  for (const SchedSlot& s : sched_slots_) {
    total += s.stolen;
  }
  return total;
}

void SpmvInstance::sched_reset() {
  for (SchedSlot& s : sched_slots_) {
    s.executed = 0;
    s.stolen = 0;
  }
}

void SpmvInstance::setup_tiling(const Triplets& t) {
  // CSR-16 keeps its untiled kernels (its 16-bit columns already bound
  // the index working set); the other untileable formats aren't
  // CSR-shaped row slices at all.
  if (!caps(format_).tileable) {
    return;
  }
  const TileConfig cfg = tile_config_from_env(opts_.tiling);
  if (cfg.mode == TileMode::kOff) {
    tile_plan_ = TilePlan{};
    tile_plan_.decline_reason = "off";
    return;
  }
  // Setup-only cost: the topology probe and the x-band scan (auto only)
  // run once per instance, off the timed path.
  const Topology topo = discover_topology();
  tile_plan_ = plan_tiles(
      cfg, nrows_, ncols_, nnz_,
      cfg.mode == TileMode::kAuto ? x_band_cols(t) : 0, topo.l1d_bytes,
      topo.l2_bytes);
  auto& reg = obs::Registry::global();
  if (!tile_plan_.active) {
    reg.counter("spc.tile.declined").add();
    note_decision("tiling", tile_config_name(cfg), "off",
                  tile_plan_.decline_detail);
    return;
  }
  obs::TraceSpan tiling_span("tiling");

  // Execution blocks: the chunk plan's chunks under the dynamic
  // schedules (stealing then moves whole blocks, so a block's stripes
  // always execute in column order on one worker), the partition's
  // per-thread ranges under static, the whole matrix when serial.
  std::vector<index_t> bounds;
  tile_block_owner_.clear();
  if (sched_ != Schedule::kStatic && chunk_plan_.nchunks() > 0) {
    bounds = chunk_plan_.bounds;
    tile_block_owner_ = chunk_plan_.owner;
  } else if (nthreads_ > 1) {
    bounds.push_back(partition_.row_begin(0));
    for (std::size_t th = 0; th < partition_.nthreads(); ++th) {
      bounds.push_back(partition_.row_end(th));
      tile_block_owner_.push_back(static_cast<std::uint32_t>(th));
    }
  } else {
    bounds = {0, nrows_};
    tile_block_owner_.push_back(0);
  }

  TiledStoreSpec spec;
  switch (format_) {
    case Format::kCsr:
      break;
    case Format::kCsrVi: {
      const auto& m = std::get<CsrVi>(matrix_);
      spec.values = false;
      spec.vi_elem = static_cast<std::size_t>(m.width());
      spec.vi_src = m.val_ind_raw().data();
      break;
    }
    case Format::kCsrDu:
      spec.du = true;
      spec.du_opts = opts_.du;
      spec.du_opts.enable_rle = false;
      break;
    case Format::kCsrDuRle:
      spec.du = true;
      spec.du_opts = opts_.du;
      spec.du_opts.enable_rle = true;
      break;
    case Format::kCsrDuVi: {
      const auto& m = std::get<CsrDuVi>(matrix_);
      spec.du = true;
      spec.du_opts = opts_.du;
      spec.values = false;
      spec.vi_elem = static_cast<std::size_t>(m.width());
      spec.vi_src = m.val_ind_raw().data();
      break;
    }
    default:
      break;
  }
  tile_store_ = build_tiled_store(t, bounds, tile_plan_, spec);
  tiled_ = true;

  // Per-tile DU slices against the shared store (setup_numa rewrites
  // them in place when it repacks). The accumulate kernels ignore the
  // slice row bounds; they are block-local here for reference.
  if (spec.du) {
    tile_du_slices_.reserve(tile_store_.tiles.size());
    for (const TileBlock& blk : tile_store_.blocks) {
      for (usize_t ti = blk.tile_begin; ti < blk.tile_end; ++ti) {
        const StripeTile& tile = tile_store_.tiles[ti];
        CsrDu::Slice s;
        s.ctl = tile_store_.ctl.data() + tile.ctl_begin;
        s.ctl_end = tile_store_.ctl.data() + tile.ctl_end;
        s.values = spec.values
                       ? tile_store_.val.data() + tile.val_begin
                       : nullptr;
        s.val_offset = tile.val_begin;
        s.row_begin = 0;
        s.row_end = blk.row_end - blk.row_begin;
        s.row_state = -1;
        s.nnz = tile.nnz;
        tile_du_slices_.push_back(s);
      }
    }
  }

  // Shared-store array pointers, one per worker; setup_numa swaps in the
  // repacked copies.
  TileArrays ta;
  ta.seg_ptr = tile_store_.seg_ptr.data();
  ta.seg_row = tile_store_.seg_row.data();
  ta.col = tile_store_.col.data();
  ta.val = tile_store_.val.data();
  ta.vi = tile_store_.vi.data();
  tile_arrays_.assign(nthreads_, ta);

  reg.counter("spc.tile.instances").add();
  reg.counter("spc.tile.tiles").add(tile_store_.tiles.size());
  reg.gauge("spc.tile.stripes")
      .set(static_cast<double>(tile_plan_.nstripes));
  reg.gauge("spc.tile.stripe_bytes")
      .set(static_cast<double>(tile_plan_.stripe_bytes));
}

void SpmvInstance::setup_numa(const Topology& topo) {
  // Formats that cannot be repacked (CSC's column partition +
  // reduction, DIA/JDS diagonal layouts, COO, DCSR) keep the shared
  // arrays.
  const NumaPolicy requested = numa_policy_from_env(opts_.numa);
  if (!caps(format_).repackable) {
    if (requested != NumaPolicy::kOff) {
      note_decision("numa", numa_policy_name(requested), "off",
                    format_name(format_) +
                        " keeps shared arrays (work is not a "
                        "row-partitioned slice of plain arrays)");
    }
    return;
  }
  const NumaPolicy policy =
      resolve_numa_policy(requested, topo.num_nodes());
  if (policy == NumaPolicy::kOff) {
    if (requested != NumaPolicy::kOff) {
      note_decision("numa", numa_policy_name(requested), "off",
                    "machine has a single NUMA node");
    }
    return;
  }
  obs::TraceSpan numa_span("numa:" + numa_policy_name(policy));

  // Each worker's node, from its resolved pin target.
  const std::vector<int>& cpus = xpool_->worker_cpus();
  thread_node_.resize(nthreads_);
  for (std::size_t t = 0; t < nthreads_; ++t) {
    thread_node_[t] = std::max(0, topo.node_of_cpu(cpus[t]));
  }
  std::vector<int> nodes_used;  // sorted distinct nodes with a worker
  for (const int nd : thread_node_) {
    if (std::find(nodes_used.begin(), nodes_used.end(), nd) ==
        nodes_used.end()) {
      nodes_used.push_back(nd);
    }
  }
  std::sort(nodes_used.begin(), nodes_used.end());

  // ---- Reserve: one block per worker, plus the x-mirror blocks. ----
  std::size_t x_blocks = 0;
  if (policy == NumaPolicy::kReplicate) {
    x_blocks = nodes_used.size();
  } else if (policy == NumaPolicy::kInterleave) {
    x_blocks = 1;
  }
  arena_ = std::make_unique<FirstTouchArena>(nthreads_ + x_blocks);

  struct ThreadPlan {
    FirstTouchArena::Handle rp, ci, val, vi;
    FirstTouchArena::Handle sr;  ///< tiled CSR family: seg_row copy
    FirstTouchArena::Handle diag;  ///< sym formats: diagonal slice
    FirstTouchArena::Handle win;   ///< sym window mode: conflict buffer
    index_t b = 0, e = 0;  ///< row (or block-row) range
    usize_t n0 = 0;        ///< first absolute value/ctl position
    usize_t n = 0;         ///< value (or ctl-byte) count
  };
  std::vector<ThreadPlan> plan(nthreads_);
  for (std::size_t t = 0; t < nthreads_; ++t) {
    plan[t].b = partition_.row_begin(t);
    plan[t].e = partition_.row_end(t);
  }

  // Worker -> tiled-store block range (blocks are ordered by owner: the
  // chunk plan's owner ranges under dynamic schedules, one block per
  // worker under static).
  const auto worker_blocks =
      [&](std::size_t w) -> std::pair<std::size_t, std::size_t> {
    if (sched_ != Schedule::kStatic && chunk_plan_.nchunks() > 0) {
      return {chunk_plan_.owner_begin[w], chunk_plan_.owner_begin[w + 1]};
    }
    return {w, w + 1};
  };
  const bool tiled_du_family = tiled_ && (format_ == Format::kCsrDu ||
                                          format_ == Format::kCsrDuRle ||
                                          format_ == Format::kCsrDuVi);

  // Plans the CSR-shaped formats: a rebased row_ptr slice plus nnz-sized
  // col/val/val-ind slices with the given element widths (0 = absent).
  const auto plan_csr_like = [&](const index_t* rp, std::size_t ci_elem,
                                 std::size_t val_elem,
                                 std::size_t vi_elem) {
    for (std::size_t t = 0; t < nthreads_; ++t) {
      ThreadPlan& p = plan[t];
      p.n0 = rp[p.b];
      p.n = rp[p.e] - rp[p.b];
      p.rp = arena_->reserve<index_t>(t, p.e - p.b + 1);
      if (ci_elem) {
        p.ci = arena_->reserve<std::uint8_t>(t, p.n * ci_elem);
      }
      if (val_elem) {
        p.val = arena_->reserve<std::uint8_t>(t, p.n * val_elem);
      }
      if (vi_elem) {
        p.vi = arena_->reserve<std::uint8_t>(t, p.n * vi_elem);
      }
    }
  };

  if (tiled_) {
    // Tiled execution reads the stripe-major store, not the matrix's
    // arrays: each worker's contiguous seg/ctl/element spans move into
    // its block instead. (Blocks are contiguous per worker, so the spans
    // are single memcpys.)
    const std::size_t vi_elem = tile_store_.vi_elem;
    for (std::size_t w = 0; w < nthreads_; ++w) {
      ThreadPlan& p = plan[w];
      const auto [wb, we] = worker_blocks(w);
      if (wb == we) {
        continue;  // no blocks — nothing reserved, closures never run
      }
      const TileBlock& first = tile_store_.blocks[wb];
      const TileBlock& last = tile_store_.blocks[we - 1];
      p.n0 = first.val_begin;
      p.n = last.val_begin + last.nnz - first.val_begin;  // elements
      if (tiled_du_family) {
        p.ci = arena_->reserve<std::uint8_t>(
            w, last.ctl_end - first.ctl_begin);
        if (format_ != Format::kCsrDuVi) {
          p.val = arena_->reserve<value_t>(w, p.n);
        }
      } else {
        const usize_t nsegs = last.seg_end - first.seg_begin;
        p.rp = arena_->reserve<index_t>(w, nsegs + 1);
        p.sr = arena_->reserve<index_t>(w, nsegs);
        p.ci = arena_->reserve<std::uint32_t>(w, p.n);
        if (format_ == Format::kCsr) {
          p.val = arena_->reserve<value_t>(w, p.n);
        }
      }
      if (vi_elem) {
        p.vi = arena_->reserve<std::uint8_t>(w, p.n * vi_elem);
      }
    }
  } else {
  switch (format_) {
    case Format::kCsr:
      plan_csr_like(std::get<Csr>(matrix_).row_ptr().data(),
                    sizeof(std::uint32_t), sizeof(value_t), 0);
      break;
    case Format::kCsr16:
      plan_csr_like(std::get<Csr16>(matrix_).row_ptr().data(),
                    sizeof(std::uint16_t), sizeof(value_t), 0);
      break;
    case Format::kCsrVi: {
      const auto& m = std::get<CsrVi>(matrix_);
      plan_csr_like(m.row_ptr().data(), sizeof(std::uint32_t), 0,
                    static_cast<std::size_t>(m.width()));
      break;
    }
    case Format::kCsrDu:
    case Format::kCsrDuRle:
    case Format::kCsrDuVi: {
      const std::size_t vi_elem =
          format_ == Format::kCsrDuVi
              ? static_cast<std::size_t>(
                    std::get<CsrDuVi>(matrix_).width())
              : 0;
      for (std::size_t t = 0; t < nthreads_; ++t) {
        ThreadPlan& p = plan[t];
        const CsrDu::Slice& s = du_slices_[t];
        p.n0 = s.val_offset;
        p.n = static_cast<usize_t>(s.ctl_end - s.ctl);
        p.ci = arena_->reserve<std::uint8_t>(t, p.n);
        if (s.values) {
          p.val = arena_->reserve<value_t>(t, s.nnz);
        }
        if (vi_elem) {
          p.vi = arena_->reserve<std::uint8_t>(t, s.nnz * vi_elem);
        }
      }
      break;
    }
    case Format::kBcsr: {
      const auto& m = std::get<Bcsr>(matrix_);
      const index_t* brp = m.block_row_ptr().data();
      const usize_t belems = static_cast<usize_t>(m.block_rows()) *
                             static_cast<usize_t>(m.block_cols());
      for (std::size_t t = 0; t < nthreads_; ++t) {
        ThreadPlan& p = plan[t];  // b/e are block-row bounds here
        p.n0 = brp[p.b];
        p.n = brp[p.e] - brp[p.b];
        p.rp = arena_->reserve<index_t>(t, p.e - p.b + 1);
        p.ci = arena_->reserve<index_t>(t, p.n);
        p.val = arena_->reserve<value_t>(t, p.n * belems);
      }
      break;
    }
    case Format::kEll: {
      const usize_t w = std::get<Ell>(matrix_).width();
      for (std::size_t t = 0; t < nthreads_; ++t) {
        ThreadPlan& p = plan[t];
        p.n0 = static_cast<usize_t>(p.b) * w;
        p.n = static_cast<usize_t>(p.e - p.b) * w;
        p.ci = arena_->reserve<index_t>(t, p.n);
        p.val = arena_->reserve<value_t>(t, p.n);
      }
      break;
    }
    case Format::kSymCsr:
    case Format::kSymCsrVi: {
      // Lower-triangle CSR slice plus the row range's diagonal slice,
      // and — in window mode — the thread's conflict buffer, so the
      // reduction's hot stores land on the owner's node too.
      const bool vi = format_ == Format::kSymCsrVi;
      std::size_t diag_elem = sizeof(value_t);
      if (vi) {
        const auto& m = std::get<SymCsrVi>(matrix_);
        diag_elem = static_cast<std::size_t>(m.width());
        plan_csr_like(m.row_ptr().data(), sizeof(index_t), 0, diag_elem);
      } else {
        const auto& m = std::get<SymCsr>(matrix_);
        plan_csr_like(m.row_ptr().data(), sizeof(index_t),
                      sizeof(value_t), 0);
      }
      for (std::size_t t = 0; t < nthreads_; ++t) {
        ThreadPlan& p = plan[t];
        p.diag = arena_->reserve<std::uint8_t>(
            t, static_cast<usize_t>(p.e - p.b) * diag_elem);
        if (sym_reduce_ == SymReduce::kWindow) {
          p.win = arena_->reserve<value_t>(
              t, static_cast<usize_t>(p.b - sym_plan_.win_begin[t]));
        }
      }
      break;
    }
    default:
      break;
  }
  }

  std::vector<FirstTouchArena::Handle> xh(x_blocks);
  for (std::size_t i = 0; i < x_blocks; ++i) {
    xh[i] = arena_->reserve<value_t>(nthreads_ + i, ncols_);
  }

  // ---- Allocate and first-touch: each worker zero-touches its own
  // block (pinning its pages to its node); one representative worker per
  // node touches that node's x mirror (all pages for replicate, every
  // nparts-th page for interleave). ----
  arena_->allocate();
  std::vector<int> rep(nodes_used.size(), -1);
  for (std::size_t i = 0; i < nodes_used.size(); ++i) {
    for (std::size_t t = 0; t < nthreads_; ++t) {
      if (thread_node_[t] == nodes_used[i]) {
        rep[i] = static_cast<int>(t);
        break;
      }
    }
  }
  xpool_->run([&](std::size_t t) {
    arena_->first_touch(t);
    for (std::size_t i = 0; i < nodes_used.size(); ++i) {
      if (rep[i] != static_cast<int>(t)) {
        continue;
      }
      if (policy == NumaPolicy::kReplicate) {
        arena_->first_touch(nthreads_ + i);
      } else if (policy == NumaPolicy::kInterleave) {
        arena_->first_touch_interleaved(nthreads_, i, nodes_used.size());
      }
    }
  });

  // ---- Copy the slices in (placement is already fixed, so the master
  // can do all copies) and record the pointers prepare() rebinds to. The
  // copies preserve values and order exactly: results are bit-identical
  // to the shared-array binding. ----
  numa_slices_.assign(nthreads_, NumaSlice{});
  // Copies for the CSR-shaped formats. The local row_ptr holds *rebased*
  // values (rp[i] - rp[b]) so col/val/vi slices index from 0, and the
  // returned row_ptr pointer is rebased so kernels keep absolute rows.
  const auto copy_csr_like = [&](const index_t* rp, const void* ci_src,
                                 std::size_t ci_elem,
                                 const value_t* val_src,
                                 const void* vi_src, std::size_t vi_elem) {
    for (std::size_t t = 0; t < nthreads_; ++t) {
      const ThreadPlan& p = plan[t];
      NumaSlice& ns = numa_slices_[t];
      index_t* lrp = arena_->data<index_t>(p.rp);
      for (index_t i = p.b; i <= p.e; ++i) {
        lrp[i - p.b] = rp[i] - rp[p.b];
      }
      ns.row_ptr = rebase_ptr<const index_t>(lrp, p.b);
      if (ci_elem) {
        std::uint8_t* lci = arena_->data<std::uint8_t>(p.ci);
        std::memcpy(lci,
                    static_cast<const std::uint8_t*>(ci_src) +
                        p.n0 * ci_elem,
                    p.n * ci_elem);
        ns.col_ind = lci;
      }
      if (val_src) {
        value_t* lv = arena_->data<value_t>(p.val);
        std::memcpy(lv, val_src + p.n0, p.n * sizeof(value_t));
        ns.values = lv;
      }
      if (vi_elem) {
        std::uint8_t* lvi = arena_->data<std::uint8_t>(p.vi);
        std::memcpy(lvi,
                    static_cast<const std::uint8_t*>(vi_src) +
                        p.n0 * vi_elem,
                    p.n * vi_elem);
        ns.val_ind = lvi;
      }
    }
  };

  if (tiled_) {
    // Tiled copies. CSR family: the local seg_ptr holds *rebased* values
    // (content - first element) with the returned pointer rebased by the
    // first segment, so the kernels keep absolute segment ids while
    // col/val/vi index from 0; seg_row copies verbatim (absolute rows).
    // DU family: the ctl/value/val-ind spans move and the worker's tile
    // slices are redirected in place — same relative positions, so any
    // executor decodes identical bytes.
    const std::size_t vi_elem = tile_store_.vi_elem;
    for (std::size_t w = 0; w < nthreads_; ++w) {
      const ThreadPlan& p = plan[w];
      const auto [wb, we] = worker_blocks(w);
      if (wb == we || arena_->block_bytes(w) == 0) {
        continue;
      }
      const TileBlock& first = tile_store_.blocks[wb];
      const TileBlock& last = tile_store_.blocks[we - 1];
      const usize_t elem0 = first.val_begin;
      TileArrays& ta = tile_arrays_[w];
      if (tiled_du_family) {
        const usize_t ctl0 = first.ctl_begin;
        std::uint8_t* lctl = arena_->data<std::uint8_t>(p.ci);
        std::memcpy(lctl, tile_store_.ctl.data() + ctl0,
                    last.ctl_end - ctl0);
        value_t* lval = nullptr;
        if (format_ != Format::kCsrDuVi) {
          lval = arena_->data<value_t>(p.val);
          std::memcpy(lval, tile_store_.val.data() + elem0,
                      p.n * sizeof(value_t));
          ta.val = lval;
        }
        for (usize_t ti = first.tile_begin; ti < last.tile_end; ++ti) {
          CsrDu::Slice& s = tile_du_slices_[ti];
          const StripeTile& tile = tile_store_.tiles[ti];
          s.ctl = lctl + (tile.ctl_begin - ctl0);
          s.ctl_end = lctl + (tile.ctl_end - ctl0);
          if (lval) {
            s.values = lval + (tile.val_begin - elem0);
          }
          if (vi_elem) {
            // Offsets into the worker-local val_ind span bound below.
            s.val_offset = tile.val_begin - elem0;
          }
        }
      } else {
        const usize_t seg0 = first.seg_begin;
        const usize_t nsegs = last.seg_end - seg0;
        const index_t* sp = tile_store_.seg_ptr.data();
        index_t* lsp = arena_->data<index_t>(p.rp);
        for (usize_t s = 0; s <= nsegs; ++s) {
          lsp[s] = sp[seg0 + s] - static_cast<index_t>(elem0);
        }
        ta.seg_ptr = rebase_ptr<const index_t>(
            lsp, static_cast<std::ptrdiff_t>(seg0));
        index_t* lsr = arena_->data<index_t>(p.sr);
        std::memcpy(lsr, tile_store_.seg_row.data() + seg0,
                    nsegs * sizeof(index_t));
        ta.seg_row = rebase_ptr<const index_t>(
            lsr, static_cast<std::ptrdiff_t>(seg0));
        std::uint32_t* lci = arena_->data<std::uint32_t>(p.ci);
        std::memcpy(lci, tile_store_.col.data() + elem0,
                    p.n * sizeof(std::uint32_t));
        ta.col = lci;
        if (format_ == Format::kCsr) {
          value_t* lv = arena_->data<value_t>(p.val);
          std::memcpy(lv, tile_store_.val.data() + elem0,
                      p.n * sizeof(value_t));
          ta.val = lv;
        }
      }
      if (vi_elem) {
        std::uint8_t* lvi = arena_->data<std::uint8_t>(p.vi);
        std::memcpy(lvi, tile_store_.vi.data() + elem0 * vi_elem,
                    p.n * vi_elem);
        ta.vi = lvi;
      }
    }
  } else {
  switch (format_) {
    case Format::kCsr: {
      const auto& m = std::get<Csr>(matrix_);
      copy_csr_like(m.row_ptr().data(), m.col_ind().data(),
                    sizeof(std::uint32_t), m.values().data(), nullptr, 0);
      break;
    }
    case Format::kCsr16: {
      const auto& m = std::get<Csr16>(matrix_);
      copy_csr_like(m.row_ptr().data(), m.col_ind().data(),
                    sizeof(std::uint16_t), m.values().data(), nullptr, 0);
      break;
    }
    case Format::kCsrVi: {
      const auto& m = std::get<CsrVi>(matrix_);
      copy_csr_like(m.row_ptr().data(), m.col_ind().data(),
                    sizeof(std::uint32_t), nullptr,
                    m.val_ind_raw().data(),
                    static_cast<std::size_t>(m.width()));
      break;
    }
    case Format::kCsrDu:
    case Format::kCsrDuRle:
    case Format::kCsrDuVi: {
      // The ctl stream and (pre-offset) values move into the owner's
      // block; the slice is then redirected at the copies. For DU-VI the
      // per-slice val_ind span moves too and the slice's val_offset
      // becomes 0, with prepare() binding the local pointer.
      const std::uint8_t* vi_raw = nullptr;
      std::size_t vi_elem = 0;
      if (format_ == Format::kCsrDuVi) {
        const auto& m = std::get<CsrDuVi>(matrix_);
        vi_raw = m.val_ind_raw().data();
        vi_elem = static_cast<std::size_t>(m.width());
      }
      for (std::size_t t = 0; t < nthreads_; ++t) {
        const ThreadPlan& p = plan[t];
        CsrDu::Slice& s = du_slices_[t];
        if (arena_->block_bytes(t) == 0) {
          continue;  // empty slice — nothing reserved, nothing to move
        }
        const CsrDu::Slice orig = s;  // pristine offsets, for the chunks
        std::uint8_t* lctl = arena_->data<std::uint8_t>(p.ci);
        std::memcpy(lctl, s.ctl, p.n);
        s.ctl = lctl;
        s.ctl_end = lctl + p.n;
        if (s.values) {
          value_t* lv = arena_->data<value_t>(p.val);
          std::memcpy(lv, s.values, s.nnz * sizeof(value_t));
          s.values = lv;
        }
        if (vi_elem) {
          std::uint8_t* lvi = arena_->data<std::uint8_t>(p.vi);
          std::memcpy(lvi, vi_raw + p.n0 * vi_elem, s.nnz * vi_elem);
          numa_slices_[t].val_ind = lvi;
          s.val_offset = 0;
        }
        // Chunk slices owned by this worker follow its data into the
        // arena block: same relative ctl/value positions, so any
        // executor decodes identical bytes.
        if (!du_chunk_slices_.empty()) {
          for (std::uint32_t c = chunk_plan_.owner_begin[t];
               c < chunk_plan_.owner_begin[t + 1]; ++c) {
            CsrDu::Slice& cs = du_chunk_slices_[c];
            const std::ptrdiff_t ctl_off = cs.ctl - orig.ctl;
            const std::ptrdiff_t ctl_len = cs.ctl_end - cs.ctl;
            cs.ctl = s.ctl + ctl_off;
            cs.ctl_end = cs.ctl + ctl_len;
            const usize_t rel_val = cs.val_offset - orig.val_offset;
            if (cs.values) {
              cs.values = s.values + rel_val;
            }
            if (vi_elem) {
              // The owner's local val_ind span starts at its slice's
              // first non-zero; prepare() binds that local pointer per
              // chunk.
              cs.val_offset = rel_val;
            }
          }
        }
      }
      break;
    }
    case Format::kBcsr: {
      const auto& m = std::get<Bcsr>(matrix_);
      const index_t* brp = m.block_row_ptr().data();
      const usize_t belems = static_cast<usize_t>(m.block_rows()) *
                             static_cast<usize_t>(m.block_cols());
      for (std::size_t t = 0; t < nthreads_; ++t) {
        const ThreadPlan& p = plan[t];
        NumaSlice& ns = numa_slices_[t];
        index_t* lrp = arena_->data<index_t>(p.rp);
        for (index_t i = p.b; i <= p.e; ++i) {
          lrp[i - p.b] = brp[i] - brp[p.b];
        }
        ns.row_ptr = rebase_ptr<const index_t>(lrp, p.b);
        index_t* lbc = arena_->data<index_t>(p.ci);
        std::memcpy(lbc, m.block_col().data() + p.n0,
                    p.n * sizeof(index_t));
        ns.col_ind = lbc;
        value_t* lv = arena_->data<value_t>(p.val);
        std::memcpy(lv, m.values().data() + p.n0 * belems,
                    p.n * belems * sizeof(value_t));
        ns.values = lv;
      }
      break;
    }
    case Format::kEll: {
      // Row-major fixed-width layout: a row range is one contiguous
      // span; the kernels index with absolute r*width+k, so the local
      // copies are handed out rebased.
      const auto& m = std::get<Ell>(matrix_);
      for (std::size_t t = 0; t < nthreads_; ++t) {
        const ThreadPlan& p = plan[t];
        NumaSlice& ns = numa_slices_[t];
        if (arena_->block_bytes(t) == 0) {
          continue;  // empty row range — null pointers, never dereferenced
        }
        index_t* lci = arena_->data<index_t>(p.ci);
        std::memcpy(lci, m.col_ind().data() + p.n0,
                    p.n * sizeof(index_t));
        ns.col_ind = rebase_ptr<const index_t>(
            lci, static_cast<std::ptrdiff_t>(p.n0));
        value_t* lv = arena_->data<value_t>(p.val);
        std::memcpy(lv, m.values().data() + p.n0,
                    p.n * sizeof(value_t));
        ns.values = rebase_ptr<const value_t>(
            lv, static_cast<std::ptrdiff_t>(p.n0));
      }
      break;
    }
    case Format::kSymCsr: {
      const auto& m = std::get<SymCsr>(matrix_);
      copy_csr_like(m.row_ptr().data(), m.col_ind().data(),
                    sizeof(index_t), m.values().data(), nullptr, 0);
      if (sym_reduce_ == SymReduce::kWindow) {
        sym_win_ptr_.assign(nthreads_, nullptr);
      }
      for (std::size_t t = 0; t < nthreads_; ++t) {
        const ThreadPlan& p = plan[t];
        NumaSlice& ns = numa_slices_[t];
        value_t* ld = arena_->data<value_t>(p.diag);
        std::memcpy(ld, m.diag().data() + p.b,
                    static_cast<usize_t>(p.e - p.b) * sizeof(value_t));
        ns.diag = rebase_ptr<const value_t>(ld, p.b);
        if (sym_reduce_ == SymReduce::kWindow) {
          sym_win_ptr_[t] = arena_->data<value_t>(p.win);
        }
      }
      break;
    }
    case Format::kSymCsrVi: {
      const auto& m = std::get<SymCsrVi>(matrix_);
      const std::size_t w = static_cast<std::size_t>(m.width());
      copy_csr_like(m.row_ptr().data(), m.col_ind().data(),
                    sizeof(index_t), nullptr, m.val_ind_raw().data(), w);
      if (sym_reduce_ == SymReduce::kWindow) {
        sym_win_ptr_.assign(nthreads_, nullptr);
      }
      for (std::size_t t = 0; t < nthreads_; ++t) {
        const ThreadPlan& p = plan[t];
        NumaSlice& ns = numa_slices_[t];
        std::uint8_t* ld = arena_->data<std::uint8_t>(p.diag);
        std::memcpy(ld,
                    m.diag_ind_raw().data() +
                        static_cast<usize_t>(p.b) * w,
                    static_cast<usize_t>(p.e - p.b) * w);
        // Rebase in the index type so kernels keep absolute rows.
        switch (m.width()) {
          case ViWidth::kU8:
            ns.diag = rebase_ptr<const std::uint8_t>(ld, p.b);
            break;
          case ViWidth::kU16:
            ns.diag = rebase_ptr<const std::uint16_t>(
                reinterpret_cast<std::uint16_t*>(ld), p.b);
            break;
          case ViWidth::kU32:
            ns.diag = rebase_ptr<const std::uint32_t>(
                reinterpret_cast<std::uint32_t*>(ld), p.b);
            break;
        }
        if (sym_reduce_ == SymReduce::kWindow) {
          sym_win_ptr_[t] = arena_->data<value_t>(p.win);
        }
      }
      break;
    }
    default:
      break;
  }
  }

  // ---- x mirrors: per-thread pointer selection plus the refresh jobs
  // run_parallel dispatches before the kernels. ----
  if (policy == NumaPolicy::kReplicate) {
    numa_x_ptr_.resize(nthreads_);
    numa_x_copy_.resize(nthreads_);
    for (std::size_t i = 0; i < nodes_used.size(); ++i) {
      value_t* const dst = arena_->data<value_t>(xh[i]);
      std::vector<std::size_t> members;
      for (std::size_t t = 0; t < nthreads_; ++t) {
        if (thread_node_[t] == nodes_used[i]) {
          members.push_back(t);
        }
      }
      for (std::size_t r = 0; r < members.size(); ++r) {
        const std::size_t t = members[r];
        const index_t lo = static_cast<index_t>(
            static_cast<usize_t>(ncols_) * r / members.size());
        const index_t hi = static_cast<index_t>(
            static_cast<usize_t>(ncols_) * (r + 1) / members.size());
        numa_x_ptr_[t] = dst;
        numa_x_copy_[t] = [dst, lo, hi](const value_t* x) {
          std::copy(x + lo, x + hi, dst + lo);
        };
      }
    }
  } else if (policy == NumaPolicy::kInterleave) {
    value_t* const dst = arena_->data<value_t>(xh[0]);
    numa_x_ptr_.assign(nthreads_, dst);
    numa_x_copy_.resize(nthreads_);
    for (std::size_t t = 0; t < nthreads_; ++t) {
      const index_t lo = static_cast<index_t>(
          static_cast<usize_t>(ncols_) * t / nthreads_);
      const index_t hi = static_cast<index_t>(
          static_cast<usize_t>(ncols_) * (t + 1) / nthreads_);
      numa_x_copy_[t] = [dst, lo, hi](const value_t* x) {
        std::copy(x + lo, x + hi, dst + lo);
      };
    }
  }

  numa_policy_ = policy;
  auto& reg = obs::Registry::global();
  reg.gauge("spc.numa.nodes").set(static_cast<double>(topo.num_nodes()));
  reg.counter("spc.numa.instances").add();
  reg.counter("spc.numa.repacked_bytes").add(arena_->total_bytes());
  usize_t mirror = 0;
  for (std::size_t i = 0; i < x_blocks; ++i) {
    mirror += arena_->block_bytes(nthreads_ + i);
  }
  if (mirror) {
    reg.counter("spc.numa.x_mirror_bytes").add(mirror);
  }
}

SpmvInstance::NumaResidency SpmvInstance::matrix_residency() const {
  NumaResidency r;
  if (!arena_) {
    r.reason = "numa placement off";
    return r;
  }
  std::string reason;
  for (std::size_t t = 0; t < nthreads_; ++t) {
    std::vector<int> nodes;
    if (!query_page_nodes(arena_->block_base(t), arena_->block_bytes(t),
                          64, &nodes, &reason)) {
      continue;
    }
    for (const int nd : nodes) {
      ++r.pages_sampled;
      if (nd == thread_node_[t]) {
        ++r.pages_local;
      }
    }
  }
  r.available = r.pages_sampled > 0;
  if (!r.available) {
    r.reason = reason.empty() ? "no pages sampled" : reason;
  } else {
    auto& reg = obs::Registry::global();
    reg.counter("spc.numa.residency_pages_sampled").add(r.pages_sampled);
    reg.counter("spc.numa.residency_pages_local").add(r.pages_local);
  }
  return r;
}

namespace {

// DU streams with short units (avg elements/unit below this) stay on the
// scalar decoder even at vector tiers. The vector decode pays per 4-block
// for serial delta resolution plus a gather; the scalar decoder's 4-deep
// unrolled index chain beats it until units run well past vector width
// (measured crossover ~12 on the small corpus: 9-elem stencil units lose
// up to 25%, 18+-elem FEM-block units win 10–25%).
constexpr double kDuVectorMinAvgUnitElems = 12.0;

// The vector decoder's engagement gate. RLE units vectorize without any
// serial delta resolution (contiguous loads / strided gathers), so a
// stream whose elements are mostly RLE engages regardless of unit
// length; otherwise the explicit-delta remainder must clear the
// avg-elems crossover on its own — a pooled average would let a few
// long RLE runs drag short delta units onto the losing vector path.
bool du_vector_profitable(const CsrDu::UnitHistogram& h) {
  if (h.nnz == 0) {
    return false;
  }
  if (static_cast<double>(h.rle_elems) >=
      0.5 * static_cast<double>(h.nnz)) {
    return true;
  }
  const usize_t rest_units = h.units - h.rle_units;
  const usize_t rest_elems = h.nnz - h.rle_elems;
  return rest_units != 0 && static_cast<double>(rest_elems) >=
                                kDuVectorMinAvgUnitElems *
                                    static_cast<double>(rest_units);
}

// Casts the type-erased per-worker val_ind pointer for the tiled VI
// closures (mirrors the NumaSlice::val_ind casts of the untiled path).
template <typename IndT>
const IndT* as_ind(const void* p) {
  return static_cast<const IndT*>(p);
}

}  // namespace

void SpmvInstance::prepare() {
  obs::TraceSpan prepare_span("bind:" + format_name(format_));
  tier_ = active_isa_tier();
  // Vector tiers gather through *signed* 32-bit index lanes; a matrix
  // whose columns (or value-index table) could exceed 2^31 must stay on
  // the scalar kernels.
  if (ncols_ >= (index_t{1} << 31)) {
    if (tier_ != IsaTier::kScalar) {
      note_decision("isa", isa_tier_name(tier_), "scalar",
                    "ncols >= 2^31 overflows the signed 32-bit gather "
                    "lanes of the vector kernels");
    }
    tier_ = IsaTier::kScalar;
  }
  const KernelTable& kt = kernel_table(tier_);
  tier_ = kt.tier;  // reflect host/build clamping
  binding_.clear();
  has_du_hist_ = false;

  if (tiled_) {
    bind_tiled(kt);
    return;
  }

  const index_t nrows = nrows_;
  // Binds serial + per-thread closures over one row-range kernel `fn`
  // and its leading array arguments. Closures capture heap data pointers
  // and PODs only (see kernel_binding.hpp for the move-safety rule).
  const auto bind_rows = [&](auto fn, auto... arrays) {
    binding_.serial = [=](const value_t* x, value_t* y) {
      fn(arrays..., x, y, 0, nrows);
    };
    for (std::size_t th = 0; th < partition_.nthreads(); ++th) {
      const index_t b = partition_.row_begin(th);
      const index_t e = partition_.row_end(th);
      binding_.per_thread.push_back([=](const value_t* x, value_t* y) {
        fn(arrays..., x, y, b, e);
      });
    }
  };
  // When setup_numa() repacked the slices, swap each per-thread closure
  // to the same kernel over the first-touched copies. `arrays_of` maps a
  // NumaSlice to the kernel's leading-array tuple; ranges and values are
  // unchanged, so results stay bit-identical — only the pages move.
  const auto rebind_numa = [&](auto fn, auto arrays_of) {
    for (std::size_t th = 0; th < numa_slices_.size(); ++th) {
      const index_t b = partition_.row_begin(th);
      const index_t e = partition_.row_end(th);
      const auto arrs = arrays_of(numa_slices_[th]);
      binding_.per_thread[th] = [=](const value_t* x, value_t* y) {
        std::apply([&](const auto*... a) { fn(a..., x, y, b, e); }, arrs);
      };
    }
  };
  // Chunk closures for the dynamic schedules: one per ChunkPlan entry,
  // bound over the *owner's* arrays (the NUMA-repacked copies when they
  // exist, else the shared ones) so a stolen chunk reads exactly the
  // bytes its owner would. Chunk row ranges are disjoint, so whichever
  // worker executes a chunk writes only that chunk's rows of y.
  const bool want_chunks =
      sched_ != Schedule::kStatic && chunk_plan_.nchunks() > 0;
  const auto bind_chunks = [&](auto fn, auto shared, auto arrays_of) {
    if (!want_chunks) {
      return;
    }
    binding_.per_chunk.reserve(chunk_plan_.nchunks());
    for (std::size_t c = 0; c < chunk_plan_.nchunks(); ++c) {
      const std::size_t t = chunk_plan_.owner[c];
      const index_t b = chunk_plan_.row_begin(c);
      const index_t e = chunk_plan_.row_end(c);
      auto arrs = shared;
      if (t < numa_slices_.size()) {
        const auto local = arrays_of(numa_slices_[t]);
        if (std::get<0>(local) != nullptr) {
          arrs = local;
        }
      }
      binding_.per_chunk.push_back([=](const value_t* x, value_t* y) {
        std::apply([&](const auto*... a) { fn(a..., x, y, b, e); }, arrs);
      });
    }
  };

  switch (format_) {
    case Format::kCsr: {
      const auto& m = std::get<Csr>(matrix_);
      const auto arrays_of = [](const NumaSlice& s) {
        return std::make_tuple(
            s.row_ptr, static_cast<const std::uint32_t*>(s.col_ind),
            s.values);
      };
      bind_rows(kt.csr, m.row_ptr().data(), m.col_ind().data(),
                m.values().data());
      rebind_numa(kt.csr, arrays_of);
      bind_chunks(kt.csr,
                  std::make_tuple(m.row_ptr().data(), m.col_ind().data(),
                                  m.values().data()),
                  arrays_of);
      break;
    }
    case Format::kCsr16: {
      const auto& m = std::get<Csr16>(matrix_);
      const auto arrays_of = [](const NumaSlice& s) {
        return std::make_tuple(
            s.row_ptr, static_cast<const std::uint16_t*>(s.col_ind),
            s.values);
      };
      bind_rows(kt.csr16, m.row_ptr().data(), m.col_ind().data(),
                m.values().data());
      rebind_numa(kt.csr16, arrays_of);
      bind_chunks(kt.csr16,
                  std::make_tuple(m.row_ptr().data(), m.col_ind().data(),
                                  m.values().data()),
                  arrays_of);
      break;
    }
    case Format::kCsrVi: {
      const auto& m = std::get<CsrVi>(matrix_);
      const index_t* rp = m.row_ptr().data();
      const std::uint32_t* ci = m.col_ind().data();
      const value_t* uq = m.vals_unique().data();
      // The unique-value table is tiny and read-shared; only row_ptr,
      // col_ind, and val_ind repack under NUMA placement.
      const auto bind_vi = [&](auto fn, const auto* vi) {
        const auto arrays_of = [uq, vi](const NumaSlice& s) {
          return std::make_tuple(
              s.row_ptr, static_cast<const std::uint32_t*>(s.col_ind),
              static_cast<decltype(vi)>(s.val_ind), uq);
        };
        bind_rows(fn, rp, ci, vi, uq);
        rebind_numa(fn, arrays_of);
        bind_chunks(fn, std::make_tuple(rp, ci, vi, uq), arrays_of);
      };
      switch (m.width()) {
        case ViWidth::kU8:
          bind_vi(kt.csr_vi_u8, m.val_ind_raw().data());
          break;
        case ViWidth::kU16:
          bind_vi(kt.csr_vi_u16, m.val_ind_as<std::uint16_t>());
          break;
        case ViWidth::kU32:
          bind_vi(kt.csr_vi_u32, m.val_ind_as<std::uint32_t>());
          break;
      }
      break;
    }
    case Format::kCsrDu:
    case Format::kCsrDuRle: {
      const auto& m = std::get<CsrDu>(matrix_);
      du_hist_ = m.unit_histogram();
      has_du_hist_ = true;
      DuKernelFn fn = kt.du;
      if (!du_vector_profitable(du_hist_)) {
        fn = kernel_table(IsaTier::kScalar).du;
      }
      const CsrDu::Slice full = m.full();
      binding_.serial = [=](const value_t* x, value_t* y) {
        fn(full, x, y);
      };
      for (const CsrDu::Slice& s : du_slices_) {
        binding_.per_thread.push_back(
            [=](const value_t* x, value_t* y) { fn(s, x, y); });
      }
      if (want_chunks) {
        binding_.per_chunk.reserve(du_chunk_slices_.size());
        for (const CsrDu::Slice& s : du_chunk_slices_) {
          binding_.per_chunk.push_back(
              [=](const value_t* x, value_t* y) { fn(s, x, y); });
        }
      }
      break;
    }
    case Format::kCsrDuVi: {
      const auto& m = std::get<CsrDuVi>(matrix_);
      du_hist_ = m.du().unit_histogram();
      has_du_hist_ = true;
      const bool vec = du_vector_profitable(du_hist_);
      const KernelTable& dt = vec ? kt : kernel_table(IsaTier::kScalar);
      const value_t* uq = m.vals_unique().data();
      const auto bind_slices = [&](auto fn, const auto* vi) {
        const CsrDu::Slice full = m.du().full();
        binding_.serial = [=](const value_t* x, value_t* y) {
          fn(full, vi, uq, x, y);
        };
        for (std::size_t th = 0; th < du_slices_.size(); ++th) {
          const CsrDu::Slice& s = du_slices_[th];
          // Repacked slices carry val_offset == 0 and a thread-local
          // val_ind span (see setup_numa); bind that instead of the
          // shared stream.
          auto vi_t = vi;
          if (!numa_slices_.empty() && numa_slices_[th].val_ind) {
            vi_t = static_cast<decltype(vi)>(numa_slices_[th].val_ind);
          }
          binding_.per_thread.push_back([=](const value_t* x, value_t* y) {
            fn(s, vi_t, uq, x, y);
          });
        }
        if (want_chunks) {
          binding_.per_chunk.reserve(du_chunk_slices_.size());
          for (std::size_t c = 0; c < du_chunk_slices_.size(); ++c) {
            // Repacked owners carry chunk val_offsets relative to their
            // local val_ind span (see setup_numa); pristine owners keep
            // the shared stream with absolute offsets.
            const std::size_t t = chunk_plan_.owner[c];
            auto vi_c = vi;
            if (!numa_slices_.empty() && numa_slices_[t].val_ind) {
              vi_c = static_cast<decltype(vi)>(numa_slices_[t].val_ind);
            }
            const CsrDu::Slice& s = du_chunk_slices_[c];
            binding_.per_chunk.push_back(
                [=](const value_t* x, value_t* y) {
                  fn(s, vi_c, uq, x, y);
                });
          }
        }
      };
      switch (m.width()) {
        case ViWidth::kU8:
          bind_slices(dt.du_vi_u8, m.val_ind_raw().data());
          break;
        case ViWidth::kU16:
          bind_slices(dt.du_vi_u16, m.val_ind_as<std::uint16_t>());
          break;
        case ViWidth::kU32:
          bind_slices(dt.du_vi_u32, m.val_ind_as<std::uint32_t>());
          break;
      }
      break;
    }
    case Format::kCoo: {
      // Not a dispatch-table format, but binding still pays: the
      // per-thread entry ranges (binary searches over the row array)
      // move from every run to here.
      const auto& m = std::get<Coo>(matrix_);
      const index_t* rr = m.rows().data();
      const index_t* cc = m.cols().data();
      const value_t* vv = m.values().data();
      const usize_t nnz = m.nnz();
      binding_.serial = [=](const value_t* x, value_t* y) {
        std::fill(y, y + nrows, 0.0);
        for (usize_t k = 0; k < nnz; ++k) {
          y[rr[k]] += vv[k] * x[cc[k]];
        }
      };
      for (std::size_t th = 0; th < partition_.nthreads(); ++th) {
        const index_t r0 = partition_.row_begin(th);
        const index_t r1 = partition_.row_end(th);
        const auto& rows = m.rows();
        const usize_t lo = static_cast<usize_t>(
            std::lower_bound(rows.begin(), rows.end(), r0) - rows.begin());
        const usize_t hi = static_cast<usize_t>(
            std::lower_bound(rows.begin(), rows.end(), r1) - rows.begin());
        binding_.per_thread.push_back([=](const value_t* x, value_t* y) {
          std::fill(y + r0, y + r1, 0.0);
          for (usize_t k = lo; k < hi; ++k) {
            y[rr[k]] += vv[k] * x[cc[k]];
          }
        });
      }
      break;
    }
    case Format::kDcsr: {
      const auto& m = std::get<Dcsr>(matrix_);
      const Dcsr::Slice full = m.full();
      binding_.serial = [=](const value_t* x, value_t* y) {
        spmv(full, x, y);
      };
      for (const Dcsr::Slice& s : dcsr_slices_) {
        binding_.per_thread.push_back(
            [=](const value_t* x, value_t* y) { spmv(s, x, y); });
      }
      break;
    }
    case Format::kCsc:
      // Two-phase execution keeps its own path; precompute the
      // reduce-phase row split here instead of every run.
      if (nthreads_ > 1) {
        csc_reduce_rows_ = partition_rows_even(nrows_, nthreads_);
      }
      break;
    case Format::kBcsr: {
      // Bound over raw arrays (not via bind_rows: the partition and the
      // serial range are in *block* rows) so the NUMA repack can swap in
      // per-thread copies.
      const auto& m = std::get<Bcsr>(matrix_);
      const index_t br = m.block_rows();
      const index_t bc = m.block_cols();
      const index_t nbr = m.nblock_rows();
      const index_t nr = nrows_;
      const index_t nc = ncols_;
      const auto raw = [=](const index_t* brp, const index_t* bcol,
                           const value_t* vals, const value_t* x,
                           value_t* y, index_t b, index_t e) {
        spmv_bcsr_raw(br, bc, nr, nc, brp, bcol, vals, x, y, b, e);
      };
      const index_t* brp = m.block_row_ptr().data();
      const index_t* bcol = m.block_col().data();
      const value_t* vals = m.values().data();
      binding_.serial = [=](const value_t* x, value_t* y) {
        raw(brp, bcol, vals, x, y, 0, nbr);
      };
      for (std::size_t th = 0; th < partition_.nthreads(); ++th) {
        const index_t b = partition_.row_begin(th);
        const index_t e = partition_.row_end(th);
        binding_.per_thread.push_back([=](const value_t* x, value_t* y) {
          raw(brp, bcol, vals, x, y, b, e);
        });
      }
      const auto arrays_of = [](const NumaSlice& s) {
        return std::make_tuple(s.row_ptr,
                               static_cast<const index_t*>(s.col_ind),
                               s.values);
      };
      rebind_numa(raw, arrays_of);
      // Chunk bounds are in *block* rows here, matching the partition.
      bind_chunks(raw, std::make_tuple(brp, bcol, vals), arrays_of);
      break;
    }
    case Format::kEll: {
      const auto& m = std::get<Ell>(matrix_);
      const index_t w = m.width();
      const auto raw = [=](const index_t* ci, const value_t* vv,
                           const value_t* x, value_t* y, index_t b,
                           index_t e) {
        spmv_ell_raw(w, ci, vv, x, y, b, e);
      };
      const auto arrays_of = [](const NumaSlice& s) {
        return std::make_tuple(static_cast<const index_t*>(s.col_ind),
                               s.values);
      };
      bind_rows(raw, m.col_ind().data(), m.values().data());
      rebind_numa(raw, arrays_of);
      bind_chunks(raw,
                  std::make_tuple(m.col_ind().data(), m.values().data()),
                  arrays_of);
      break;
    }
    case Format::kSymCsr:
    case Format::kSymCsrVi: {
      // The sym closures carry the window parameterization (see
      // kernels.hpp): per-thread closures write their own rows directly
      // into the shared y and scatter conflicts into the thread's window
      // (private mode: everything into the thread's full-length scratch).
      // run_parallel wraps them in the zero/compute/reduce phases — the
      // generic dispatch path never runs them bare.
      const auto bind_sym = [&](auto fn, auto shared, auto arrays_of) {
        binding_.serial = [=](const value_t* x, value_t* y) {
          std::apply(
              [&](const auto*... a) {
                fn(a..., x, y, nullptr, index_t{0}, index_t{0}, index_t{0},
                   nrows);
              },
              shared);
        };
        if (nthreads_ <= 1) {
          return;
        }
        const bool window = sym_reduce_ == SymReduce::kWindow;
        const auto owner_arrays = [&](std::size_t t) {
          auto arrs = shared;
          if (t < numa_slices_.size()) {
            const auto local = arrays_of(numa_slices_[t]);
            if (std::get<0>(local) != nullptr) {
              arrs = local;
            }
          }
          return arrs;
        };
        for (std::size_t th = 0; th < partition_.nthreads(); ++th) {
          const index_t b = partition_.row_begin(th);
          const index_t e = partition_.row_end(th);
          const auto arrs = owner_arrays(th);
          if (window) {
            value_t* const win = sym_win_ptr_[th];
            const index_t wb = sym_plan_.win_begin[th];
            binding_.per_thread.push_back(
                [=](const value_t* x, value_t* y) {
                  std::apply(
                      [&](const auto*... a) {
                        fn(a..., x, y, win, wb, b, b, e);
                      },
                      arrs);
                });
          } else {
            value_t* const sp = csc_scratch_[th].data();
            binding_.per_thread.push_back(
                [=](const value_t* x, value_t*) {
                  std::apply(
                      [&](const auto*... a) {
                        fn(a..., x, sp, nullptr, index_t{0}, index_t{0}, b,
                           e);
                      },
                      arrs);
                });
          }
        }
        if (want_chunks) {
          binding_.per_chunk.reserve(chunk_plan_.nchunks());
          for (std::size_t c = 0; c < chunk_plan_.nchunks(); ++c) {
            const std::size_t t = chunk_plan_.owner[c];
            const index_t b = chunk_plan_.row_begin(c);
            const index_t e = chunk_plan_.row_end(c);
            const auto arrs = owner_arrays(t);
            if (window) {
              value_t* const win = sym_win_ptr_[t];
              const index_t wb = sym_plan_.win_begin[t];
              const index_t db = partition_.row_begin(t);
              binding_.per_chunk.push_back(
                  [=](const value_t* x, value_t* y) {
                    std::apply(
                        [&](const auto*... a) {
                          fn(a..., x, y, win, wb, db, b, e);
                        },
                        arrs);
                  });
            } else {
              value_t* const sp = csc_scratch_[t].data();
              binding_.per_chunk.push_back(
                  [=](const value_t* x, value_t*) {
                    std::apply(
                        [&](const auto*... a) {
                          fn(a..., x, sp, nullptr, index_t{0}, index_t{0},
                             b, e);
                        },
                        arrs);
                  });
            }
          }
        }
      };
      if (format_ == Format::kSymCsr) {
        const auto& m = std::get<SymCsr>(matrix_);
        const auto arrays_of = [](const NumaSlice& s) {
          return std::make_tuple(s.row_ptr,
                                 static_cast<const index_t*>(s.col_ind),
                                 s.values,
                                 static_cast<const value_t*>(s.diag));
        };
        bind_sym(kt.sym_csr,
                 std::make_tuple(m.row_ptr().data(), m.col_ind().data(),
                                 m.values().data(), m.diag().data()),
                 arrays_of);
      } else {
        const auto& m = std::get<SymCsrVi>(matrix_);
        const value_t* const uq = m.vals_unique().data();
        const auto bind_vi = [&](auto fn, const auto* vi, const auto* di) {
          const auto arrays_of = [uq, vi, di](const NumaSlice& s) {
            return std::make_tuple(
                s.row_ptr, static_cast<const index_t*>(s.col_ind),
                static_cast<decltype(vi)>(s.val_ind),
                static_cast<decltype(di)>(s.diag), uq);
          };
          bind_sym(fn,
                   std::make_tuple(m.row_ptr().data(), m.col_ind().data(),
                                   vi, di, uq),
                   arrays_of);
        };
        switch (m.width()) {
          case ViWidth::kU8:
            bind_vi(kt.sym_csr_vi_u8, m.val_ind_raw().data(),
                    m.diag_ind_raw().data());
            break;
          case ViWidth::kU16:
            bind_vi(kt.sym_csr_vi_u16, m.val_ind_as<std::uint16_t>(),
                    m.diag_ind_as<std::uint16_t>());
            break;
          case ViWidth::kU32:
            bind_vi(kt.sym_csr_vi_u32, m.val_ind_as<std::uint32_t>(),
                    m.diag_ind_as<std::uint32_t>());
            break;
        }
      }
      break;
    }
    case Format::kDia:
    case Format::kJds:
      // Format-object kernels; executed via the run_parallel switch.
      break;
  }
}

void SpmvInstance::bind_tiled(const KernelTable& kt) {
  // All closures capture raw pointers into member containers (stable
  // across the instance move, per the kernel_binding.hpp rule) plus a
  // per-worker TileArrays copy — no `this`.
  const TileBlock* const blocks = tile_store_.blocks.data();
  const StripeTile* const tiles = tile_store_.tiles.data();
  const CsrDu::Slice* const slices = tile_du_slices_.data();
  const std::uint32_t* const owner = tile_block_owner_.data();
  const std::size_t nblocks = tile_store_.blocks.size();
  const bool want_chunks =
      sched_ != Schedule::kStatic && chunk_plan_.nchunks() > 0;

  const auto worker_blocks =
      [&](std::size_t w) -> std::pair<std::size_t, std::size_t> {
    if (want_chunks) {
      return {chunk_plan_.owner_begin[w], chunk_plan_.owner_begin[w + 1]};
    }
    return {w, w + 1};
  };
  // Binds serial/per-thread/per-chunk closures from a factory producing
  // "run blocks [b0, b1) over these worker arrays". The serial closure
  // uses worker 0's arrays: it only ever runs when nthreads_ == 1 (where
  // they are the sole arrays — NUMA placement needs a pool).
  const auto bind_all = [&](auto make_job) {
    binding_.serial = make_job(tile_arrays_[0], 0, nblocks);
    if (nthreads_ > 1) {
      for (std::size_t w = 0; w < nthreads_; ++w) {
        const auto [b0, b1] = worker_blocks(w);
        binding_.per_thread.push_back(make_job(tile_arrays_[w], b0, b1));
      }
      if (want_chunks) {
        // One closure per chunk (== block), over the *owner's* arrays,
        // so a stolen chunk reads exactly the bytes its owner would.
        binding_.per_chunk.reserve(nblocks);
        for (std::size_t c = 0; c < nblocks; ++c) {
          binding_.per_chunk.push_back(
              make_job(tile_arrays_[owner[c]], c, c + 1));
        }
      }
    }
  };

  if (format_ == Format::kCsrDu || format_ == Format::kCsrDuRle ||
      format_ == Format::kCsrDuVi) {
    // The histogram the gate (and du_histogram()) sees is the aggregate
    // over the stripe-local tile streams — the deltas actually decoded.
    du_hist_ = tile_store_.du_hist;
    has_du_hist_ = tile_store_.has_du_hist;
  }

  switch (format_) {
    case Format::kCsr: {
      const CsrSegKernelFn fn = kt.csr_seg;
      bind_all([=](const TileArrays& ta, std::size_t b0, std::size_t b1) {
        return [=](const value_t* x, value_t* y) {
          for (std::size_t b = b0; b < b1; ++b) {
            const TileBlock& blk = blocks[b];
            std::fill(y + blk.row_begin, y + blk.row_end, 0.0);
            fn(ta.seg_ptr, ta.seg_row, ta.col, ta.val, x, y,
               blk.seg_begin, blk.seg_end);
          }
        };
      });
      break;
    }
    case Format::kCsrVi: {
      const auto& m = std::get<CsrVi>(matrix_);
      const value_t* const uq = m.vals_unique().data();
      const auto bind_vi = [&](auto fn, auto vi_cast) {
        bind_all(
            [=](const TileArrays& ta, std::size_t b0, std::size_t b1) {
              return [=](const value_t* x, value_t* y) {
                const auto* const vi = vi_cast(ta.vi);
                for (std::size_t b = b0; b < b1; ++b) {
                  const TileBlock& blk = blocks[b];
                  std::fill(y + blk.row_begin, y + blk.row_end, 0.0);
                  fn(ta.seg_ptr, ta.seg_row, ta.col, vi, uq, x, y,
                     blk.seg_begin, blk.seg_end);
                }
              };
            });
      };
      switch (m.width()) {
        case ViWidth::kU8:
          bind_vi(kt.csr_vi_seg_u8, &as_ind<std::uint8_t>);
          break;
        case ViWidth::kU16:
          bind_vi(kt.csr_vi_seg_u16, &as_ind<std::uint16_t>);
          break;
        case ViWidth::kU32:
          bind_vi(kt.csr_vi_seg_u32, &as_ind<std::uint32_t>);
          break;
      }
      break;
    }
    case Format::kCsrDu:
    case Format::kCsrDuRle: {
      DuKernelFn fn = kt.du_acc;
      if (!du_vector_profitable(du_hist_)) {
        fn = kernel_table(IsaTier::kScalar).du_acc;
      }
      bind_all([=](const TileArrays&, std::size_t b0, std::size_t b1) {
        return [=](const value_t* x, value_t* y) {
          for (std::size_t b = b0; b < b1; ++b) {
            const TileBlock& blk = blocks[b];
            std::fill(y + blk.row_begin, y + blk.row_end, 0.0);
            value_t* const yb = y + blk.row_begin;
            for (usize_t ti = blk.tile_begin; ti < blk.tile_end; ++ti) {
              fn(slices[ti], x + tiles[ti].x_base, yb);
            }
          }
        };
      });
      break;
    }
    case Format::kCsrDuVi: {
      const auto& m = std::get<CsrDuVi>(matrix_);
      const value_t* const uq = m.vals_unique().data();
      const bool vec = du_vector_profitable(du_hist_);
      const KernelTable& dt = vec ? kt : kernel_table(IsaTier::kScalar);
      const auto bind_vi = [&](auto fn, auto vi_cast) {
        bind_all(
            [=](const TileArrays& ta, std::size_t b0, std::size_t b1) {
              return [=](const value_t* x, value_t* y) {
                const auto* const vi = vi_cast(ta.vi);
                for (std::size_t b = b0; b < b1; ++b) {
                  const TileBlock& blk = blocks[b];
                  std::fill(y + blk.row_begin, y + blk.row_end, 0.0);
                  value_t* const yb = y + blk.row_begin;
                  for (usize_t ti = blk.tile_begin; ti < blk.tile_end;
                       ++ti) {
                    fn(slices[ti], vi, uq, x + tiles[ti].x_base, yb);
                  }
                }
              };
            });
      };
      switch (m.width()) {
        case ViWidth::kU8:
          bind_vi(dt.du_vi_acc_u8, &as_ind<std::uint8_t>);
          break;
        case ViWidth::kU16:
          bind_vi(dt.du_vi_acc_u16, &as_ind<std::uint16_t>);
          break;
        case ViWidth::kU32:
          bind_vi(dt.du_vi_acc_u32, &as_ind<std::uint32_t>);
          break;
      }
      break;
    }
    default:
      SPC_CHECK_MSG(false, "untileable format reached bind_tiled");
      break;
  }
}

double SpmvInstance::sym_window_frac() const {
  if (!sym_active_) {
    return 0.0;
  }
  if (sym_reduce_ == SymReduce::kPrivate) {
    return 1.0;
  }
  const double denom =
      static_cast<double>(nthreads_) * static_cast<double>(nrows_);
  return denom > 0.0 ? static_cast<double>(sym_plan_.total_rows) / denom
                     : 0.0;
}

usize_t SpmvInstance::matrix_bytes() const {
  if (tiled_) {
    // The tiled store replaces the matrix's execution arrays; the VI
    // formats keep their unique-value table.
    usize_t b = tile_store_.bytes();
    if (const auto* vi = std::get_if<CsrVi>(&matrix_)) {
      b += vi->vals_unique().size() * sizeof(value_t);
    } else if (const auto* duvi = std::get_if<CsrDuVi>(&matrix_)) {
      b += duvi->vals_unique().size() * sizeof(value_t);
    }
    return b;
  }
  return std::visit([](const auto& m) { return m.bytes(); }, matrix_);
}

void SpmvInstance::run_locked(const Vector& x, Vector& y) {
  // Shared-pool instances serialize their runs: run_args_ and the
  // scheduler state are per-instance, and several engine dispatchers may
  // drive this matrix at once. Owned-pool instances have no mutex and
  // keep the historical zero-overhead path.
  if (run_mu_ != nullptr) {
    std::lock_guard<std::mutex> lk(*run_mu_);
    if (nthreads_ == 1) {
      run_serial(x.data(), y.data());
    } else {
      run_parallel(x, y);
    }
    return;
  }
  if (nthreads_ == 1) {
    run_serial(x.data(), y.data());
  } else {
    run_parallel(x, y);
  }
}

void SpmvInstance::run(const Vector& x, Vector& y) {
  SPC_CHECK_MSG(x.size() == ncols_, "x has wrong dimension");
  SPC_CHECK_MSG(y.size() == nrows_, "y has wrong dimension");
  // The always-on cost is one relaxed shard add (~10 ns). The per-run
  // latency sample needs two clock reads — noticeable on sub-µs tiny
  // kernels — so it only runs while an observability sink is active.
  const bool sample =
      obs::Tracer::global().enabled() || obs::MetricsSink::global().enabled();
  const std::uint64_t t0 = sample ? now_ns() : 0;
  run_locked(x, y);
  runs_counter_->add();
  if (sample) {
    const std::uint64_t t1 = now_ns();
    run_histo_->record(t1 >= t0 ? t1 - t0 : 0);
  }
}

std::uint64_t SpmvInstance::run_probe(const Vector& x, Vector& y) {
  SPC_CHECK_MSG(x.size() == ncols_, "x has wrong dimension");
  SPC_CHECK_MSG(y.size() == nrows_, "y has wrong dimension");
  const std::uint64_t t0 = now_ns();
  run_locked(x, y);
  const std::uint64_t t1 = now_ns();
  runs_counter_->add();
  return t1 >= t0 ? t1 - t0 : 0;
}

bool SpmvInstance::can_run_on_caller() const {
  // CSC, DIA and JDS bind no serial kernel; a serial pass of a pooled
  // symmetric instance would skip its scatter/reduce phases and
  // reassociate the sums — not bit-identical to the pooled run.
  if (sym_active_ || !binding_.bound()) {
    return false;
  }
  // The tiled serial binding walks every block through worker 0's array
  // pointers; under NUMA placement those cover only worker 0's blocks.
  if (tiled_ && numa_policy_ != NumaPolicy::kOff) {
    return false;
  }
  return true;
}

bool SpmvInstance::run_on_caller(const Vector& x, Vector& y) {
  SPC_CHECK_MSG(x.size() == ncols_, "x has wrong dimension");
  SPC_CHECK_MSG(y.size() == nrows_, "y has wrong dimension");
  if (!can_run_on_caller()) {
    return false;
  }
  // No run_mu_ here: the serial kernel reads only the immutable prepared
  // arrays and writes only the caller's y — safe alongside concurrent
  // pooled runs of the same instance.
  const bool sample =
      obs::Tracer::global().enabled() || obs::MetricsSink::global().enabled();
  const std::uint64_t t0 = sample ? now_ns() : 0;
  binding_.serial(x.data(), y.data());
  runs_counter_->add();
  if (sample) {
    const std::uint64_t t1 = now_ns();
    run_histo_->record(t1 >= t0 ? t1 - t0 : 0);
  }
  return true;
}

void SpmvInstance::run_serial(const value_t* x, value_t* y) {
  if (binding_.bound()) {
    binding_.serial(x, y);
    return;
  }
  std::visit([&](const auto& m) { spmv(m, x, y); }, matrix_);
}

void SpmvInstance::run_parallel(const Vector& x, Vector& y) {
  const value_t* const xp = x.data();
  value_t* const yp = y.data();

  // Symmetric formats: two-phase execution — zero+compute (direct rows
  // into the shared y, conflicts into the per-thread windows or private
  // copies), then the reduction. When the window plan has no conflict
  // rows at all, the reduction phase is skipped entirely.
  if (sym_active_) {
    run_args_.x = xp;
    run_args_.y = yp;
    const bool reduce_needed = sym_reduce_ == SymReduce::kPrivate ||
                               sym_plan_.total_rows > 0;
    if (!numa_x_copy_.empty()) {
      dispatch_raw(&SpmvInstance::xcopy_job);
    }
    dispatch_raw(&SpmvInstance::sym_compute_job);
    if (reduce_needed) {
      const std::uint64_t t0 = now_ns();
      dispatch_raw(&SpmvInstance::sym_reduce_job);
      const std::uint64_t t1 = now_ns();
      const std::uint64_t dt = t1 >= t0 ? t1 - t0 : 0;
      sym_reduce_ns_ += dt;
      sym_reduce_counter_->add(dt);
    }
    return;
  }

  // Dispatch-bound formats: everything was fixed by prepare(); the
  // timed path is the raw-callable pool dispatch — one function-pointer
  // call per worker, no std::function construction. The
  // replicate/interleave x policies add a refresh phase — each worker
  // copies its chunk of x into the node-placed mirror — and worker_x()
  // swaps in the per-thread mirror pointer.
  if (!binding_.per_thread.empty()) {
    run_args_.x = xp;
    run_args_.y = yp;
    if (!numa_x_copy_.empty()) {
      dispatch_raw(&SpmvInstance::xcopy_job);
    }
    switch (sched_) {
      case Schedule::kStatic:
        dispatch_raw(&SpmvInstance::static_job);
        break;
      case Schedule::kChunked:
        dispatch_raw(&SpmvInstance::chunked_job);
        break;
      case Schedule::kSteal:
        // Refill every deque with its owner's chunks; the pool's
        // dispatch handshake publishes these stores to the workers.
        for (ChunkDeque& d : deques_) {
          d.reset();
        }
        dispatch_raw(&SpmvInstance::steal_job);
        break;
    }
    return;
  }

  switch (format_) {
    case Format::kCsc: {
      // Column partitioning with private y copies and a reduction (§II-C).
      const auto& m = std::get<Csc>(matrix_);
      xpool_->run([&](std::size_t th) {
        Vector& scratch = csc_scratch_[th];
        std::fill(scratch.begin(), scratch.end(), 0.0);
        spmv_csc_cols(m, xp, scratch.data(), partition_.row_begin(th),
                      partition_.row_end(th));
      });
      // Reduce: rows split evenly across threads (precomputed).
      xpool_->run([&](std::size_t th) {
        const index_t r0 = csc_reduce_rows_.row_begin(th);
        const index_t r1 = csc_reduce_rows_.row_end(th);
        std::fill(yp + r0, yp + r1, 0.0);
        for (const Vector& scratch : csc_scratch_) {
          const value_t* const sp = scratch.data();
          for (index_t r = r0; r < r1; ++r) {
            yp[r] += sp[r];
          }
        }
      });
      break;
    }
    case Format::kDia: {
      const auto& m = std::get<Dia>(matrix_);
      xpool_->run([&](std::size_t th) {
        spmv_dia_range(m, xp, yp, partition_.row_begin(th),
                       partition_.row_end(th));
      });
      break;
    }
    case Format::kJds: {
      const auto& m = std::get<Jds>(matrix_);
      xpool_->run([&](std::size_t th) {
        spmv_jds_range(m, xp, yp, partition_.row_begin(th),
                       partition_.row_end(th));
      });
      break;
    }
    case Format::kCsr:
    case Format::kCsr16:
    case Format::kCoo:
    case Format::kBcsr:
    case Format::kEll:
    case Format::kCsrDu:
    case Format::kCsrDuRle:
    case Format::kCsrVi:
    case Format::kCsrDuVi:
    case Format::kDcsr:
    case Format::kSymCsr:
    case Format::kSymCsrVi:
      // Always bound by prepare() (sym: handled by the two-phase path
      // above).
      SPC_CHECK_MSG(false, "dispatch-bound format reached the switch");
      break;
  }
}

Vector spmv_simple(const Triplets& t, const Vector& x) {
  const Csr m = Csr::from_triplets(t);
  Vector y(t.nrows(), 0.0);
  spmv(m, x.data(), y.data());
  return y;
}

}  // namespace spc
