#include "spc/spmv/instance.hpp"

#include <algorithm>
#include <atomic>
#include <concepts>
#include <cstdio>
#include <functional>
#include <span>
#include <thread>
#include <type_traits>
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

void SpmvInstance::static_job(void* ctx, std::size_t tid) {
  auto* self = static_cast<SpmvInstance*>(ctx);
  self->binding_.per_thread[tid](self->run_args_.x, self->run_args_.y);
}

void SpmvInstance::steal_job(void* ctx, std::size_t tid) {
  auto* self = static_cast<SpmvInstance*>(ctx);
  const value_t* const x = self->run_args_.x;
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
  // Zero this worker's conflict window (or full private y copy) before
  // its rows run; the kernels accumulate into it.
  Vector& s = self->sym_reduce_ == SymReduce::kWindow
                  ? self->sym_win_[tid]
                  : self->sym_private_y_[tid];
  std::fill(s.begin(), s.end(), 0.0);
  self->binding_.per_thread[tid](self->run_args_.x, self->run_args_.y);
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
      const value_t* const win = self->sym_win_[t].data();
      for (index_t r = lo; r < hi; ++r) {
        y[r] += win[r - wb];
      }
    }
  } else {
    // Private-y fallback: even row split sums the full-length copies.
    const index_t r0 = self->sym_reduce_rows_.row_begin(tid);
    const index_t r1 = self->sym_reduce_rows_.row_end(tid);
    std::fill(y + r0, y + r1, 0.0);
    for (const Vector& s : self->sym_private_y_) {
      const value_t* const sp = s.data();
      for (index_t r = r0; r < r1; ++r) {
        y[r] += sp[r];
      }
    }
  }
}

namespace {

// What each format supports, one row per Format in enum order (which is
// also all_formats()'s presentation order and SpmvInstance::Slices'
// alternative order). The names are tune-cache keys: never rename one.
struct FormatCaps {
  Format format;
  const char* name;
  /// The encoder refuses matrices that are not numerically symmetric,
  /// and the steal schedule resolves to static.
  bool symmetric;
};

constexpr FormatCaps kFormatCaps[] = {
    // format           name          sym
    {Format::kCsr,      "csr",        false},
    {Format::kCsr16,    "csr16",      false},
    {Format::kCsrDu,    "csr-du",     false},
    {Format::kCsrVi,    "csr-vi",     false},
    {Format::kCsrDuVi,  "csr-du-vi",  false},
    {Format::kSymCsr,   "sym-csr",    true},
    {Format::kSymCsrVi, "sym-csr-vi", true},
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

// The value formats' slices: each holds a ValueIndex, and the slices of
// one instance share its table. Asserted for every value format, so the
// byte and residency accounting below cannot lose them to a rename.
template <typename M>
constexpr bool kIndexesValues = requires(const M& m) {
  { m.value_index() } -> std::same_as<const ValueIndex&>;
};
static_assert(kIndexesValues<CsrVi> && kIndexesValues<OffsetUnitsVi> &&
              kIndexesValues<SymCsrVi>);

// The slice vector of format `f`: alternative i of the variant is Format
// value i.
template <typename Variant, std::size_t... I>
Variant variant_at(std::size_t i, std::index_sequence<I...>) {
  Variant v;
  ((i == I ? (void)v.template emplace<I>() : (void)0), ...);
  return v;
}

// ---- Per-format code: one slice_builder and one bind per format. ----
//
// slice_builder() does what a format needs from the whole matrix (a
// check, the shared value census) once, and returns the builder of one
// row range. The builder only reads shared state, so every worker runs
// it for its own slice at once.

template <typename M>
using Tag = const M*;

// The slices' row bounds (slice th holds rows bounds[th]..bounds[th+1])
// and the runner of per-slice work, which calls job(th) on slice th's
// own worker.
struct PerSlice {
  std::span<const index_t> bounds;
  RangeRunner run;
};

auto slice_builder(Tag<Csr>, const Triplets& t, const InstanceOptions&,
                   const PerSlice&) {
  return [&t](index_t b, index_t e) { return Csr::from_rows(t, b, e); };
}

auto slice_builder(Tag<Csr16>, const Triplets& t, const InstanceOptions&,
                   const PerSlice&) {
  if (!csr16_applicable(t)) {
    throw InvalidArgument("csr16 requires ncols <= 65536 (got " +
                          std::to_string(t.ncols()) + ")");
  }
  return [&t](index_t b, index_t e) { return Csr16::from_rows(t, b, e); };
}

auto slice_builder(Tag<OffsetUnits>, const Triplets& t,
                   const InstanceOptions& o, const PerSlice&) {
  return [&t, du = o.du](index_t b, index_t e) {
    return OffsetUnits::from_rows(t, b, e, du);
  };
}

// The value formats count each slice's values on its worker and merge
// the counts in slice order, which gives the whole-matrix census.
auto slice_builder(Tag<CsrVi>, const Triplets& t, const InstanceOptions&,
                   const PerSlice& ps) {
  return [&t, table = row_major_values(t, ps.bounds, ps.run)](index_t b,
                                                              index_t e) {
    return CsrVi::from_rows(t, b, e, table);
  };
}

auto slice_builder(Tag<OffsetUnitsVi>, const Triplets& t,
                   const InstanceOptions& o, const PerSlice& ps) {
  return [&t, du = o.du, table = row_major_values(t, ps.bounds, ps.run)](
             index_t b, index_t e) {
    return OffsetUnitsVi::from_rows(t, b, e, du, table);
  };
}

auto slice_builder(Tag<SymCsr>, const Triplets& t, const InstanceOptions&,
                   const PerSlice&) {
  return [&t](index_t b, index_t e) { return SymCsr::from_rows(t, b, e); };
}

// SymCsrVi's census puts the dense diagonal first, so it stays one pass
// on the calling thread.
auto slice_builder(Tag<SymCsrVi>, const Triplets& t, const InstanceOptions&,
                   const PerSlice&) {
  return [&t, table = SymCsrVi::value_table(t)](index_t b, index_t e) {
    return SymCsrVi::from_rows(t, b, e, table);
  };
}

// What one slice's closures are bound for.
struct SliceBind {
  const KernelTable& kt;  ///< the active tier's kernels
  index_t b = 0;          ///< the slice's rows [b, e)
  index_t e = 0;
  /// Steal-chunk bounds inside [b, e] (empty under static): chunk i
  /// covers chunks[i]..chunks[i+1].
  std::vector<index_t> chunks = {};
  // Symmetric formats' pooled closures: the conflict window and the row
  // where direct scatters start (window mode), or the worker's private
  // full-length y (private mode). All zero for serial instances.
  value_t* win = nullptr;
  index_t win_begin = 0;
  index_t direct_begin = 0;
  value_t* private_y = nullptr;
};

// A slice's closures: the serial pass over its rows, the pooled
// per-thread closure, and one closure per steal chunk. Closures capture
// heap data pointers and PODs only (see kernel_binding.hpp).
struct SliceKernels {
  BoundKernel serial;
  BoundKernel pooled;
  std::vector<BoundKernel> chunks;
};

// Row-range kernels over a slice's arrays, whose row pointer is rebased
// by the slice's first row so the kernel reads and writes absolute rows.
template <typename Fn, typename... A>
SliceKernels row_kernels(const SliceBind& p, Fn fn, const A*... a) {
  SliceKernels k;
  const index_t b = p.b;
  const index_t e = p.e;
  k.serial = [=](const value_t* x, value_t* y) { fn(a..., x, y, b, e); };
  k.pooled = k.serial;
  for (std::size_t c = 0; c + 1 < p.chunks.size(); ++c) {
    const index_t cb = p.chunks[c];
    const index_t ce = p.chunks[c + 1];
    k.chunks.push_back(
        [=](const value_t* x, value_t* y) { fn(a..., x, y, cb, ce); });
  }
  return k;
}

// Offset-unit kernels: the slice decodes from row_state = b - 1, and its
// chunks are row sub-ranges found by one scan of its offset stream.
template <typename Fn, typename... A>
SliceKernels du_kernels(const OffsetUnits& du, const SliceBind& p, Fn fn,
                        const A*... a) {
  const auto absolute = [b = p.b](CsrDu::Slice s) {
    s.row_begin += b;
    s.row_end += b;
    s.row_state += b;
    return s;
  };
  SliceKernels k;
  const CsrDu::Slice full = absolute(du.full());
  k.serial = [=](const value_t* x, value_t* y) { fn(full, a..., x, y); };
  k.pooled = k.serial;
  if (!p.chunks.empty()) {
    std::vector<index_t> local = p.chunks;
    for (index_t& r : local) {
      r -= p.b;
    }
    for (const CsrDu::Slice& s : du.slices(local)) {
      const CsrDu::Slice cs = absolute(s);
      k.chunks.push_back(
          [=](const value_t* x, value_t* y) { fn(cs, a..., x, y); });
    }
  }
  return k;
}

// Symmetric kernels (see kernels.hpp for the window parameterization):
// the serial pass scatters straight into y; the pooled closure writes
// its own rows into y and conflicts into the window, or everything into
// the private y. run_parallel wraps the pooled closures in the
// zero/compute/reduce phases.
template <typename Fn, typename... A>
SliceKernels sym_kernels(const SliceBind& p, Fn fn, const A*... a) {
  SliceKernels k;
  const index_t b = p.b;
  const index_t e = p.e;
  k.serial = [=](const value_t* x, value_t* y) {
    fn(a..., x, y, nullptr, index_t{0}, index_t{0}, b, e);
  };
  value_t* const win = p.win;
  const index_t wb = p.win_begin;
  const index_t db = p.direct_begin;
  value_t* const py = p.private_y;
  k.pooled = [=](const value_t* x, value_t* y) {
    fn(a..., x, py != nullptr ? py : y, win, wb, db, b, e);
  };
  return k;
}

SliceKernels bind(const Csr& s, const SliceBind& p) {
  return row_kernels(p, p.kt.csr, rebase_ptr(s.row_ptr().data(), p.b),
                     s.col_ind().data(), s.values().data());
}

SliceKernels bind(const Csr16& s, const SliceBind& p) {
  return row_kernels(p, p.kt.csr16, rebase_ptr(s.row_ptr().data(), p.b),
                     s.col_ind().data(), s.values().data());
}

// The DU formats bind one scalar kernel at every tier: offset units sum
// each row in element order, so they match scalar CSR bit for bit.
SliceKernels bind(const OffsetUnits& s, const SliceBind& p) {
  return du_kernels(s, p, &spmv_offset_units);
}

// The value formats pick each kernel by the index type visit() hands
// them.
SliceKernels bind(const CsrVi& s, const SliceBind& p) {
  const ValueIndex& vi = s.value_index();
  return vi.visit([&]<typename T>(const T* ind) {
    return row_kernels(p, p.kt.csr_vi.get<T>(),
                       rebase_ptr(s.row_ptr().data(), p.b),
                       s.col_ind().data(), ind, vi.table().data());
  });
}

SliceKernels bind(const OffsetUnitsVi& s, const SliceBind& p) {
  const ValueIndex& vi = s.value_index();
  return vi.visit([&]<typename T>(const T* ind) {
    return du_kernels(s.du(), p, &spmv_offset_units_vi<T>, ind,
                      vi.table().data());
  });
}

SliceKernels bind(const SymCsr& s, const SliceBind& p) {
  return sym_kernels(p, p.kt.sym_csr, rebase_ptr(s.row_ptr().data(), p.b),
                     s.col_ind().data(), s.values().data(),
                     rebase_ptr(s.diag().data(), p.b));
}

SliceKernels bind(const SymCsrVi& s, const SliceBind& p) {
  const ValueIndex& vi = s.value_index();
  return vi.visit(
      [&]<typename T>(const T* ind, const T* diag_ind) {
        return sym_kernels(p, p.kt.sym_csr_vi.get<T>(),
                           rebase_ptr(s.row_ptr().data(), p.b),
                           s.col_ind().data(), ind,
                           rebase_ptr(diag_ind, p.b), vi.table().data());
      },
      s.diag_index());
}

// Row pointer of the strict lower triangle: the symmetric formats
// balance their stored elements, not full nnz.
aligned_vector<index_t> lower_row_ptr(const Triplets& t) {
  aligned_vector<index_t> rp(t.nrows() + 1, 0);
  for (const Entry& e : t.entries()) {
    if (e.col < e.row) {
      ++rp[e.row + 1];
    }
  }
  for (index_t r = 0; r < t.nrows(); ++r) {
    rp[r + 1] += rp[r];
  }
  return rp;
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

Status InstanceOptions::validate() const { return du.validate(); }

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
  SPC_CHECK_MSG(nthreads >= 1, "nthreads must be >= 1");
  SPC_CHECK_MSG(t.is_sorted_unique(),
                "SpmvInstance requires sorted/combined triplets");
  if (const Status st = opts_.validate(); !st.ok()) {
    throw InvalidArgument("InstanceOptions: " + st.message());
  }
  const FormatCaps& fc = caps(format_);
  if (fc.symmetric && !SymCsr::applicable(t)) {
    throw InvalidArgument(std::string(fc.name) +
                          " requires a numerically symmetric matrix");
  }
  nrows_ = t.nrows();
  ncols_ = t.ncols();
  nnz_ = t.nnz();
  runs_counter_ = &obs::Registry::global().counter("spc.spmv.runs");
  run_histo_ = &obs::Registry::global().histogram("spc.spmv.run_ns");

  // Covers partitioning, encoding and binding.
  obs::TraceSpan prepare_span("prepare:" + format_name(format_));

  // Partition rows (§II-C) straight from the triplets, before encoding:
  // each range becomes one worker's slice.
  partition_ = partition_rows_even(nrows_, 1);
  Topology topo;
  if (nthreads > 1) {
    {
      obs::TraceSpan partition_span("partition");
      if (!opts_.balance_by_nnz) {
        partition_ = partition_rows_even(nrows_, nthreads);
      } else if (fc.symmetric) {
        partition_ = partition_rows_by_nnz(lower_row_ptr(t), nthreads);
      } else {
        partition_ = partition_rows_by_nnz(t, nthreads);
      }
    }
    if (shared_pool_ != nullptr) {
      // Borrowed pool: placement facts come from its workers.
      topo = discover_topology();
      xpool_ = shared_pool_.get();
      run_mu_ = std::make_unique<std::mutex>();
    } else {
      std::vector<int> plan;
      if (opts_.pin_threads) {
        topo = discover_topology();
        plan = plan_placement(topo, nthreads, opts_.placement);
      }
      pool_ = std::make_unique<ThreadPool>(nthreads, plan);
      xpool_ = pool_.get();
    }
    // Pinned workers' nodes, for the residency query and the steal
    // schedule's victim order. An unpinned pool leaves them unknowable.
    const std::vector<int>& cpus = xpool_->worker_cpus();
    if (cpus[0] >= 0) {
      thread_node_.resize(nthreads);
      for (std::size_t th = 0; th < nthreads; ++th) {
        thread_node_[th] = std::max(0, topo.node_of_cpu(cpus[th]));
      }
      if (topo.num_nodes() > 1) {
        numa_policy_ = NumaPolicy::kLocal;
      }
      auto& reg = obs::Registry::global();
      reg.gauge("spc.numa.nodes").set(static_cast<double>(topo.num_nodes()));
      reg.counter("spc.numa.instances").add();
    }
    setup_schedule(t, topo);
  }
  build_slices(t);
  if (nthreads > 1 && fc.symmetric) {
    setup_sym();
  }
  prepare();
}

void SpmvInstance::build_slices(const Triplets& t) {
  static_assert(std::variant_size_v<Slices> == std::size(kFormatCaps),
                "one slice alternative per Format, in enum order");
  slices_ = variant_at<Slices>(
      static_cast<std::size_t>(format_),
      std::make_index_sequence<std::variant_size_v<Slices>>{});
  // Worker th builds slice th, so the slices encode in parallel and each
  // slice's pages are first touched by the worker that runs them (on its
  // node when the pool is pinned). A shared pool is queued for like a
  // request and held while the build runs. Serial instances build on
  // the calling thread.
  const PerSlice per_slice{
      partition_.bounds,
      [this](std::size_t n, const std::function<void(std::size_t)>& job) {
        SPC_CHECK_MSG(n == nthreads_, "one job per slice");
        if (xpool_ == nullptr) {
          job(0);
        } else {
          xpool_->run(job);
        }
      }};
  obs::TraceSpan build_span("build:slices");
  std::visit(
      [&](auto& slices) {
        using M = typename std::decay_t<decltype(slices)>::value_type;
        const auto build = slice_builder(Tag<M>{}, t, opts_, per_slice);
        slices.resize(nthreads_);
        per_slice.run(nthreads_, [&](std::size_t th) {
          slices[th] =
              build(partition_.row_begin(th), partition_.row_end(th));
        });
      },
      slices_);
}

void SpmvInstance::setup_sym() {
  const std::size_t nthreads = nthreads_;
  // Thread t's scatters outside its rows start at the smallest first
  // column among its rows (columns ascend within a row).
  std::vector<index_t> win_begin(nthreads);
  std::visit(
      [&](const auto& slices) {
        using M = typename std::decay_t<decltype(slices)>::value_type;
        if constexpr (std::is_same_v<M, SymCsr> ||
                      std::is_same_v<M, SymCsrVi>) {
          for (std::size_t th = 0; th < nthreads; ++th) {
            const aligned_vector<index_t>& rp = slices[th].row_ptr();
            const aligned_vector<index_t>& ci = slices[th].col_ind();
            index_t wb = partition_.row_begin(th);
            for (std::size_t r = 0; r + 1 < rp.size(); ++r) {
              if (rp[r] < rp[r + 1]) {
                wb = std::min(wb, ci[rp[r]]);
              }
            }
            win_begin[th] = wb;
          }
        }
      },
      slices_);
  sym_plan_ = plan_sym_windows(std::move(win_begin), partition_, nrows_,
                               sym_reduce_from_env(opts_.sym_reduce));
  sym_reduce_ =
      sym_plan_.use_window ? SymReduce::kWindow : SymReduce::kPrivate;
  sym_active_ = true;
  if (sym_reduce_ == SymReduce::kWindow) {
    for (std::size_t th = 0; th < nthreads; ++th) {
      sym_win_.emplace_back(
          partition_.row_begin(th) - sym_plan_.win_begin[th], 0.0);
    }
  } else {
    sym_private_y_.assign(nthreads, Vector(nrows_, 0.0));
    sym_reduce_rows_ = partition_rows_even(nrows_, nthreads);
  }
  auto& reg = obs::Registry::global();
  sym_reduce_counter_ = &reg.counter("spc.sym.reduce_ns");
  reg.gauge("spc.sym.window_rows")
      .set(static_cast<double>(sym_window_rows()));
}

void SpmvInstance::setup_schedule(const Triplets& t, const Topology& topo) {
  const Schedule requested = schedule_from_env(opts_.schedule);
  if (requested == Schedule::kStatic) {
    return;
  }
  // A stolen symmetric chunk would scatter into the owner's conflict
  // window concurrently with the owner — a data race the window scheme
  // cannot absorb — so the symmetric formats keep the static schedule.
  if (caps(format_).symmetric) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      std::fprintf(stderr,
                   "spc: schedule=steal is unsafe for the symmetric "
                   "formats (concurrent window scatters); running "
                   "schedule=static instead\n");
    }
    note_decision("schedule", "steal", "static",
                  "stolen symmetric chunks would scatter into the "
                  "owner's conflict window concurrently");
    return;
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
  chunk_plan_ = plan_chunks(t, partition_, target);
  if (chunk_plan_.nchunks() == 0) {
    chunk_plan_ = ChunkPlan{};
    note_decision("schedule", schedule_name(requested), "static",
                  "chunk plan degenerated (too little work per worker "
                  "for the chunk target)");
    return;
  }
  sched_ = requested;

  sched_slots_.assign(nthreads_, SchedSlot{});
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
  // NUMA-near victim order from the recorded nodes; unpinned workers
  // (no nodes) or a single node give plain rotation.
  steal_victims_ = steal_victim_order(nthreads_, thread_node_);

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

SpmvInstance::NumaResidency SpmvInstance::matrix_residency() const {
  NumaResidency r;
  if (thread_node_.empty()) {
    r.reason = nthreads_ == 1 ? "serial instance: no worker nodes"
                              : "workers are not pinned, so their NUMA "
                                "nodes are unknown";
    return r;
  }
  std::string reason;
  std::vector<int> nodes;
  const auto sample = [&](std::size_t th, const auto& array) {
    using T = typename std::decay_t<decltype(array)>::value_type;
    if (!query_page_nodes(array.data(), array.size() * sizeof(T), 64,
                          &nodes, &reason)) {
      return;
    }
    for (const int nd : nodes) {
      ++r.pages_sampled;
      if (nd == thread_node_[th]) {
        ++r.pages_local;
      }
    }
  };
  std::visit(
      [&](const auto& slices) {
        for (std::size_t th = 0; th < slices.size(); ++th) {
          const auto& s = slices[th];
          if constexpr (requires { s.col_ind(); }) {
            sample(th, s.col_ind());
          }
          if constexpr (requires { s.values(); }) {
            sample(th, s.values());
          }
          if constexpr (requires { s.units(); }) {
            sample(th, s.units());
          }
          if constexpr (requires { s.du(); }) {
            sample(th, s.du().units());
          }
          if constexpr (kIndexesValues<std::decay_t<decltype(s)>>) {
            sample(th, s.value_index().raw());
          }
        }
      },
      slices_);
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

  // The DU encoders' unit histograms, summed over the slices.
  du_hist_ = {};
  has_du_hist_ = false;
  std::visit(
      [&](const auto& slices) {
        for (const auto& s : slices) {
          if constexpr (requires { s.histogram(); }) {
            du_hist_ += s.histogram();
            has_du_hist_ = true;
          }
        }
      },
      slices_);

  SliceBind p{kt};
  const bool want_chunks =
      sched_ != Schedule::kStatic && chunk_plan_.nchunks() > 0;
  std::vector<BoundKernel> serial;
  std::visit(
      [&](const auto& slices) {
        for (std::size_t th = 0; th < slices.size(); ++th) {
          p.b = partition_.row_begin(th);
          p.e = partition_.row_end(th);
          if (want_chunks) {
            const auto first =
                chunk_plan_.bounds.begin() + chunk_plan_.owner_begin[th];
            const auto last =
                chunk_plan_.bounds.begin() + chunk_plan_.owner_begin[th + 1];
            p.chunks.assign(first, last + 1);
          }
          if (sym_active_ && sym_reduce_ == SymReduce::kWindow) {
            p.win = sym_win_[th].data();
            p.win_begin = sym_plan_.win_begin[th];
            p.direct_begin = p.b;
          } else if (sym_active_) {
            p.private_y = sym_private_y_[th].data();
          }
          SliceKernels k = bind(slices[th], p);
          serial.push_back(std::move(k.serial));
          binding_.per_thread.push_back(std::move(k.pooled));
          for (BoundKernel& c : k.chunks) {
            binding_.per_chunk.push_back(std::move(c));
          }
        }
      },
      slices_);
  // The serial pass runs the slices in order: each row still sums in one
  // pass, so it is bit-identical to a whole-matrix kernel.
  if (serial.size() == 1) {
    binding_.serial = std::move(serial.front());
  } else {
    binding_.serial = [parts = std::move(serial)](const value_t* x,
                                                  value_t* y) {
      for (const BoundKernel& k : parts) {
        k(x, y);
      }
    };
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
  return std::visit(
      [](const auto& slices) {
        usize_t bytes = 0;
        for (const auto& s : slices) {
          bytes += s.bytes();
        }
        // The value formats' slices share one unique-value table.
        using M = typename std::decay_t<decltype(slices)>::value_type;
        if constexpr (kIndexesValues<M>) {
          bytes -= (slices.size() - 1) *
                   slices.front().value_index().table().size() *
                   sizeof(value_t);
        }
        return bytes;
      },
      slices_);
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
  // A serial pass of a pooled symmetric instance would skip its
  // scatter/reduce phases and reassociate the sums — not bit-identical
  // to the pooled run. Every other format's serial closure runs the
  // pooled closures' slices in order, summing each row the same way.
  return !sym_active_;
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
  binding_.serial(x, y);
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

  // Non-symmetric formats: everything was fixed by prepare(); the
  // timed path is the raw-callable pool dispatch — one function-pointer
  // call per worker, no std::function construction.
  run_args_.x = xp;
  run_args_.y = yp;
  if (sched_ == Schedule::kStatic) {
    dispatch_raw(&SpmvInstance::static_job);
    return;
  }
  // Refill every deque with its owner's chunks; the pool's dispatch
  // handshake publishes these stores to the workers.
  for (ChunkDeque& d : deques_) {
    d.reset();
  }
  dispatch_raw(&SpmvInstance::steal_job);
}

Vector spmv_simple(const Triplets& t, const Vector& x) {
  const Csr m = Csr::from_triplets(t);
  Vector y(t.nrows(), 0.0);
  spmv(m, x.data(), y.data());
  return y;
}

}  // namespace spc
