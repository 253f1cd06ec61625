// SpmvInstance — a matrix prepared for repeated y = A*x execution in a
// chosen storage format with a chosen thread count.
//
// This is the main user-facing entry point of the library: it bundles the
// encoded matrix, the nnz-balanced row partition, the per-thread format
// slices, and the pinned thread pool, so that `run(x, y)` measures exactly
// what the paper measures — the kernel, with all setup out of the timed
// region.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "spc/formats/bcsr.hpp"
#include "spc/formats/coo.hpp"
#include "spc/formats/csc.hpp"
#include "spc/formats/csr.hpp"
#include "spc/formats/csr_du.hpp"
#include "spc/formats/csr_du_vi.hpp"
#include "spc/formats/csr_vi.hpp"
#include "spc/formats/dcsr.hpp"
#include "spc/formats/dia.hpp"
#include "spc/formats/ell.hpp"
#include "spc/formats/jds.hpp"
#include "spc/formats/sym_csr.hpp"
#include "spc/formats/sym_csr_vi.hpp"
#include "spc/mm/triplets.hpp"
#include "spc/mm/vector.hpp"
#include "spc/obs/metrics.hpp"
#include "spc/parallel/chunk_queue.hpp"
#include "spc/parallel/kernel_binding.hpp"
#include "spc/parallel/partition.hpp"
#include "spc/parallel/schedule.hpp"
#include "spc/parallel/thread_pool.hpp"
#include "spc/spmv/dispatch.hpp"
#include "spc/spmv/sym_spmv.hpp"
#include "spc/spmv/tiling.hpp"
#include "spc/support/first_touch.hpp"
#include "spc/support/status.hpp"

namespace spc {

/// Storage formats selectable by name.
enum class Format {
  kCsr,       ///< baseline CSR, 32-bit indices (paper baseline)
  kCsr16,     ///< CSR with 16-bit column indices (needs ncols <= 2^16)
  kCoo,       ///< coordinate format (serial only)
  kCsc,       ///< compressed sparse column (column-partitioned when MT)
  kBcsr,      ///< blocked CSR, block shape from InstanceOptions
  kEll,       ///< ELLPACK fixed-width rows (§III-A baseline)
  kDia,       ///< compressed diagonal storage (§III-A baseline)
  kJds,       ///< jagged diagonal storage (§III-A baseline)
  kCsrDu,     ///< CSR-DU index compression (the paper's §IV)
  kCsrDuRle,  ///< CSR-DU with the RLE1 dense-run extension enabled
  kCsrVi,     ///< CSR-VI value compression (the paper's §V)
  kCsrDuVi,   ///< combined index+value compression
  kDcsr,      ///< simplified Willcock–Lumsdaine comparator
  kSymCsr,    ///< symmetric SSS storage (§III-C), conflict-window MT
  kSymCsrVi,  ///< symmetric storage + value compression (§III-C + §V)
};

/// Canonical lower-case name ("csr-du", "csr-vi", ...).
std::string format_name(Format f);

/// Parses a format name; throws InvalidArgument on unknown names.
Format parse_format(const std::string& name);

/// All formats in presentation order.
const std::vector<Format>& all_formats();

/// True for the symmetric formats, whose encoders refuse matrices that
/// are not numerically symmetric — callers iterating all_formats()
/// should pair this with SymCsr::applicable().
bool format_requires_symmetry(Format f);

struct InstanceOptions {
  CsrDuOptions du;                 ///< encoder knobs for the DU formats
  index_t bcsr_block_rows = 2;     ///< BCSR block shape
  index_t bcsr_block_cols = 2;
  /// Construction guards against pathological blowup (0 = unguarded):
  /// ELL refuses a width beyond this factor of the mean row length, DIA
  /// refuses more than this many distinct diagonals.
  double ell_max_width_factor = 0.0;
  std::size_t dia_max_diags = 0;
  bool pin_threads = true;         ///< bind workers per the placement plan
  Placement placement = Placement::kCloseFirst;
  /// Partition rows by nnz (paper's scheme); false = equal row counts.
  bool balance_by_nnz = true;
  /// NUMA data placement (overridable via SPC_NUMA): kAuto repacks
  /// per-thread slices on multi-node machines and stays off on flat
  /// ones. See support/first_touch.hpp.
  NumaPolicy numa = NumaPolicy::kAuto;
  /// Work scheduling (overridable via SPC_SCHED): kStatic is the
  /// paper's one-range-per-worker model (zero-overhead default);
  /// kChunked/kSteal run the row-partitioned formats as cache-sized
  /// chunks, with kSteal letting idle workers steal from NUMA-near
  /// victims. Non-static requests silently fall back to static for
  /// unsupported formats and serial instances.
  Schedule schedule = Schedule::kStatic;
  /// Target non-zeros per chunk for the dynamic schedules; 0 derives it
  /// from the discovered L2 size (parallel/schedule.hpp). SPC_CHUNK_NNZ
  /// overrides either.
  usize_t chunk_nnz = 0;
  /// Column tiling (overridable via SPC_TILE): kAuto stripes the CSR /
  /// CSR-VI / CSR-DU(-VI) stores into ~L1d-wide column tiles when both
  /// the matrix's x and its rows' x band overflow the cache, and stays
  /// off (zero overhead) otherwise. See spmv/tiling.hpp.
  TileConfig tiling;
  /// Conflict-reduction strategy for the symmetric formats (overridable
  /// via SPC_SYM_REDUCE): kAuto uses the bounded conflict windows unless
  /// the plan degenerates toward full-length windows, where the classic
  /// private-y path is cheaper. See spmv/sym_spmv.hpp.
  SymReduce sym_reduce = SymReduce::kAuto;

  /// Checks the option values themselves (not their fit to a matrix):
  /// block shapes at least 1x1, finite non-negative guard factors, a
  /// forced tile stripe with a nonzero width.
  /// Returns ok() or an kInvalidArgument status naming the bad field and
  /// value. The SpmvInstance constructor calls this and throws
  /// InvalidArgument with the same message on failure.
  Status validate() const;
};

/// One configuration aspect the instance resolved differently from what
/// was requested (including env-var overrides), with the reason — e.g. a
/// steal schedule demoted to chunked for a symmetric format, an auto
/// tile plan that declined, NUMA placement off because workers are
/// unpinned. Silent-at-run-time fallbacks stay queryable this way.
struct InstanceDecision {
  std::string aspect;     ///< "schedule" | "tiling" | "numa" | "isa"
  std::string requested;  ///< what the options/env asked for
  std::string resolved;   ///< what actually runs
  std::string reason;
};

class SpmvInstance {
 public:
  /// Encodes `t` into `format` and prepares `nthreads`-way execution.
  /// nthreads == 1 runs on the calling thread (the paper's serial case).
  SpmvInstance(const Triplets& t, Format format, std::size_t nthreads = 1,
               const InstanceOptions& opts = {});

  /// Shared-pool form: prepares pool->size()-way execution on a pool the
  /// caller owns (and may lend to many instances — the serving engine's
  /// model). The instance serializes its own runs internally, so several
  /// threads may call run() on instances sharing one pool concurrently;
  /// opts.pin_threads/placement are ignored (the pool is already built).
  /// NUMA placement engages only when the pool's workers are pinned. The
  /// pool must outlive the instance — the shared_ptr enforces that.
  SpmvInstance(const Triplets& t, Format format,
               std::shared_ptr<ThreadPool> pool,
               const InstanceOptions& opts = {});

  ~SpmvInstance();
  SpmvInstance(SpmvInstance&&) noexcept;
  SpmvInstance& operator=(SpmvInstance&&) noexcept = delete;

  Format format() const { return format_; }
  std::size_t nthreads() const { return nthreads_; }
  index_t nrows() const { return nrows_; }
  index_t ncols() const { return ncols_; }
  usize_t nnz() const { return nnz_; }

  /// Size of the encoded matrix data (for compression-ratio reporting).
  usize_t matrix_bytes() const;

  /// Computes y = A*x. x must have ncols elements, y nrows elements.
  /// Thread-safe on shared-pool instances (runs serialize internally);
  /// instances owning their pool keep the zero-overhead unlocked path
  /// and must not be run from two threads at once.
  void run(const Vector& x, Vector& y);

  /// True when run_on_caller() can execute this instance: a serial
  /// kernel is bound and computes bit-identically to the pooled run.
  /// False for pooled symmetric instances (their scatter/reduce phases
  /// would reassociate the sums), for the formats with no bound serial
  /// kernel (CSC, DIA, JDS), and for tiled instances under NUMA
  /// placement (the serial binding reads one worker's arena copy).
  bool can_run_on_caller() const;

  /// Degraded-mode execution: computes y = A*x entirely on the calling
  /// thread, without touching the pool — the serving engine's fallback
  /// when the shared pool is saturated. Needs no run() serialization
  /// (reads only the immutable prepared arrays, writes only `y`).
  /// Returns false without computing when can_run_on_caller() is false.
  bool run_on_caller(const Vector& x, Vector& y);

  /// Every configuration aspect resolved away from its requested value
  /// (schedule/tiling/numa/isa fallbacks), in resolution order.
  /// Empty when everything runs exactly as asked.
  const std::vector<InstanceDecision>& decisions() const {
    return decisions_;
  }

  /// One-time per-tier setup, called by the constructor: resolves the
  /// active ISA tier (CPUID + SPC_ISA override), scans the DU unit-class
  /// histogram to choose the decode strategy, and binds the per-thread
  /// kernels — everything that must stay off the timed path. Idempotent;
  /// call again to rebind after changing SPC_ISA.
  void prepare();

  /// The ISA tier the bound kernels execute at (recorded into the JSONL
  /// metrics as "isa").
  IsaTier isa_tier() const { return tier_; }

  /// Unit-class histogram of the ctl stream for DU-based formats;
  /// nullptr for every other format.
  const CsrDu::UnitHistogram* du_histogram() const {
    return has_du_hist_ ? &du_hist_ : nullptr;
  }

  /// The partition in use (empty bounds for serial-only formats).
  const RowPartition& partition() const { return partition_; }

  /// The worker pool executing this instance — owned or borrowed
  /// (nullptr exactly when nthreads() == 1). The bench harness uses it to
  /// read busy-time imbalance and drive hardware counters.
  ThreadPool* pool() const { return xpool_; }

  /// True when the pool was lent by the caller (the shared-pool
  /// constructor) rather than built by this instance.
  bool pool_is_shared() const { return shared_pool_ != nullptr; }

  /// The data-placement policy actually in effect: the resolved value of
  /// opts.numa / SPC_NUMA, or kOff when the format, unpinned workers, or
  /// the thread count rule placement out. Recorded into the JSONL metrics
  /// as "numa".
  NumaPolicy numa_policy() const { return numa_policy_; }

  /// NUMA node each worker's pin target lives on (empty when placement
  /// is off).
  const std::vector<int>& thread_nodes() const { return thread_node_; }

  /// Best-effort page-residency summary of the repacked matrix blocks,
  /// via the move_pages(2) query form. `available` is false (with a
  /// reason) when placement is off or the kernel refuses the query —
  /// never an error.
  struct NumaResidency {
    bool available = false;
    std::string reason;
    usize_t pages_sampled = 0;
    usize_t pages_local = 0;  ///< resident on the owning worker's node
  };
  NumaResidency matrix_residency() const;

  /// The schedule actually in effect: the resolved value of
  /// opts.schedule / SPC_SCHED, or kStatic when the format or thread
  /// count rules dynamic scheduling out. Recorded into the JSONL
  /// metrics as "schedule".
  Schedule schedule() const { return sched_; }

  /// Number of chunks in the active chunk plan (0 under static).
  std::size_t sched_chunks() const { return chunk_plan_.nchunks(); }

  /// Chunks executed by worker `t` since the last sched_reset().
  std::uint64_t sched_executed(std::size_t t) const {
    return t < sched_slots_.size() ? sched_slots_[t].executed : 0;
  }

  /// Chunks worker `t` stole from other workers' deques.
  std::uint64_t sched_stolen(std::size_t t) const {
    return t < sched_slots_.size() ? sched_slots_[t].stolen : 0;
  }

  /// Total steals across all workers since the last sched_reset().
  std::uint64_t sched_steals_total() const;

  /// Zeroes the per-worker executed/stolen chunk counts (the bench
  /// harness calls this next to ThreadPool::busy_reset() so the timed
  /// loop's counts exclude warmup).
  void sched_reset();

  /// True when the column-tiled execution path is bound (the resolved
  /// opts.tiling / SPC_TILE engaged for this matrix). Recorded into the
  /// JSONL metrics as "tiling" / "stripe_bytes".
  bool tiling_active() const { return tiled_; }

  /// The resolved tiling decision (decline_reason says why an auto
  /// request stayed untiled).
  const TilePlan& tile_plan() const { return tile_plan_; }

  /// Stripe width in bytes of x covered (0 when untiled).
  std::size_t tile_stripe_bytes() const {
    return tiled_ ? tile_plan_.stripe_bytes : 0;
  }

  /// Number of column stripes (0 when untiled).
  index_t tile_stripes() const { return tiled_ ? tile_plan_.nstripes : 0; }

  /// True when a symmetric format's scatter/reduce execution path is
  /// active (multithreaded pool runs of kSymCsr / kSymCsrVi).
  bool sym_active() const { return sym_active_; }

  /// The conflict-reduction strategy actually in effect (kWindow or
  /// kPrivate; kAuto never survives resolution). Meaningful only when
  /// sym_active(). Recorded into the JSONL metrics as "sym_reduce".
  SymReduce sym_reduce() const { return sym_reduce_; }

  /// Total conflict-window rows across threads (0 in private mode).
  usize_t sym_window_rows() const {
    return sym_active_ && sym_reduce_ == SymReduce::kWindow
               ? sym_plan_.total_rows
               : 0;
  }

  /// Reduction traffic relative to the private-y sweep's nthreads*nrows:
  /// the window span fraction under kWindow, 1.0 under kPrivate, 0.0
  /// when no symmetric reduction runs at all.
  double sym_window_frac() const;

  /// Nanoseconds of reduction-phase wall time accumulated since the last
  /// sym_reset() (summed over runs; 0 when the reduction is skipped).
  std::uint64_t sym_reduce_ns_total() const { return sym_reduce_ns_; }

  /// Zeroes the reduction-phase timer (the bench harness calls this next
  /// to sched_reset() so the timed loop's figure excludes warmup).
  void sym_reset() { sym_reduce_ns_ = 0; }

  /// How this instance's configuration was chosen. Hand-constructed
  /// instances carry the default (tuned == false); spc::tune stamps the
  /// instances it returns so the bench harness can record the tuning
  /// provenance (tuned / cache_hit / probe_ns / source) into the JSONL
  /// metrics without depending on the tuner.
  struct TuneProvenance {
    bool tuned = false;
    bool cache_hit = false;       ///< winner came from the tuning cache
    std::uint64_t probe_ns = 0;   ///< wall time spent probing (0 on hit)
    std::string source;           ///< "cache" | "probe" | "cost-model"
    std::string fingerprint;      ///< matrix content hash (16-hex)
  };
  const TuneProvenance& tune_provenance() const { return tune_; }
  void set_tune_provenance(TuneProvenance p) { tune_ = std::move(p); }

  /// Probe hook for the autotuner: one y = A*x pass under the wall
  /// clock, returning its duration in nanoseconds. Identical work to
  /// run(); the instance-side timestamping keeps every candidate's
  /// measurement loop the same few instructions regardless of caller.
  std::uint64_t run_probe(const Vector& x, Vector& y);

 private:
  /// Shared constructor body: validates options, encodes, partitions,
  /// builds or borrows the pool, resolves schedule/tiling/NUMA, binds.
  /// Expects format_/nthreads_/opts_ (and shared_pool_, when borrowing)
  /// already set.
  void init(const Triplets& t);
  /// Records a requested-vs-resolved configuration fallback for
  /// decisions(). Idempotent per (aspect, resolved, reason) so the
  /// re-callable prepare() never duplicates entries.
  void note_decision(const std::string& aspect, const std::string& requested,
                     const std::string& resolved, const std::string& reason);
  void run_serial(const value_t* x, value_t* y);
  void run_parallel(const Vector& x, Vector& y);
  /// The run()/run_probe() execution body (serial-vs-parallel split),
  /// under the run mutex when this instance shares its pool.
  void run_locked(const Vector& x, Vector& y);
  /// Raw pool dispatch for the scheduler executors (ctx = this).
  void dispatch_raw(ThreadPool::RawJob fn);
  /// Resolves opts.schedule / SPC_SCHED and, when a dynamic schedule is
  /// active, builds the chunk plan, the per-worker deques, and the
  /// NUMA-near victim order. Called by the constructor after the pool
  /// exists and *before* setup_numa (the DU chunk slices are computed
  /// against the pristine ctl stream; setup_numa translates them into
  /// each owner's arena block). `t` supplies the per-row nnz counts the
  /// planner needs for formats without a row_ptr (the DU family, ELL).
  void setup_schedule(const Triplets& t, const Topology& topo);
  /// Resolves the NUMA policy and, when active, repacks every worker's
  /// matrix slice into a first-touched arena block (plus the x mirrors
  /// the replicate/interleave policies need). Called by the constructor
  /// after the pinned pool exists and before prepare().
  void setup_numa(const Topology& topo);
  /// Resolves opts.tiling / SPC_TILE and, when the plan engages, builds
  /// the stripe-major tiled store over the execution blocks (the chunk
  /// plan's chunks under dynamic schedules, the partition's ranges under
  /// static). Called after setup_schedule and before setup_numa, which
  /// repacks the tiled arrays instead of the matrix's when tiled_.
  void setup_tiling(const Triplets& t);
  /// Binds the tiled execution closures (called by prepare() in place of
  /// the per-format binding when tiled_).
  void bind_tiled(const KernelTable& kt);

  Format format_;
  std::size_t nthreads_;
  index_t nrows_ = 0;
  index_t ncols_ = 0;
  usize_t nnz_ = 0;
  InstanceOptions opts_;

  std::variant<Csr, Csr16, Coo, Csc, Bcsr, Ell, Dia, Jds, CsrDu, CsrVi,
               CsrDuVi, Dcsr, SymCsr, SymCsrVi>
      matrix_;
  RowPartition partition_;               ///< row ranges (or column ranges for CSC)
  std::vector<CsrDu::Slice> du_slices_;  ///< per-thread DU slices
  std::vector<Dcsr::Slice> dcsr_slices_;
  /// Per-thread private y for CSC and for the symmetric formats'
  /// private-y fallback mode.
  std::vector<Vector> csc_scratch_;
  std::unique_ptr<ThreadPool> pool_;    ///< owned pool (classic ctor)
  std::shared_ptr<ThreadPool> shared_pool_;  ///< borrowed pool (engine)
  /// The pool runs execute on: pool_.get(), shared_pool_.get(), or
  /// nullptr (serial).
  ThreadPool* xpool_ = nullptr;
  /// Serializes run()/run_probe() on shared-pool instances, so several
  /// engine dispatchers may drive one matrix concurrently. Heap-held
  /// (allocated only when sharing) to keep the defaulted move ctor.
  std::unique_ptr<std::mutex> run_mu_;
  std::vector<InstanceDecision> decisions_;
  // Prepared by prepare(): dispatch tier, bound kernels, and per-format
  // precomputation that would otherwise sit on the timed path.
  IsaTier tier_ = IsaTier::kScalar;
  KernelBinding binding_;
  CsrDu::UnitHistogram du_hist_;
  bool has_du_hist_ = false;
  RowPartition csc_reduce_rows_;  ///< reduce-phase row split for CSC
  // NUMA placement (set up once by setup_numa, off the timed path): the
  // resolved policy, each worker's node, the arena holding the repacked
  // per-thread slices and x mirrors, and the pointers prepare() rebinds
  // the per-thread kernels against.
  NumaPolicy numa_policy_ = NumaPolicy::kOff;
  std::vector<int> thread_node_;
  std::unique_ptr<FirstTouchArena> arena_;
  /// Per-thread repacked array pointers. row_ptr/col_ind/values are
  /// rebased or 0-based per format so the unchanged kernels index them
  /// with the same absolute positions as the shared arrays.
  struct NumaSlice {
    const index_t* row_ptr = nullptr;
    const void* col_ind = nullptr;  ///< element type is per-format
    const value_t* values = nullptr;
    const void* val_ind = nullptr;  ///< CSR-VI / CSR-DU-VI value indices
    /// Symmetric formats: the rebased diagonal (value_t for sym-csr,
    /// width-typed diag indices for sym-csr-vi).
    const void* diag = nullptr;
  };
  std::vector<NumaSlice> numa_slices_;
  std::vector<const value_t*> numa_x_ptr_;  ///< per-thread x replica
  /// Per-thread refresh jobs run before the kernels each run() when x
  /// mirrors exist: worker t copies its chunk of the user x into the
  /// node-local mirror pages.
  std::vector<std::function<void(const value_t*)>> numa_x_copy_;
  // Cached metrics-registry handles (lookup once here, lock-free in run).
  obs::Counter* runs_counter_ = nullptr;
  obs::LatencyHisto* run_histo_ = nullptr;
  // Column tiling (set up once by setup_tiling, off the timed path): the
  // resolved plan, the stripe-major store that replaces the matrix's
  // execution arrays, which worker owns each block, the per-tile DU
  // slices (DU family; rewritten in place by the NUMA repack), and the
  // per-worker array pointers the tiled closures read (shared store by
  // default, arena copies under NUMA).
  TilePlan tile_plan_;
  TiledStore tile_store_;
  bool tiled_ = false;
  std::vector<std::uint32_t> tile_block_owner_;  ///< one per block
  std::vector<CsrDu::Slice> tile_du_slices_;     ///< one per tile
  struct TileArrays {
    const index_t* seg_ptr = nullptr;  ///< rebased: index with absolute seg
    const index_t* seg_row = nullptr;
    const std::uint32_t* col = nullptr;  ///< 0-based within the worker span
    const value_t* val = nullptr;
    const void* vi = nullptr;
  };
  std::vector<TileArrays> tile_arrays_;  ///< one per worker
  // Dynamic scheduling (set up once by setup_schedule, off the timed
  // path): the resolved schedule, the row-aligned chunk plan, per-chunk
  // DU slices (DU formats only), one deque of owned chunks per worker,
  // and each worker's NUMA-near-first victim order.
  Schedule sched_ = Schedule::kStatic;
  ChunkPlan chunk_plan_;
  std::vector<CsrDu::Slice> du_chunk_slices_;  ///< one per chunk
  std::vector<ChunkDeque> deques_;             ///< one per worker
  std::vector<std::vector<std::uint32_t>> steal_victims_;
  /// Per-worker chunk counters, cache-line padded; written only by the
  /// owning worker during a run, read after the pool handshake.
  struct alignas(kCacheLineBytes) SchedSlot {
    std::uint64_t executed = 0;
    std::uint64_t stolen = 0;
  };
  std::vector<SchedSlot> sched_slots_;
  obs::Counter* sched_steals_counter_ = nullptr;
  /// The current run's vectors, published to the static executor jobs
  /// before dispatch_raw (pool handshake orders the accesses).
  struct RunArgs {
    const value_t* x = nullptr;
    value_t* y = nullptr;
  };
  RunArgs run_args_;
  // Symmetric conflict-window execution (kSymCsr / kSymCsrVi, pooled
  // runs): the resolved reduction strategy, the per-thread window
  // plan, the window buffers (arena-backed under NUMA, heap otherwise;
  // private mode reuses csc_scratch_), and the reduction-phase timer.
  bool sym_active_ = false;
  SymReduce sym_reduce_ = SymReduce::kWindow;
  SymWindowPlan sym_plan_;
  std::vector<Vector> sym_win_store_;
  std::vector<value_t*> sym_win_ptr_;  ///< one per worker
  std::uint64_t sym_reduce_ns_ = 0;
  obs::Counter* sym_reduce_counter_ = nullptr;
  TuneProvenance tune_;
  /// Static executor jobs for dispatch_raw (ctx = the instance). The
  /// raw-callable path keeps the per-run cost at one function-pointer
  /// call per worker — no std::function allocation on the timed path.
  static void static_job(void* ctx, std::size_t tid);
  static void chunked_job(void* ctx, std::size_t tid);
  static void steal_job(void* ctx, std::size_t tid);
  static void xcopy_job(void* ctx, std::size_t tid);
  /// Symmetric-path executors: the compute job zeroes the worker's
  /// window (or private scratch) then runs its rows — statically or as
  /// its owned chunks under kChunked; the reduce job folds the
  /// overlapping windows (or sums the private copies) into y.
  static void sym_compute_job(void* ctx, std::size_t tid);
  static void sym_reduce_job(void* ctx, std::size_t tid);
  /// The x pointer worker `th` should read (its NUMA replica when the
  /// replicate policy is active, the caller's x otherwise).
  const value_t* worker_x(std::size_t th) const {
    return numa_x_ptr_.empty() ? run_args_.x : numa_x_ptr_[th];
  }
};

/// One-shot convenience: y = A*x via CSR on the calling thread.
Vector spmv_simple(const Triplets& t, const Vector& x);

}  // namespace spc
