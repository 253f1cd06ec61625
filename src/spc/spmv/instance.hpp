// SpmvInstance — a matrix prepared for repeated y = A*x execution in a
// chosen storage format with a chosen thread count.
//
// This is the main user-facing entry point of the library: it bundles the
// nnz-balanced row partition, each worker's rows encoded by that worker
// as its own arrays (the paper's per-thread slices, §IV), and the pinned
// thread pool, so that `run(x, y)` measures exactly what the paper
// measures — the kernel, with all setup out of the timed region.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "spc/formats/csr.hpp"
#include "spc/formats/csr_du.hpp"
#include "spc/formats/csr_du_vi.hpp"
#include "spc/formats/csr_vi.hpp"
#include "spc/formats/offset_units.hpp"
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
#include "spc/support/first_touch.hpp"
#include "spc/support/status.hpp"

namespace spc {

/// Storage formats selectable by name. The §III-A/B comparators (COO,
/// CSC, BCSR, ELL, DIA, JDS, DCSR) are format classes only: they run
/// through their own serial spmv() overloads, not through SpmvInstance.
enum class Format {
  kCsr,       ///< baseline CSR, 32-bit indices (paper baseline)
  kCsr16,     ///< CSR with 16-bit column indices (needs ncols <= 2^16)
  kCsrDu,     ///< CSR-DU index compression (the paper's §IV)
  kCsrVi,     ///< CSR-VI value compression (the paper's §V)
  kCsrDuVi,   ///< combined index+value compression
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
  /// Encoder knobs for the DU formats, applied as given.
  CsrDuOptions du;
  bool pin_threads = true;         ///< bind workers per the placement plan
  Placement placement = Placement::kCloseFirst;
  /// Partition rows by nnz (paper's scheme); false = equal row counts.
  bool balance_by_nnz = true;
  /// Work scheduling (overridable via SPC_SCHED): kStatic is the
  /// paper's one-range-per-worker model (zero-overhead default); kSteal
  /// runs the row-partitioned formats as cache-sized chunks that idle
  /// workers steal from NUMA-near victims. Steal falls back to static
  /// for the symmetric formats and serial instances (see decisions()).
  Schedule schedule = Schedule::kStatic;
  /// Target non-zeros per chunk for the steal schedule; 0 derives it
  /// from the discovered L2 size (parallel/schedule.hpp). SPC_CHUNK_NNZ
  /// overrides either.
  usize_t chunk_nnz = 0;

  /// Checks the option values themselves (not their fit to a matrix):
  /// the DU encoder knobs' ranges (CsrDuOptions::validate()). Returns
  /// ok() or an kInvalidArgument status naming the bad field and value.
  /// The SpmvInstance constructor calls this and throws InvalidArgument
  /// with the same message on failure.
  Status validate() const;
};

/// One configuration aspect the instance resolved differently from what
/// was requested (including env-var overrides), with the reason — e.g. a
/// steal schedule demoted to static for a symmetric format, or the
/// scalar tier for columns past the vector kernels' gather lanes.
/// Silent-at-run-time fallbacks stay queryable this way.
struct InstanceDecision {
  std::string aspect;     ///< "schedule" | "isa"
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
  /// Worker nodes are recorded only when the pool's workers are pinned.
  /// A pool of two or more workers builds the slices: the constructor
  /// queues for it like a run and holds it while the build runs, so it
  /// throws Error when called from one of the pool's own workers. The
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

  /// True when run_on_caller() can execute this instance bit-identically
  /// to its run(). False exactly for pooled symmetric instances: a serial
  /// pass skips their scatter/reduce phases and would reassociate the
  /// sums.
  bool can_run_on_caller() const;

  /// Degraded-mode execution: computes y = A*x entirely on the calling
  /// thread, without touching the pool — the serving engine's fallback
  /// when the shared pool is saturated. Needs no run() serialization
  /// (reads only the immutable prepared arrays, writes only `y`).
  /// Returns false without computing when can_run_on_caller() is false.
  bool run_on_caller(const Vector& x, Vector& y);

  /// Every configuration aspect resolved away from its requested value
  /// (schedule/isa fallbacks), in resolution order.
  /// Empty when everything runs exactly as asked.
  const std::vector<InstanceDecision>& decisions() const {
    return decisions_;
  }

  /// One-time per-tier setup, called by the constructor: resolves the
  /// active ISA tier (CPUID + SPC_ISA override), sums the DU slices' unit
  /// histograms, and binds the serial, per-thread and per-chunk kernels
  /// to the slices — everything that must stay off the timed path.
  /// Idempotent; call again to rebind after changing SPC_ISA.
  void prepare();

  /// The ISA tier the bound kernels execute at (recorded into the JSONL
  /// metrics as "isa").
  IsaTier isa_tier() const { return tier_; }

  /// Unit-class histogram of the DU formats' offset units, by offset
  /// class (the slices' encoder histograms, summed); nullptr for every
  /// other format.
  const CsrDu::UnitHistogram* du_histogram() const {
    return has_du_hist_ ? &du_hist_ : nullptr;
  }

  /// The partition in use: slice t holds rows bounds[t]..bounds[t+1]
  /// (one range for serial instances).
  const RowPartition& partition() const { return partition_; }

  /// The worker pool executing this instance — owned or borrowed
  /// (nullptr exactly when nthreads() == 1). The bench harness uses it to
  /// read busy-time imbalance and drive hardware counters.
  ThreadPool* pool() const { return xpool_; }

  /// True when the pool was lent by the caller (the shared-pool
  /// constructor) rather than built by this instance.
  bool pool_is_shared() const { return shared_pool_ != nullptr; }

  /// The NUMA placement report: kLocal exactly when the workers are
  /// pinned and the machine has more than one node, kOff otherwise.
  /// Recorded into the JSONL metrics as "numa".
  NumaPolicy numa_policy() const { return numa_policy_; }

  /// NUMA node each worker's pin target lives on: recorded for every
  /// pinned pooled instance, empty for unpinned and serial ones.
  const std::vector<int>& thread_nodes() const { return thread_node_; }

  /// Best-effort page-residency summary of the slices' arrays, via the
  /// move_pages(2) query form. `available` is false (with a reason) when
  /// no worker nodes are recorded or the kernel refuses the query —
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

  /// Always false: no execution path tiles x. Kept only because the
  /// end-to-end benchmark (bench/e2e, frozen by its contract) still
  /// records it; delete it once the benchmark stops.
  bool tiling_active() const { return false; }

  /// Always 0; kept for bench/e2e, like tiling_active().
  std::size_t tile_stripe_bytes() const { return 0; }

  /// Always 0; kept for bench/e2e, like tiling_active().
  index_t tile_stripes() const { return 0; }

  /// True when a symmetric format's scatter/reduce execution path is
  /// active (multithreaded pool runs of kSymCsr / kSymCsrVi).
  bool sym_active() const { return sym_active_; }

  /// Total conflict-window rows across threads (0 when !sym_active()).
  usize_t sym_window_rows() const { return sym_window_rows_; }

  /// sym_window_rows() over nthreads*nrows: the windows' share of one
  /// full-length y per worker. 0.0 when no symmetric reduction runs.
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
  /// Shared constructor body: validates options, partitions, builds or
  /// borrows the pool, records the workers' nodes, resolves the schedule,
  /// builds the slices, binds. Expects format_/nthreads_/opts_ (and
  /// shared_pool_, when borrowing) already set.
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
  /// Encodes every worker's row range as its own slice on the worker
  /// that owns it (serial instances: on the calling thread). The value
  /// formats' census runs per slice on those workers too.
  void build_slices(const Triplets& t);
  /// Resolves opts.schedule / SPC_SCHED and, when a dynamic schedule is
  /// active, builds the chunk plan, the per-worker deques, and the
  /// NUMA-near victim order from thread_nodes().
  void setup_schedule(const Triplets& t, const Topology& topo);
  /// Plans the symmetric formats' conflict windows from the slices,
  /// allocates the window buffers and splits the fold evenly.
  void setup_sym();

  Format format_;
  std::size_t nthreads_;
  index_t nrows_ = 0;
  index_t ncols_ = 0;
  usize_t nnz_ = 0;
  InstanceOptions opts_;

  /// Each worker's rows as its own encoded matrix: slice t holds rows
  /// partition_.bounds[t]..bounds[t+1] in local row numbers, and its
  /// kernels are bound with row pointers rebased by the slice's first
  /// row, so they read and write absolute rows. The alternatives follow
  /// Format's order.
  /// The DU formats run as offset units (formats/offset_units.hpp).
  using Slices = std::variant<std::vector<Csr>, std::vector<Csr16>,
                              std::vector<OffsetUnits>, std::vector<CsrVi>,
                              std::vector<OffsetUnitsVi>,
                              std::vector<SymCsr>, std::vector<SymCsrVi>>;
  Slices slices_;
  RowPartition partition_;               ///< per-thread row ranges
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
  // NUMA bookkeeping (recorded once in init): the placement report and
  // each pinned worker's node.
  NumaPolicy numa_policy_ = NumaPolicy::kOff;
  std::vector<int> thread_node_;
  // Cached metrics-registry handles (lookup once here, lock-free in run).
  obs::Counter* runs_counter_ = nullptr;
  obs::LatencyHisto* run_histo_ = nullptr;
  // Work stealing (set up once by setup_schedule, off the timed path):
  // the resolved schedule, the row-aligned chunk plan, one deque of owned
  // chunks per worker, and each worker's NUMA-near-first victim order.
  Schedule sched_ = Schedule::kStatic;
  ChunkPlan chunk_plan_;
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
  // runs): worker t scatters below its rows only into sym_win_[t], which
  // covers rows [sym_win_begin_[t], row_begin(t)); the fold sums the
  // windows over an even row split. Plus the reduction-phase timer.
  bool sym_active_ = false;
  std::vector<index_t> sym_win_begin_;  ///< one per worker
  std::vector<Vector> sym_win_;         ///< one per worker
  usize_t sym_window_rows_ = 0;         ///< sum of the windows' sizes
  RowPartition sym_fold_rows_;          ///< fold-phase split (even)
  std::uint64_t sym_reduce_ns_ = 0;
  obs::Counter* sym_reduce_counter_ = nullptr;
  TuneProvenance tune_;
  /// Static executor jobs for dispatch_raw (ctx = the instance). The
  /// raw-callable path keeps the per-run cost at one function-pointer
  /// call per worker — no std::function allocation on the timed path.
  static void static_job(void* ctx, std::size_t tid);
  static void steal_job(void* ctx, std::size_t tid);
  /// Symmetric-path executors: the compute job zeroes the worker's
  /// window then runs its rows; the reduce job folds the windows that
  /// cover the worker's share of the even split into y.
  static void sym_compute_job(void* ctx, std::size_t tid);
  static void sym_reduce_job(void* ctx, std::size_t tid);
};

/// One-shot convenience: y = A*x via CSR on the calling thread.
Vector spmv_simple(const Triplets& t, const Vector& x);

}  // namespace spc
