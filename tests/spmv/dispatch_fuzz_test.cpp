// Kernel-vs-reference fuzzing across the dispatch matrix: every
// dispatch-routed format × every ISA tier available on this host ×
// serial and multithreaded execution, against the scalar CSR oracle,
// over a swarm of deterministically-seeded random matrices.
//
// The scalar tier must match the oracle bit-for-bit for the row-order
// formats (same accumulation order); vector tiers reassociate per-row
// sums into lane partials, so they are held to a relative-error bound
// instead (a few ulps — the reassociation of ~row_length addends). The
// DU formats run one scalar offset-unit kernel at every tier, so they
// stay bit-identical to the oracle everywhere.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>

#include "spc/formats/offset_units.hpp"
#include "spc/gen/generators.hpp"
#include "spc/mm/ops.hpp"
#include "spc/spmv/dispatch.hpp"
#include "spc/spmv/instance.hpp"
#include "spc/spmv/kernels.hpp"
#include "spc/support/topology.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

// Reassociating a length-k sum perturbs it by at most ~k ulps; the
// matrices below stay under ~4k nnz per row, so 1e-12 is generous while
// still catching any indexing bug (which produces O(1) errors).
constexpr double kVectorTol = 1e-12;

// One fuzzed instance configuration: a format, plus (for CSR-DU) RLE
// units switched on with a run length short enough that the fuzz rows
// actually form them — the only instance-level path into the RLE
// decoders.
struct FuzzRow {
  Format format;
  bool rle = false;
};

// The DU formats' offset-unit kernel sums every row in CSR's order at
// every tier.
bool exact_at_every_tier(const FuzzRow& r) {
  return r.format == Format::kCsrDu || r.format == Format::kCsrDuVi;
}

std::string row_name(const FuzzRow& r) {
  return format_name(r.format) + (r.rle ? "+rle" : "");
}

InstanceOptions with_row(InstanceOptions opts, const FuzzRow& r) {
  if (r.rle) {
    opts.du.enable_rle = true;
    opts.du.rle_min_run = 4;
  }
  return opts;
}

const std::vector<FuzzRow>& dispatch_rows() {
  static const std::vector<FuzzRow> kRows = {
      {Format::kCsr},   {Format::kCsr16},       {Format::kCsrVi},
      {Format::kCsrDu}, {Format::kCsrDu, true}, {Format::kCsrDuVi},
  };
  return kRows;
}

// The RLE row must really form RLE units on the swarm — stride-1 dense
// runs and strided runs both — or the suites below would only re-run
// plain CSR-DU.
TEST(RleRow, SwarmFormsStrideOneAndStridedRuns) {
  usize_t seq_units = 0;
  usize_t strided_units = 0;
  for (int seed = 0; seed < 21; ++seed) {
    const Triplets t = test::swarm_matrix(seed);
    if (t.nnz() == 0) {
      continue;
    }
    const SpmvInstance inst(t, Format::kCsrDu, 1,
                            with_row({}, {Format::kCsrDu, true}));
    const CsrDu::UnitHistogram* h = inst.du_histogram();
    ASSERT_NE(h, nullptr);
    seq_units += h->seq_units;
    strided_units += h->rle_units - h->seq_units;
  }
  EXPECT_GT(seq_units, 0u);
  EXPECT_GT(strided_units, 0u);
}

// A walk over decoded offset units, counted the way the encoders count.
CsrDu::UnitHistogram scanned_histogram(const OffsetUnits& m) {
  CsrDu::UnitHistogram h;
  for (const OffsetUnits::Unit& u : m.decode_units()) {
    h.add_unit(static_cast<DeltaClass>(u.uflags & kDuClassMask), u.usize,
               (u.uflags & kDuRle) != 0, u.stride);
  }
  return h;
}

// The DU encoders count their units as they emit them, and prepare()
// reads that count instead of scanning the stream. It must equal a scan
// of the stream field by field — the ctl stream's payload-skipping scan
// and a walk over the offset units — for whole matrices and for the
// row-range slices an instance builds, with RLE off and on (on, the
// swarm forms stride-1 and strided runs).
TEST(EncoderHistogram, EqualsTheScanOnTheSwarmAndItsSlices) {
  usize_t seq_units = 0;
  usize_t strided_units = 0;
  for (int seed = 0; seed < 21; ++seed) {
    const Triplets t = test::swarm_matrix(seed);
    for (const bool rle : {false, true}) {
      const CsrDuOptions du = with_row({}, {Format::kCsrDu, rle}).du;
      const std::string what =
          "seed " + std::to_string(seed) + (rle ? " rle" : "");
      const CsrDu whole = CsrDu::from_triplets(t, du);
      EXPECT_EQ(whole.histogram(), whole.unit_histogram()) << what;
      const RowPartition p = partition_rows_by_nnz(t, 3);
      CsrDu::UnitHistogram sum;
      for (std::size_t th = 0; th < 3; ++th) {
        const CsrDu s =
            CsrDu::from_rows(t, p.row_begin(th), p.row_end(th), du);
        EXPECT_EQ(s.histogram(), s.unit_histogram()) << what << " t" << th;
        sum += s.histogram();
      }
      // Units never span rows, so slicing moves no unit.
      EXPECT_EQ(sum, whole.histogram()) << what;

      const OffsetUnits offsets = OffsetUnits::from_rows(t, 0, t.nrows(), du);
      EXPECT_EQ(offsets.histogram(), scanned_histogram(offsets)) << what;
      CsrDu::UnitHistogram offset_sum;
      for (std::size_t th = 0; th < 3; ++th) {
        const OffsetUnits s =
            OffsetUnits::from_rows(t, p.row_begin(th), p.row_end(th), du);
        EXPECT_EQ(s.histogram(), scanned_histogram(s)) << what << " t" << th;
        offset_sum += s.histogram();
      }
      EXPECT_EQ(offset_sum, offsets.histogram()) << what;
      seq_units += whole.histogram().seq_units;
      strided_units +=
          whole.histogram().rle_units - whole.histogram().seq_units;
    }
  }
  EXPECT_GT(seq_units, 0u);
  EXPECT_GT(strided_units, 0u);
}

// Shapes the swarm leaves to chance: empty rows at the start, in the
// middle and at the end; rows longer than one unit; rows whose column
// span crosses 2^8, 2^16 and 2^24 (so offsets need every class, up to
// their top byte); a single column; 1x1; and runs of stride 1 and wider
// strides for the RLE units.
std::vector<Triplets> offset_edge_shapes() {
  std::vector<Triplets> out;
  Rng rng(4242);
  {
    Triplets t(12, 700);
    for (const index_t r : {3u, 4u, 7u, 9u}) {  // rows 0-2, 5-6, 8, 10-11 empty
      for (index_t c = r; c < 700; c += 1 + r) {
        t.add(r, c, rng.next_double(-1.0, 1.0));
      }
    }
    t.sort_and_combine();
    out.push_back(std::move(t));
  }
  {
    // One row per span class boundary, each with elements on both sides
    // of it, and one row mixing short and long gaps so units split.
    const index_t ncols = (index_t{1} << 24) + 40;
    Triplets t(6, ncols);
    const index_t edges[] = {1u << 8, 1u << 16, 1u << 24};
    for (index_t r = 0; r < 3; ++r) {
      for (const index_t c : {0u, 1u, edges[r] - 1, edges[r], edges[r] + 1,
                              edges[r] + 7}) {
        t.add(2 * r, c, rng.next_double(-1.0, 1.0));
      }
    }
    for (index_t k = 0; k < 20; ++k) {
      t.add(5, k, rng.next_double(-1.0, 1.0));
      t.add(5, 300 + 70000 * k, rng.next_double(-1.0, 1.0));
    }
    t.sort_and_combine();
    out.push_back(std::move(t));
  }
  {
    // Stride-1 and strided runs, one strided far enough that base +
    // k*stride needs u32 offsets, and a 600-element row (three units).
    Triplets t(4, 200000);
    for (index_t k = 0; k < 40; ++k) {
      t.add(0, 10 + k, rng.next_double(-1.0, 1.0));
      t.add(1, 5 + 3 * k, rng.next_double(-1.0, 1.0));
      t.add(2, 1000 * k, rng.next_double(-1.0, 1.0));
    }
    for (index_t k = 0; k < 600; ++k) {
      t.add(3, 2 * k + (k % 7 == 0 ? 1 : 0), rng.next_double(-1.0, 1.0));
    }
    t.sort_and_combine();
    out.push_back(std::move(t));
  }
  out.push_back(test::random_triplets(50, 1, 30, rng));
  out.push_back(test::random_triplets(1, 1, 1, rng));
  return out;
}

// Every element's (row, column) as the offset units store it, in stream
// order, decoded from the stream's start.
std::vector<std::pair<index_t, index_t>> offset_coordinates(
    const OffsetUnits& m) {
  std::vector<std::pair<index_t, index_t>> out;
  std::int64_t row = -1;
  for (const OffsetUnits::Unit& u : m.decode_units()) {
    if (u.uflags & kDuNewRow) {
      row += 1 + static_cast<std::int64_t>(u.rskip);
    }
    out.emplace_back(static_cast<index_t>(row), u.base);
    for (const std::uint32_t off : u.offsets) {
      out.emplace_back(static_cast<index_t>(row), u.base + off);
    }
  }
  return out;
}

// The offset units of the swarm and the edge shapes, under the default
// options, eager splitting and RLE: each unit holds at most max_unit
// elements in the class of its largest offset, the units decode to the
// triplets' exact coordinates in order, and the offset kernels' y is
// the ctl kernels' y byte for byte, for direct values and value indices.
TEST(OffsetUnits, DecodeToTheTripletsAndMatchTheCtlKernelBitForBit) {
  std::vector<Triplets> shapes = offset_edge_shapes();
  for (int seed = 0; seed < 21; ++seed) {
    shapes.push_back(test::swarm_matrix(seed));
  }
  std::vector<CsrDuOptions> option_sets(3);
  option_sets[1].split_threshold = 1;
  option_sets[1].max_unit = 7;
  option_sets[2].enable_rle = true;
  option_sets[2].rle_min_run = 4;
  usize_t rle_units = 0;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const Triplets& t = shapes[i];
    Vector x(t.ncols(), 0.0);
    Rng xr(300 + i);
    for (const Entry& e : t.entries()) {
      x[e.col] = xr.next_double(-1.0, 1.0);
    }
    for (std::size_t o = 0; o < option_sets.size(); ++o) {
      const CsrDuOptions& du = option_sets[o];
      const std::string what =
          "shape " + std::to_string(i) + " options " + std::to_string(o);
      const OffsetUnits m = OffsetUnits::from_rows(t, 0, t.nrows(), du);
      for (const OffsetUnits::Unit& u : m.decode_units()) {
        ASSERT_GE(u.usize, 1u) << what;
        ASSERT_LE(u.usize, du.max_unit) << what;
        ASSERT_EQ(u.offsets.size(), u.usize - 1) << what;
        if (u.uflags & kDuRle) {
          ++rle_units;
        } else if (!u.offsets.empty()) {
          ASSERT_EQ(static_cast<DeltaClass>(u.uflags & kDuClassMask),
                    delta_class_for(u.offsets.back()))
              << what;
        }
      }
      const auto coords = offset_coordinates(m);
      ASSERT_EQ(coords.size(), t.nnz()) << what;
      for (usize_t k = 0; k < t.nnz(); ++k) {
        ASSERT_EQ(coords[k].first, t.entries()[k].row) << what << " elem " << k;
        ASSERT_EQ(coords[k].second, t.entries()[k].col)
            << what << " elem " << k;
      }

      Vector y_ctl(t.nrows(), std::numeric_limits<double>::quiet_NaN());
      Vector y_off(t.nrows(), std::numeric_limits<double>::quiet_NaN());
      spmv(CsrDu::from_triplets(t, du), x.data(), y_ctl.data());
      spmv_offset_units(m.full(), x.data(), y_off.data());
      EXPECT_EQ(std::memcmp(y_ctl.data(), y_off.data(),
                            t.nrows() * sizeof(value_t)),
                0)
          << what;

      const CsrDuVi ctl_vi = CsrDuVi::from_triplets(t, du);
      const OffsetUnitsVi vi =
          OffsetUnitsVi::from_rows(t, 0, t.nrows(), du, row_major_values(t));
      Vector y_ctl_vi(t.nrows(), std::numeric_limits<double>::quiet_NaN());
      Vector y_vi(t.nrows(), std::numeric_limits<double>::quiet_NaN());
      spmv(ctl_vi, x.data(), y_ctl_vi.data());
      vi.value_index().visit([&](const auto* ind) {
        spmv_offset_units_vi(vi.du().full(), ind,
                             vi.value_index().table().data(), x.data(),
                             y_vi.data());
      });
      EXPECT_EQ(std::memcmp(y_ctl_vi.data(), y_vi.data(),
                            t.nrows() * sizeof(value_t)),
                0)
          << what << " vi";
    }
  }
  EXPECT_GT(rle_units, 0u);
}

class DispatchFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DispatchFuzz, EveryFormatEveryTierMatchesScalarCsrOracle) {
  const Triplets t = test::swarm_matrix(GetParam());
  if (t.nnz() == 0) {
    GTEST_SKIP() << "degenerate draw";
  }
  Rng xr(9000 + GetParam());
  const Vector x = random_vector(t.ncols(), xr);
  const Vector y_ref = test::reference_spmv(t, x);

  InstanceOptions base;
  base.pin_threads = false;
  for (const IsaTier tier : available_isa_tiers()) {
    test::ScopedEnv isa("SPC_ISA", isa_tier_name(tier).c_str());
    for (const FuzzRow& row : dispatch_rows()) {
      if (row.format == Format::kCsr16 && !csr16_applicable(t)) {
        continue;
      }
      for (const std::size_t threads : {1u, 4u}) {
        SpmvInstance inst(t, row.format, threads, with_row(base, row));
        ASSERT_LE(static_cast<int>(inst.isa_tier()),
                  static_cast<int>(tier));
        Vector y(t.nrows(), std::numeric_limits<double>::quiet_NaN());
        inst.run(x, y);
        const std::string what = row_name(row) + " @" +
                                 isa_tier_name(tier) + " x" +
                                 std::to_string(threads) + " seed " +
                                 std::to_string(GetParam());
        // Row-order formats at the scalar tier, and the DU formats at
        // every tier, share the oracle's exact accumulation order.
        if (tier == IsaTier::kScalar || exact_at_every_tier(row)) {
          EXPECT_EQ(max_abs_diff(y_ref, y), 0.0) << what;
        } else {
          EXPECT_LT(rel_error(y_ref, y), kVectorTol) << what;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Swarm, DispatchFuzz, ::testing::Range(0, 21));

// Scheduler determinism: chunk boundaries are row-aligned, so whatever
// worker executes a chunk, every row's dot product keeps its serial
// accumulation order — SPC_SCHED must not change results at all at the
// scalar tier, and stays within reassociation noise at vector tiers
// (where the per-row sum itself is lane-split, exactly as under static).
class SchedFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SchedFuzz, StealMatchesStaticAcrossFormatsAndTiers) {
  const Triplets t = test::swarm_matrix(GetParam());
  if (t.nnz() == 0) {
    GTEST_SKIP() << "degenerate draw";
  }
  Rng xr(9200 + GetParam());
  const Vector x = random_vector(t.ncols(), xr);
  const Vector y_ref = test::reference_spmv(t, x);

  InstanceOptions base;
  base.pin_threads = false;
  // Far below the L2-derived default so the fuzz matrices (a few knnz)
  // actually split into many chunks and steals genuinely happen.
  base.chunk_nnz = 64;
  for (const IsaTier tier : available_isa_tiers()) {
    test::ScopedEnv isa("SPC_ISA", isa_tier_name(tier).c_str());
    for (const FuzzRow& row : dispatch_rows()) {
      if (row.format == Format::kCsr16 && !csr16_applicable(t)) {
        continue;
      }
      const InstanceOptions opts = with_row(base, row);
      Vector y_static(t.nrows(), 0.0);
      {
        test::ScopedEnv sched("SPC_SCHED", "static");
        SpmvInstance inst(t, row.format, 4, opts);
        ASSERT_EQ(inst.schedule(), Schedule::kStatic);
        inst.run(x, y_static);
      }
      // Static must itself be correct before it can anchor steal.
      ASSERT_LT(rel_error(y_ref, y_static), kVectorTol) << row_name(row);
      if (exact_at_every_tier(row)) {
        ASSERT_EQ(max_abs_diff(y_ref, y_static), 0.0) << row_name(row);
      }
      test::ScopedEnv sched("SPC_SCHED", "steal");
      SpmvInstance inst(t, row.format, 4, opts);
      Vector y(t.nrows(), std::numeric_limits<double>::quiet_NaN());
      inst.run(x, y);
      const std::string what = row_name(row) + " steal @" +
                               isa_tier_name(tier) + " seed " +
                               std::to_string(GetParam());
      if (tier == IsaTier::kScalar || exact_at_every_tier(row)) {
        // Same kernel, same rows, same per-row accumulation order — the
        // executor assignment must be invisible in the bits.
        EXPECT_EQ(max_abs_diff(y_static, y), 0.0) << what;
      } else {
        EXPECT_LT(rel_error(y_ref, y), kVectorTol) << what;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Swarm, SchedFuzz, ::testing::Range(0, 21));

// run_on_caller() is the serving engine's serial fallback and a serial
// pass on a pooled instance: whenever it runs it must reproduce the
// pooled run's bits, and it may refuse only where can_run_on_caller()
// says so — exactly the pooled symmetric instances, whose serial pass
// would skip the scatter/reduce phases and reassociate the sums. Swept
// over every format (plus the RLE row) x SPC_NUMA x SPC_SCHED at the
// scalar tier and the active one; the symmetric rows run on a
// symmetrized square copy of the seed's draw. At the scalar tier the
// pooled y must also be the same bytes with the NUMA bookkeeping off
// and local.
class CallerFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CallerFuzz, RunOnCallerMatchesPooledRunBitForBit) {
  const Triplets t = test::swarm_matrix(GetParam());
  if (t.nnz() == 0) {
    GTEST_SKIP() << "degenerate draw";
  }
  const Triplets ts = test::symmetric_square(t);
  const index_t n = ts.nrows();
  ASSERT_TRUE(SymCsr::applicable(ts));
  Rng xr(9300 + GetParam());
  const Vector x = random_vector(t.ncols(), xr);
  const Vector xs = random_vector(n, xr);
  const Vector y_ref = test::reference_spmv(t, x);
  const Vector ys_ref = test::reference_spmv(ts, xs);
  constexpr value_t kUnwritten = std::numeric_limits<double>::quiet_NaN();
  std::vector<FuzzRow> rows;
  for (const Format f : all_formats()) {
    rows.push_back({f});
  }
  rows.push_back({Format::kCsrDu, true});

  // One pinned pool lent to every instance, as the serving engine does
  // (NUMA placement needs pinned workers).
  const auto pool = std::make_shared<ThreadPool>(
      4, plan_placement(discover_topology(), 4, Placement::kCloseFirst));
  InstanceOptions base;
  base.chunk_nnz = 64;  // several chunks per worker, so steals happen
  std::vector<IsaTier> tiers = {IsaTier::kScalar};
  if (active_isa_tier() != IsaTier::kScalar) {
    tiers.push_back(active_isa_tier());
  }
  for (const IsaTier tier : tiers) {
    test::ScopedEnv isa("SPC_ISA", isa_tier_name(tier).c_str());
    const std::string at = " @" + isa_tier_name(tier) + " seed " +
                           std::to_string(GetParam());
    // A one-thread symmetric instance has no scatter/reduce phases: its
    // serial pass is its run().
    for (const Format f : {Format::kSymCsr, Format::kSymCsrVi}) {
      SpmvInstance one(ts, f, 1, base);
      ASSERT_TRUE(one.can_run_on_caller()) << format_name(f) << at;
      Vector y_run(n, kUnwritten);
      one.run(xs, y_run);
      Vector y_caller(n, kUnwritten);
      ASSERT_TRUE(one.run_on_caller(xs, y_caller)) << format_name(f) << at;
      EXPECT_EQ(std::memcmp(y_caller.data(), y_run.data(),
                            y_run.size() * sizeof(value_t)),
                0)
          << format_name(f) << " 1 thread" << at;
    }
    // Pooled y under SPC_NUMA=off, per (schedule, row), for the local
    // pass to match.
    std::map<std::string, Vector> y_off;
    for (const char* numa : {"off", "local"}) {
      test::ScopedEnv numa_env("SPC_NUMA", numa);
      for (const char* sched : {"static", "steal"}) {
        test::ScopedEnv sched_env("SPC_SCHED", sched);
        for (const FuzzRow& row : rows) {
          if (row.format == Format::kCsr16 && !csr16_applicable(t)) {
            continue;
          }
          const bool sym = format_requires_symmetry(row.format);
          const Triplets& m = sym ? ts : t;
          const Vector& xv = sym ? xs : x;
          SpmvInstance inst(m, row.format, pool, with_row(base, row));
          const std::string what = row_name(row) + " numa=" + numa +
                                   " sched=" + sched + at;
          Vector y_pool(m.nrows(), kUnwritten);
          inst.run(xv, y_pool);
          EXPECT_LT(rel_error(sym ? ys_ref : y_ref, y_pool), kVectorTol)
              << what;
          if (exact_at_every_tier(row)) {
            EXPECT_EQ(max_abs_diff(y_ref, y_pool), 0.0) << what;
          }
          const std::string cell = std::string(sched) + " " + row_name(row);
          if (std::string(numa) == "off") {
            y_off[cell] = y_pool;
          } else if (tier == IsaTier::kScalar) {
            EXPECT_EQ(std::memcmp(y_off.at(cell).data(), y_pool.data(),
                                  y_pool.size() * sizeof(value_t)),
                      0)
                << what << " vs numa=off";
          }

          EXPECT_EQ(inst.can_run_on_caller(), !sym) << what;
          Vector y_caller(m.nrows(), kUnwritten);
          const bool ran = inst.run_on_caller(xv, y_caller);
          EXPECT_EQ(ran, !sym) << what;
          if (ran) {
            EXPECT_EQ(std::memcmp(y_caller.data(), y_pool.data(),
                                  y_pool.size() * sizeof(value_t)),
                      0)
                << what;
          } else {
            EXPECT_TRUE(std::all_of(y_caller.begin(), y_caller.end(),
                                    [](value_t v) { return std::isnan(v); }))
                << what;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Swarm, CallerFuzz, ::testing::Range(0, 21));

}  // namespace
}  // namespace spc
