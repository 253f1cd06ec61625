#include "spc/spmv/instance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "spc/gen/generators.hpp"
#include "spc/mm/ops.hpp"
#include "spc/support/topology.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

constexpr double kTol = 1e-12;

TEST(FormatNames, RoundTrip) {
  for (const Format f : all_formats()) {
    EXPECT_EQ(parse_format(format_name(f)), f);
  }
}

TEST(FormatNames, ParseIsCaseInsensitive) {
  EXPECT_EQ(parse_format("CSR-DU"), Format::kCsrDu);
  EXPECT_EQ(parse_format("Csr-Vi"), Format::kCsrVi);
}

TEST(FormatNames, UnknownNameThrows) {
  EXPECT_THROW(parse_format("hyper-csr"), InvalidArgument);
}

TEST(FormatNames, InstanceFormatsKeepTheirNamesAndOrder) {
  // The names are tune-cache keys; the retired rows (the §III-A/B
  // comparators and csr-du-rle) no longer parse.
  std::vector<std::string> names;
  for (const Format f : all_formats()) {
    names.push_back(format_name(f));
  }
  EXPECT_EQ(names,
            (std::vector<std::string>{"csr", "csr16", "csr-du", "csr-vi",
                                      "csr-du-vi", "sym-csr",
                                      "sym-csr-vi"}));
  for (const char* retired :
       {"coo", "csc", "bcsr", "ell", "dia", "jds", "dcsr", "csr-du-rle"}) {
    EXPECT_THROW(parse_format(retired), InvalidArgument) << retired;
  }
}

TEST(SpmvInstance, SerialMatchesReferenceForEveryFormat) {
  Rng rng(21);
  const Triplets t = gen_banded(500, 30, 7, rng, ValueModel::pooled(40));
  Rng xr(22);
  const Vector x = random_vector(t.ncols(), xr);
  const Vector ref = test::reference_spmv(t, x);
  for (const Format f : all_formats()) {
    if (format_requires_symmetry(f) && !SymCsr::applicable(t)) {
      continue;  // covered by sym_fuzz_test on symmetric inputs
    }
    SpmvInstance inst(t, f, 1);
    Vector y(t.nrows(), std::numeric_limits<double>::quiet_NaN());
    inst.run(x, y);
    EXPECT_LT(rel_error(ref, y), kTol) << format_name(f);
    EXPECT_EQ(inst.nnz(), t.nnz());
  }
}

struct MtCase {
  Format format;
  std::size_t threads;
};

class MtAgreement : public ::testing::TestWithParam<MtCase> {};

TEST_P(MtAgreement, MultithreadedMatchesReference) {
  const MtCase c = GetParam();
  Rng rng(33);
  const Triplets t =
      gen_ragged(700, 700, 14, 0.1, rng, ValueModel::pooled(90));
  if (format_requires_symmetry(c.format) && !SymCsr::applicable(t)) {
    GTEST_SKIP() << "matrix is not symmetric; see sym_fuzz_test";
  }
  Rng xr(34);
  const Vector x = random_vector(t.ncols(), xr);
  const Vector ref = test::reference_spmv(t, x);

  InstanceOptions opts;
  opts.pin_threads = false;  // keep CI environments happy
  SpmvInstance inst(t, c.format, c.threads, opts);
  Vector y(t.nrows(), std::numeric_limits<double>::quiet_NaN());
  inst.run(x, y);
  EXPECT_LT(rel_error(ref, y), kTol)
      << format_name(c.format) << " x" << c.threads;

  // Repeated runs must be stable (pool reuse, no state leakage).
  Vector y2(t.nrows(), 0.0);
  inst.run(x, y2);
  EXPECT_LT(max_abs_diff(y, y2), kTol);
}

std::vector<MtCase> mt_cases() {
  std::vector<MtCase> cases;
  for (const Format f : all_formats()) {
    for (const std::size_t n : {2u, 4u, 8u}) {
      cases.push_back(MtCase{f, n});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllFormatsThreads, MtAgreement, ::testing::ValuesIn(mt_cases()),
    [](const ::testing::TestParamInfo<MtCase>& param_info) {
      std::string n = format_name(param_info.param.format) + "_x" +
                      std::to_string(param_info.param.threads);
      for (auto& ch : n) {
        if (ch == '-') {
          ch = '_';
        }
      }
      return n;
    });

TEST(SpmvInstance, ThreadCountBeyondRows) {
  Triplets t(3, 3);
  t.add(0, 0, 1.0);
  t.add(2, 2, 2.0);
  t.sort_and_combine();
  InstanceOptions opts;
  opts.pin_threads = false;
  SpmvInstance inst(t, Format::kCsrDu, 8, opts);
  const Vector x(3, 1.0);
  Vector y(3, -1.0);
  inst.run(x, y);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 2.0);
}

TEST(SpmvInstance, MatrixBytesReflectCompression) {
  Rng rng(41);
  const Triplets t =
      gen_banded(2000, 25, 9, rng, ValueModel::pooled(30));
  SpmvInstance csr(t, Format::kCsr);
  SpmvInstance du(t, Format::kCsrDu);
  SpmvInstance vi(t, Format::kCsrVi);
  SpmvInstance duvi(t, Format::kCsrDuVi);
  EXPECT_LT(du.matrix_bytes(), csr.matrix_bytes());
  EXPECT_LT(vi.matrix_bytes(), csr.matrix_bytes());
  EXPECT_LT(duvi.matrix_bytes(), du.matrix_bytes());
  EXPECT_LT(duvi.matrix_bytes(), vi.matrix_bytes());
}

TEST(SpmvInstance, DimensionChecks) {
  const Triplets t = test::paper_matrix();
  SpmvInstance inst(t, Format::kCsr);
  Vector x(5, 1.0);  // wrong size
  Vector y(6, 0.0);
  EXPECT_THROW(inst.run(x, y), Error);
  Vector x6(6, 1.0);
  Vector y5(5, 0.0);
  EXPECT_THROW(inst.run(x6, y5), Error);
}

TEST(SpmvInstance, Csr16RequiresNarrowMatrix) {
  Triplets t(2, 100000);
  t.add(0, 99999, 1.0);
  t.sort_and_combine();
  EXPECT_THROW(SpmvInstance(t, Format::kCsr16), Error);
}

TEST(SpmvInstance, SlicesAddOnlyTheirRowPointerOrigins) {
  // Each extra slice stores one more row-pointer entry; the value
  // formats' slices share one unique-value table, and a DU slice's
  // first rskip can only shrink.
  Rng rng(58);
  const Triplets t =
      symmetrize(gen_ragged(300, 300, 9, 0.2, rng, ValueModel::pooled(20)));
  InstanceOptions opts;
  opts.pin_threads = false;
  for (const Format f : all_formats()) {
    const usize_t one = SpmvInstance(t, f, 1, opts).matrix_bytes();
    const usize_t four = SpmvInstance(t, f, 4, opts).matrix_bytes();
    if (f == Format::kCsrDu || f == Format::kCsrDuVi) {
      EXPECT_LE(four, one) << format_name(f);
    } else {
      EXPECT_EQ(four, one + 3 * sizeof(index_t)) << format_name(f);
    }
  }
}

TEST(SpmvInstance, EvenPartitionOptionWorks) {
  Rng rng(60);
  const Triplets t = test::random_triplets(400, 400, 6000, rng);
  InstanceOptions opts;
  opts.pin_threads = false;
  opts.balance_by_nnz = false;
  SpmvInstance inst(t, Format::kCsr, 4, opts);
  Rng xr(61);
  const Vector x = random_vector(400, xr);
  Vector y(400, 0.0);
  inst.run(x, y);
  EXPECT_LT(rel_error(test::reference_spmv(t, x), y), kTol);
  EXPECT_EQ(inst.partition().bounds[1], 100u);
}

TEST(SpmvInstanceNuma, PolicyOffForSerialInstances) {
  test::ScopedEnv numa("SPC_NUMA", "local");
  const Triplets t = test::paper_matrix();
  SpmvInstance inst(t, Format::kCsr, 1);
  EXPECT_EQ(inst.numa_policy(), NumaPolicy::kOff);
  EXPECT_TRUE(inst.thread_nodes().empty());
}

TEST(SpmvInstanceNuma, PolicyOffWithoutPinnedWorkers) {
  // A worker's node is unknowable without a pin plan, so placement
  // silently resolves to off rather than guessing.
  test::ScopedEnv numa("SPC_NUMA", "local");
  InstanceOptions opts;
  opts.pin_threads = false;
  const Triplets t = test::paper_matrix();
  SpmvInstance inst(t, Format::kCsr, 2, opts);
  EXPECT_EQ(inst.numa_policy(), NumaPolicy::kOff);
}

TEST(SpmvInstanceNuma, AutoResolvesAgainstTheMachine) {
  test::ScopedEnv numa("SPC_NUMA", "auto");
  const Triplets t = test::paper_matrix();
  SpmvInstance inst(t, Format::kCsr, 2);
  const std::size_t nnodes = discover_topology().num_nodes();
  if (nnodes > 1) {
    EXPECT_EQ(inst.numa_policy(), NumaPolicy::kLocal);
  } else {
    EXPECT_EQ(inst.numa_policy(), NumaPolicy::kOff);
  }
}

TEST(SpmvInstanceNuma, LocalPlacementRunsAndReportsResidency) {
  test::ScopedEnv numa("SPC_NUMA", "local");
  Rng rng(56);
  const Triplets t =
      gen_ragged(400, 400, 12, 0.1, rng, ValueModel::pooled(30));
  Rng xr(57);
  const Vector x = random_vector(t.ncols(), xr);
  const Vector ref = test::reference_spmv(t, x);
  SpmvInstance inst(t, Format::kCsrDuVi, 4);
  EXPECT_EQ(inst.numa_policy(), NumaPolicy::kLocal);
  ASSERT_EQ(inst.thread_nodes().size(), 4u);
  Vector y(t.nrows(), 0.0);
  inst.run(x, y);
  EXPECT_LT(rel_error(ref, y), kTol);
  // Residency is best-effort: available with sampled pages, or a reason.
  const auto res = inst.matrix_residency();
  if (res.available) {
    EXPECT_GT(res.pages_sampled, 0u);
    EXPECT_LE(res.pages_local, res.pages_sampled);
  } else {
    EXPECT_FALSE(res.reason.empty());
  }
}

TEST(SpmvInstanceNuma, ResidencyUnavailableWhenPlacementOff) {
  test::ScopedEnv numa("SPC_NUMA", "off");
  const Triplets t = test::paper_matrix();
  SpmvInstance inst(t, Format::kCsr, 2);
  const auto res = inst.matrix_residency();
  EXPECT_FALSE(res.available);
  EXPECT_FALSE(res.reason.empty());
}

TEST(SpmvInstanceNuma, OptionsPolicyUsedWhenEnvUnset) {
  // InstanceOptions carries the policy; SPC_NUMA (when set) overrides.
  test::ScopedEnv numa("SPC_NUMA", "");
  InstanceOptions opts;
  opts.numa = NumaPolicy::kLocal;
  const Triplets t = test::paper_matrix();
  SpmvInstance inst(t, Format::kCsr, 2, opts);
  EXPECT_EQ(inst.numa_policy(), NumaPolicy::kLocal);
}

// ---- Pool-built instances ------------------------------------------------
//
// Worker t builds slice t, and the value census runs per slice, whether
// the instance owns its pool or borrows one. At the scalar tier the
// row-partitioned formats must reproduce the one-thread instance's bits
// at every thread count; the symmetric formats' pooled runs reassociate
// sums by design and are held to kTol. An owned and a shared pool of one
// size must give the same y, matrix_bytes() and du_histogram().

constexpr std::size_t kPoolSizes[] = {2, 3, 4, 7};

void check_pool_builds(const Triplets& t, const std::string& what) {
  test::ScopedEnv isa("SPC_ISA", "scalar");
  const Triplets ts = test::symmetric_square(t);
  Rng xr(61);
  const Vector x = random_vector(t.ncols(), xr);
  const Vector xs = random_vector(ts.ncols(), xr);
  const Topology topo = discover_topology();
  std::vector<std::shared_ptr<ThreadPool>> pools;
  for (const std::size_t nt : kPoolSizes) {
    pools.push_back(std::make_shared<ThreadPool>(
        nt, plan_placement(topo, nt, Placement::kCloseFirst)));
  }
  for (const Format f : all_formats()) {
    const bool sym = format_requires_symmetry(f);
    const Triplets& m = sym ? ts : t;
    const Vector& xv = sym ? xs : x;
    if (f == Format::kCsr16 && !csr16_applicable(m)) {
      continue;
    }
    const Vector ref = test::reference_spmv(m, xv);
    SpmvInstance one(m, f, 1);
    Vector y1(m.nrows(), std::numeric_limits<double>::quiet_NaN());
    one.run(xv, y1);
    for (const std::shared_ptr<ThreadPool>& pool : pools) {
      const std::size_t nt = pool->size();
      const std::string cell =
          what + " " + format_name(f) + " x" + std::to_string(nt);
      SpmvInstance owned(m, f, nt);
      SpmvInstance shared(m, f, pool);
      Vector yo(m.nrows(), std::numeric_limits<double>::quiet_NaN());
      Vector ys(m.nrows(), std::numeric_limits<double>::quiet_NaN());
      owned.run(xv, yo);
      shared.run(xv, ys);
      if (sym) {
        EXPECT_LT(rel_error(ref, yo), kTol) << cell;
      } else {
        EXPECT_EQ(std::memcmp(yo.data(), y1.data(),
                              y1.size() * sizeof(value_t)),
                  0)
            << cell << " vs 1 thread";
      }
      EXPECT_EQ(std::memcmp(yo.data(), ys.data(),
                            ys.size() * sizeof(value_t)),
                0)
          << cell << " owned vs shared";
      EXPECT_EQ(owned.matrix_bytes(), shared.matrix_bytes()) << cell;
      ASSERT_EQ(owned.du_histogram() == nullptr,
                shared.du_histogram() == nullptr)
          << cell;
      if (owned.du_histogram() != nullptr) {
        EXPECT_EQ(*owned.du_histogram(), *shared.du_histogram()) << cell;
        EXPECT_EQ(*owned.du_histogram(), *one.du_histogram()) << cell;
      }
    }
  }
}

class PoolBuild : public ::testing::TestWithParam<int> {};

TEST_P(PoolBuild, EveryFormatMatchesOneThreadOnOwnedAndSharedPools) {
  check_pool_builds(test::swarm_matrix(GetParam()),
                    "seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Swarm, PoolBuild, ::testing::Range(0, 21));

TEST(PoolBuildEdges, MoreThreadsThanRowsEmptySlicesAndNoNonZeros) {
  Triplets tiny(3, 3);  // nthreads > nrows: some slices hold no rows
  tiny.add(0, 0, 1.5);
  tiny.add(1, 2, -2.0);
  tiny.add(2, 1, 0.25);
  tiny.sort_and_combine();
  check_pool_builds(tiny, "3x3");

  Triplets ends(40, 40);  // the nnz split leaves the middle slices empty
  for (index_t c = 0; c < 40; ++c) {
    ends.add(0, c, 1.0 + c);
    ends.add(39, c, 2.0 - c);
  }
  ends.sort_and_combine();
  check_pool_builds(ends, "first and last rows");

  check_pool_builds(Triplets(12, 9), "nnz 0");
}

// A build on a shared pool runs on the pool's workers, so building from
// one of them would wait for itself: the constructor throws instead, the
// error reaches the outer run(), and the pool stays usable.
TEST(SpmvInstance, SharedPoolBuildFromItsOwnWorkerThrows) {
  const auto pool = std::make_shared<ThreadPool>(3);
  const Triplets t = test::paper_matrix();
  for (const Format f : {Format::kCsr, Format::kCsrVi}) {
    EXPECT_THROW(pool->run([&](std::size_t tid) {
      if (tid == 0) {
        SpmvInstance inst(t, f, pool);
      }
    }),
                 Error)
        << format_name(f);
    SpmvInstance inst(t, f, pool);
    const Vector x(6, 1.0);
    Vector y(6, 0.0);
    inst.run(x, y);
    EXPECT_LT(rel_error(test::reference_spmv(t, x), y), kTol);
  }
}

TEST(SpmvSimple, OneShotHelper) {
  const Triplets t = test::paper_matrix();
  const Vector x(6, 1.0);
  const Vector y = spmv_simple(t, x);
  EXPECT_LT(rel_error(test::reference_spmv(t, x), y), kTol);
}

}  // namespace
}  // namespace spc
