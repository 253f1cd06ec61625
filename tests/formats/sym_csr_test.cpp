#include "spc/formats/sym_csr.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "spc/formats/csr.hpp"
#include "spc/gen/generators.hpp"
#include "spc/spmv/instance.hpp"
#include "spc/spmv/kernels.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

constexpr double kTol = 1e-12;

// Random symmetric matrix with a full non-zero diagonal.
Triplets random_symmetric(index_t n, usize_t offdiag_pairs,
                          std::uint64_t seed) {
  Rng rng(seed);
  Triplets t(n, n);
  for (index_t i = 0; i < n; ++i) {
    t.add(i, i, 2.0 + rng.next_double());
  }
  for (usize_t k = 0; k < offdiag_pairs; ++k) {
    const auto r = static_cast<index_t>(rng.next_below(n));
    const auto c = static_cast<index_t>(rng.next_below(n));
    if (r == c) {
      continue;
    }
    const value_t v = rng.next_double(-1.0, 1.0);
    t.add(r, c, v);
    t.add(c, r, v);
  }
  t.sort_and_dedup_keep_first();
  // keep-first may break symmetry when duplicate draws collide; re-sym.
  Triplets sym(n, n);
  std::map<std::pair<index_t, index_t>, value_t> seen;
  for (const Entry& e : t.entries()) {
    if (e.row <= e.col) {
      seen[{e.row, e.col}] = e.val;
    }
  }
  for (const auto& [rc, v] : seen) {
    sym.add(rc.first, rc.second, v);
    if (rc.first != rc.second) {
      sym.add(rc.second, rc.first, v);
    }
  }
  sym.sort_and_combine();
  return sym;
}

TEST(SymCsr, ApplicabilityDetection) {
  EXPECT_TRUE(SymCsr::applicable(gen_laplacian_2d(8, 8)));
  EXPECT_FALSE(SymCsr::applicable(test::paper_matrix()));
  Triplets rect(2, 3);
  EXPECT_FALSE(SymCsr::applicable(rect));
}

TEST(SymCsr, RejectsAsymmetricMatrix) {
  EXPECT_THROW(SymCsr::from_triplets(test::paper_matrix()),
               InvalidArgument);
}

TEST(SymCsr, RoundTripLaplacian) {
  const Triplets t = gen_laplacian_2d(12, 9);
  test::expect_triplets_eq(t, SymCsr::from_triplets(t).to_triplets());
}

TEST(SymCsr, HalvesStorageVsCsr) {
  const Triplets t = gen_laplacian_2d(40, 40);
  const SymCsr sym = SymCsr::from_triplets(t);
  const Csr csr = Csr::from_triplets(t);
  // Lower triangle + diagonal ≈ half the entries of the full matrix.
  EXPECT_LT(sym.bytes(), csr.bytes() * 6 / 10);
  EXPECT_EQ(sym.nnz(), t.nnz());
}

TEST(SymCsr, SerialKernelMatchesReference) {
  const Triplets t = random_symmetric(300, 1500, 7);
  Rng xr(8);
  const Vector x = random_vector(300, xr);
  const Vector ref = test::reference_spmv(t, x);
  const SymCsr m = SymCsr::from_triplets(t);
  Vector y(300, -1.0);
  spmv(m, x.data(), y.data());
  EXPECT_LT(rel_error(ref, y), kTol);
}

// Pooled runs of the symmetric formats go through SpmvInstance's
// scatter/reduce phases (conflict windows or private y).
class SymInstanceMt
    : public ::testing::TestWithParam<std::tuple<Format, std::size_t>> {};

TEST_P(SymInstanceMt, MatchesReferenceAcrossThreadCounts) {
  const auto [format, threads] = GetParam();
  const Triplets t = random_symmetric(400, 2500, 11);
  Rng xr(12);
  const Vector x = random_vector(400, xr);
  const Vector ref = test::reference_spmv(t, x);
  InstanceOptions opts;
  opts.pin_threads = false;
  SpmvInstance inst(t, format, threads, opts);
  Vector y(400, 0.0);
  inst.run(x, y);
  EXPECT_LT(rel_error(ref, y), kTol);
  // Stability across repeated runs (window/scratch re-zeroing).
  Vector y2(400, 5.0);
  inst.run(x, y2);
  EXPECT_EQ(max_abs_diff(y, y2), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadCounts, SymInstanceMt,
    ::testing::Combine(::testing::Values(Format::kSymCsr,
                                         Format::kSymCsrVi),
                       ::testing::Values(1, 2, 3, 4, 8)));

TEST(SymInstance, PinnedIsBitIdenticalToUnpinned) {
  // The slices (rows, diagonal) hold the same bytes on pinned and
  // unpinned pools and every phase runs in the same order, so recording
  // the workers' nodes must not change a single bit — in either
  // reduction mode.
  test::ScopedEnv isa("SPC_ISA", "scalar");
  test::ScopedEnv red("SPC_SYM_REDUCE", "");  // opts decide, not the env
  test::ScopedEnv sch("SPC_SCHED", "");
  const Triplets t = random_symmetric(500, 4000, 17);
  Rng xr(18);
  const Vector x = random_vector(500, xr);

  for (const Format f : {Format::kSymCsr, Format::kSymCsrVi}) {
    for (const SymReduce reduce : {SymReduce::kWindow, SymReduce::kPrivate}) {
      InstanceOptions opts;
      opts.sym_reduce = reduce;
      const std::string cell = format_name(f) + " " + sym_reduce_name(reduce);
      opts.pin_threads = false;
      SpmvInstance unpinned(t, f, 4, opts);
      ASSERT_TRUE(unpinned.thread_nodes().empty()) << cell;
      ASSERT_EQ(unpinned.sym_reduce(), reduce) << cell;
      Vector y_unpinned(500, 0.0);
      unpinned.run(x, y_unpinned);
      EXPECT_LT(rel_error(test::reference_spmv(t, x), y_unpinned), kTol)
          << cell;
      opts.pin_threads = true;
      SpmvInstance pinned(t, f, 4, opts);
      EXPECT_EQ(pinned.thread_nodes().size(), 4u) << cell;
      for (int run = 0; run < 2; ++run) {
        Vector y(500, -1.0);
        pinned.run(x, y);
        EXPECT_EQ(max_abs_diff(y_unpinned, y), 0.0) << cell << " run " << run;
      }
    }
  }
}

TEST(SymInstance, WorksInsideCg) {
  // The symmetric format inside CG — the §III-C use case end-to-end.
  const Triplets t = gen_laplacian_2d(16, 16);
  InstanceOptions opts;
  opts.pin_threads = false;
  for (const Format f : {Format::kSymCsr, Format::kSymCsrVi}) {
    SpmvInstance A(t, f, 2, opts);
    Rng rng(13);
    Vector x_true = random_vector(t.nrows(), rng);
    const Vector b = test::reference_spmv(t, x_true);
    // Minimal CG inline via the solver API is tested elsewhere; here just
    // validate repeated operator application drifts nowhere.
    Vector y1(t.nrows(), 0.0), y2(t.nrows(), 0.0);
    A.run(b, y1);
    for (int i = 0; i < 10; ++i) {
      A.run(b, y2);
    }
    EXPECT_EQ(max_abs_diff(y1, y2), 0.0) << format_name(f);
  }
}

TEST(SymCsr, EmptyAndDiagonalOnly) {
  Triplets diag_only(5, 5);
  for (index_t i = 0; i < 5; ++i) {
    diag_only.add(i, i, static_cast<value_t>(i + 1));
  }
  diag_only.sort_and_combine();
  const SymCsr m = SymCsr::from_triplets(diag_only);
  EXPECT_EQ(m.values().size(), 0u);
  test::expect_triplets_eq(diag_only, m.to_triplets());
}

}  // namespace
}  // namespace spc
