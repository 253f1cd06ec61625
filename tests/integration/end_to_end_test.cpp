// Integration tests exercising the full pipeline:
// generate / read -> analyse -> encode -> partition -> multiply -> solve.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "spc/bench/harness.hpp"
#include "spc/gen/corpus.hpp"
#include "spc/mm/mtx.hpp"
#include "spc/solvers/iterative.hpp"
#include "spc/spmv/instance.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

constexpr double kTol = 1e-12;

TEST(EndToEnd, MtxFileThroughAllFormats) {
  // Write the paper matrix to an .mtx file, read it back, run every
  // format serially and at 4 threads, and compare all results.
  const std::string path = ::testing::TempDir() + "/spc_e2e.mtx";
  write_matrix_market_file(test::paper_matrix(), path);
  const Triplets t = read_matrix_market_file(path);

  Rng rng(1);
  const Vector x = random_vector(t.ncols(), rng);
  const Vector ref = test::reference_spmv(t, x);

  InstanceOptions opts;
  opts.pin_threads = false;
  for (const Format f : all_formats()) {
    if (format_requires_symmetry(f) && !SymCsr::applicable(t)) {
      continue;
    }
    for (const std::size_t threads : {1u, 4u}) {
      SpmvInstance inst(t, f, threads, opts);
      Vector y(t.nrows(), std::numeric_limits<double>::quiet_NaN());
      inst.run(x, y);
      EXPECT_LT(rel_error(ref, y), kTol)
          << format_name(f) << " x" << threads;
    }
  }
}

TEST(EndToEnd, CorpusMatrixThroughCompressedFormatsMatchesCsr) {
  // The headline consistency property on real corpus recipes: CSR-DU and
  // CSR-VI must be bit-for-bit interchangeable with CSR results up to FP
  // associativity (same summation order → exactly equal here). That
  // shared order is a scalar-tier property, so pin the tier; the vector
  // tiers are compared under tolerance in dispatch_fuzz_test.
  test::ScopedEnv isa("SPC_ISA", "scalar");
  for (const char* name : {"lap2d-s", "band-pool-s", "ragged"}) {
    const Triplets t = corpus_spec(name, CorpusScale::kTiny).build();
    Rng rng(2);
    const Vector x = random_vector(t.ncols(), rng);

    SpmvInstance csr(t, Format::kCsr);
    Vector y_csr(t.nrows(), 0.0);
    csr.run(x, y_csr);

    for (const Format f :
         {Format::kCsrDu, Format::kCsrVi, Format::kCsrDuVi}) {
      SpmvInstance inst(t, f);
      Vector y(t.nrows(), 0.0);
      inst.run(x, y);
      // Same accumulation order: results are exactly equal.
      EXPECT_EQ(max_abs_diff(y_csr, y), 0.0)
          << name << " " << format_name(f);
    }
  }
}

TEST(EndToEnd, CompressionRatiosBehaveAsThePaperPredicts) {
  // §II-B: values are 2/3 of col_ind+values; so even perfect index
  // compression caps at ~1/3 savings, while value compression on a
  // VI-friendly matrix can save more.
  const Triplets t = corpus_spec("lap2d-s", CorpusScale::kSmall).build();
  SpmvInstance csr(t, Format::kCsr);
  SpmvInstance du(t, Format::kCsrDu);
  SpmvInstance vi(t, Format::kCsrVi);

  const double du_ratio = static_cast<double>(du.matrix_bytes()) /
                          static_cast<double>(csr.matrix_bytes());
  const double vi_ratio = static_cast<double>(vi.matrix_bytes()) /
                          static_cast<double>(csr.matrix_bytes());
  EXPECT_GT(du_ratio, 2.0 / 3.0);  // index side only
  EXPECT_LT(du_ratio, 1.0);
  EXPECT_LT(vi_ratio, du_ratio);   // 2-unique-value matrix: VI wins big
}

TEST(EndToEnd, CgOnCorpusMatrixWithCompressedOperator) {
  Triplets t = corpus_spec("lap3d-s", CorpusScale::kTiny).build();
  for (index_t i = 0; i < t.nrows(); ++i) {
    t.add(i, i, 1.0);  // make it safely SPD
  }
  t.sort_and_combine();

  Rng rng(3);
  Vector x_true = random_vector(t.nrows(), rng);
  const Vector b = test::reference_spmv(t, x_true);

  InstanceOptions opts;
  opts.pin_threads = false;
  SpmvInstance A(t, Format::kCsrDuVi, 2, opts);
  Vector x(t.nrows(), 0.0);
  const SolveResult r =
      cg([&](const Vector& in, Vector& out) { A.run(in, out); }, b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(max_abs_diff(x, x_true), 1e-6);
}

TEST(EndToEnd, HarnessMeasuresEveryCorpusClass) {
  BenchConfig cfg;
  cfg.scale = CorpusScale::kTiny;
  cfg.iterations = 2;
  cfg.warmup = 0;
  cfg.max_matrices = 4;
  std::size_t measured = 0;
  for_each_matrix(
      cfg,
      [&](MatrixCase& mc) {
        SpmvInstance inst(mc.mat, Format::kCsrDu);
        const double secs = time_spmv(inst, cfg.iterations, cfg.warmup);
        EXPECT_GT(secs, 0.0) << mc.name;
        ++measured;
      },
      /*apply_rejection=*/false);
  EXPECT_EQ(measured, 4u);
}

}  // namespace
}  // namespace spc
