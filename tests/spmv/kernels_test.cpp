#include "spc/spmv/kernels.hpp"

#include <gtest/gtest.h>

#include "spc/gen/generators.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

constexpr double kTol = 1e-12;

Vector random_x(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  return random_vector(n, rng, -1.0, 1.0);
}

TEST(Kernels, CsrMatchesReferenceOnPaperMatrix) {
  const Triplets t = test::paper_matrix();
  const Csr m = Csr::from_triplets(t);
  const Vector x = random_x(6, 1);
  const Vector ref = test::reference_spmv(t, x);
  Vector y(6, -7.0);
  spmv(m, x.data(), y.data());
  EXPECT_LT(rel_error(ref, y), kTol);
}

TEST(Kernels, CsrRangeComputesOnlyItsRows) {
  const Triplets t = test::paper_matrix();
  const Csr m = Csr::from_triplets(t);
  const Vector x = random_x(6, 2);
  const Vector ref = test::reference_spmv(t, x);
  Vector y(6, -7.0);
  spmv_csr_range(m, x.data(), y.data(), 2, 5);
  for (index_t i = 0; i < 6; ++i) {
    if (i >= 2 && i < 5) {
      EXPECT_NEAR(y[i], ref[i], kTol);
    } else {
      EXPECT_DOUBLE_EQ(y[i], -7.0);  // untouched outside the range
    }
  }
}

// Every format's serial kernel must agree with the dense reference on the
// same generated matrix.
struct KernelCase {
  const char* name;
  int matrix_kind;  // index into the generator list below
};

Triplets make_matrix(int kind) {
  Rng rng(7777 + kind);
  switch (kind) {
    case 0:
      return test::paper_matrix();
    case 1:
      return gen_laplacian_2d(17, 23);
    case 2:
      return gen_random_uniform(200, 5000, 7, rng, ValueModel::random());
    case 3:
      return gen_banded(500, 20, 6, rng, ValueModel::pooled(12));
    case 4:
      return gen_ragged(300, 300, 15, 0.2, rng, ValueModel::random());
    case 5:
      return gen_fem_blocks(40, 3, 4, rng, ValueModel::pooled(64));
    case 6:
      return gen_rmat(8, 2500, rng, ValueModel::random());
    default:
      return test::paper_matrix();
  }
}

class KernelAgreement : public ::testing::TestWithParam<int> {};

TEST_P(KernelAgreement, AllFormatsMatchReference) {
  const Triplets t = make_matrix(GetParam());
  const Vector x = random_x(t.ncols(), 31 + GetParam());
  const Vector ref = test::reference_spmv(t, x);
  const auto check = [&](const char* what, auto&& run) {
    Vector y(t.nrows(), std::numeric_limits<double>::quiet_NaN());
    run(y);
    EXPECT_LT(rel_error(ref, y), kTol)
        << what << " on matrix kind " << GetParam();
  };

  const Csr csr = Csr::from_triplets(t);
  check("csr", [&](Vector& y) { spmv(csr, x.data(), y.data()); });

  if (csr16_applicable(t)) {
    const Csr16 c16 = Csr16::from_triplets(t);
    check("csr16", [&](Vector& y) { spmv(c16, x.data(), y.data()); });
  }

  const Coo coo = Coo::from_triplets(t);
  check("coo", [&](Vector& y) { spmv(coo, x.data(), y.data()); });

  const Csc csc = Csc::from_triplets(t);
  check("csc", [&](Vector& y) { spmv(csc, x.data(), y.data()); });

  for (const index_t b : {1u, 2u, 3u}) {
    const Bcsr bcsr = Bcsr::from_triplets(t, b, b);
    check("bcsr", [&](Vector& y) { spmv(bcsr, x.data(), y.data()); });
  }

  const Ell ell = Ell::from_triplets(t);
  check("ell", [&](Vector& y) { spmv(ell, x.data(), y.data()); });

  const Dia dia = Dia::from_triplets(t);
  check("dia", [&](Vector& y) { spmv(dia, x.data(), y.data()); });

  const Jds jds = Jds::from_triplets(t);
  check("jds", [&](Vector& y) { spmv(jds, x.data(), y.data()); });

  const CsrDu du = CsrDu::from_triplets(t);
  check("csr-du", [&](Vector& y) { spmv(du, x.data(), y.data()); });

  const CsrVi vi = CsrVi::from_triplets(t);
  check("csr-vi", [&](Vector& y) { spmv(vi, x.data(), y.data()); });

  const CsrDuVi duvi = CsrDuVi::from_triplets(t);
  check("csr-du-vi", [&](Vector& y) { spmv(duvi, x.data(), y.data()); });

  const Dcsr dcsr = Dcsr::from_triplets(t);
  check("dcsr", [&](Vector& y) { spmv(dcsr, x.data(), y.data()); });
}

INSTANTIATE_TEST_SUITE_P(MatrixKinds, KernelAgreement,
                         ::testing::Range(0, 7));

TEST(Kernels, PrefetchVariantMatchesPlainCsr) {
  Rng rng(8);
  const Triplets t = gen_random_uniform(500, 20000, 9, rng,
                                        ValueModel::random());
  const Csr m = Csr::from_triplets(t);
  const Vector x = random_x(t.ncols(), 9);
  Vector y_plain(t.nrows(), 0.0), y_pf(t.nrows(), 0.0);
  spmv(m, x.data(), y_plain.data());
  spmv_csr_prefetch_range<std::uint32_t, 16>(m, x.data(), y_pf.data(), 0,
                                             t.nrows());
  EXPECT_EQ(max_abs_diff(y_plain, y_pf), 0.0);  // identical arithmetic
  // Large prefetch distance near the end of the stream must stay safe.
  Vector y_pf64(t.nrows(), 0.0);
  spmv_csr_prefetch_range<std::uint32_t, 64>(m, x.data(), y_pf64.data(),
                                             0, t.nrows());
  EXPECT_EQ(max_abs_diff(y_plain, y_pf64), 0.0);
}

TEST(Kernels, CsrDuSliceKernelsComposeToFullResult) {
  Rng rng(9);
  const Triplets t = gen_ragged(400, 400, 12, 0.15, rng,
                                ValueModel::random());
  const CsrDu du = CsrDu::from_triplets(t);
  const Vector x = random_x(400, 10);
  const Vector ref = test::reference_spmv(t, x);

  for (const index_t cut : {1u, 57u, 200u, 399u}) {
    Vector y(400, std::numeric_limits<double>::quiet_NaN());
    spmv(du.slice(0, cut), x.data(), y.data());
    spmv(du.slice(cut, 400), x.data(), y.data());
    EXPECT_LT(rel_error(ref, y), kTol) << "cut at " << cut;
  }
}

TEST(Kernels, DcsrSliceKernelsComposeToFullResult) {
  Rng rng(12);
  const Triplets t = gen_ragged(300, 300, 10, 0.3, rng,
                                ValueModel::random());
  const Dcsr dc = Dcsr::from_triplets(t);
  const Vector x = random_x(300, 13);
  const Vector ref = test::reference_spmv(t, x);
  for (const index_t cut : {1u, 99u, 150u, 299u}) {
    Vector y(300, std::numeric_limits<double>::quiet_NaN());
    spmv(dc.slice(0, cut), x.data(), y.data());
    spmv(dc.slice(cut, 300), x.data(), y.data());
    EXPECT_LT(rel_error(ref, y), kTol) << "cut at " << cut;
  }
}

TEST(Kernels, DuViSliceKernelsComposeToFullResult) {
  Rng rng(14);
  const Triplets t =
      gen_banded(350, 25, 8, rng, ValueModel::pooled(20));
  const CsrDuVi m = CsrDuVi::from_triplets(t);
  const Vector x = random_x(350, 15);
  const Vector ref = test::reference_spmv(t, x);
  for (const index_t cut : {100u, 175u, 349u}) {
    Vector y(350, std::numeric_limits<double>::quiet_NaN());
    spmv(m, m.du().slice(0, cut), x.data(), y.data());
    spmv(m, m.du().slice(cut, 350), x.data(), y.data());
    EXPECT_LT(rel_error(ref, y), kTol) << "cut at " << cut;
  }
}

TEST(Kernels, EmptyRowsProduceZeroEntries) {
  Triplets t(8, 8);
  t.add(1, 1, 3.0);
  t.add(6, 2, 4.0);
  t.sort_and_combine();
  const Vector x(8, 1.0);
  const CsrDu du = CsrDu::from_triplets(t);
  Vector y(8, std::numeric_limits<double>::quiet_NaN());
  spmv(du, x.data(), y.data());
  const Vector ref = test::reference_spmv(t, x);
  for (index_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(y[i], ref[i]) << i;
  }
}

TEST(Kernels, ZeroMatrixYieldsZeroVector) {
  Triplets t(5, 5);
  const Vector x(5, 2.0);
  const CsrDu du = CsrDu::from_triplets(t);
  Vector y(5, 9.0);
  spmv(du, x.data(), y.data());
  for (const double v : y) {
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

}  // namespace
}  // namespace spc
