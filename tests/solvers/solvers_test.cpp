#include "spc/solvers/iterative.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "spc/gen/generators.hpp"
#include "spc/spmv/instance.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

LinOp op_of(SpmvInstance& inst) {
  return [&inst](const Vector& x, Vector& y) { inst.run(x, y); };
}

Vector make_rhs(const Triplets& t, std::uint64_t seed) {
  // b = A * x_true so the solution is known.
  Rng rng(seed);
  Vector x_true = random_vector(t.nrows(), rng);
  return test::reference_spmv(t, x_true);
}

TEST(Blas1, DotAndNorm) {
  Vector a = {1.0, 2.0, 3.0};
  Vector b = {4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 12.0);
  EXPECT_DOUBLE_EQ(norm2({3.0, 4.0}), 5.0);
}

TEST(Blas1, AxpyAndXpby) {
  Vector x = {1.0, 2.0};
  Vector y = {10.0, 20.0};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
  xpby(x, 0.5, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 14.0);
}

TEST(Cg, SolvesLaplacian) {
  const Triplets t = gen_laplacian_2d(20, 20);
  // Laplacian with Neumann-ish rows is singular on constants; shift it.
  Triplets shifted = t;
  for (index_t i = 0; i < t.nrows(); ++i) {
    shifted.add(i, i, 0.5);
  }
  shifted.sort_and_combine();
  SpmvInstance A(shifted, Format::kCsr);
  const Vector b = make_rhs(shifted, 1);
  Vector x(shifted.nrows(), 0.0);
  const SolveResult r = cg(op_of(A), b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.residual_norm, 1e-8 * norm2(b) + 1e-20);
  // Verify against the operator directly.
  Vector Ax(shifted.nrows(), 0.0);
  A.run(x, Ax);
  EXPECT_LT(max_abs_diff(Ax, b), 1e-6);
}

TEST(Cg, WorksWithCompressedFormats) {
  const Triplets t = gen_laplacian_2d(16, 16);
  Triplets shifted = t;
  for (index_t i = 0; i < t.nrows(); ++i) {
    shifted.add(i, i, 1.0);
  }
  shifted.sort_and_combine();
  const Vector b = make_rhs(shifted, 2);

  for (const Format f : {Format::kCsrDu, Format::kCsrVi,
                         Format::kCsrDuVi}) {
    SpmvInstance A(shifted, f);
    Vector x(shifted.nrows(), 0.0);
    const SolveResult r = cg(op_of(A), b, x);
    EXPECT_TRUE(r.converged) << format_name(f);
  }
}

TEST(Cg, MultithreadedOperator) {
  const Triplets t = gen_laplacian_2d(24, 24);
  Triplets shifted = t;
  for (index_t i = 0; i < t.nrows(); ++i) {
    shifted.add(i, i, 0.75);
  }
  shifted.sort_and_combine();
  InstanceOptions opts;
  opts.pin_threads = false;
  SpmvInstance A(shifted, Format::kCsrDu, 4, opts);
  const Vector b = make_rhs(shifted, 3);
  Vector x(shifted.nrows(), 0.0);
  EXPECT_TRUE(cg(op_of(A), b, x).converged);
}

TEST(Cg, ImmediateConvergenceOnZeroRhs) {
  const Triplets t = test::paper_matrix();
  SpmvInstance A(t, Format::kCsr);
  const Vector b(6, 0.0);
  Vector x(6, 0.0);
  const SolveResult r = cg(op_of(A), b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0u);
}

TEST(Cg, ReportsNonConvergence) {
  const Triplets t = gen_laplacian_2d(30, 30);
  SpmvInstance A(t, Format::kCsr);
  Vector b(t.nrows(), 1.0);
  Vector x(t.nrows(), 0.0);
  SolverOptions opts;
  opts.max_iterations = 2;  // way too few
  const SolveResult r = cg(op_of(A), b, x, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 2u);
}

TEST(BiCgStab, SolvesNonsymmetricSystem) {
  // Diagonally dominant nonsymmetric matrix.
  Rng rng(9);
  Triplets t(150, 150);
  for (index_t i = 0; i < 150; ++i) {
    t.add(i, i, 10.0 + rng.next_double());
    t.add(i, (i + 1) % 150, -1.0 + 0.1 * rng.next_double());
    t.add(i, (i * 7 + 3) % 150, 0.5 * rng.next_double());
  }
  t.sort_and_combine();
  SpmvInstance A(t, Format::kCsr);
  const Vector b = make_rhs(t, 10);
  Vector x(150, 0.0);
  const SolveResult r = bicgstab(op_of(A), b, x);
  EXPECT_TRUE(r.converged);
  Vector Ax(150, 0.0);
  A.run(x, Ax);
  EXPECT_LT(max_abs_diff(Ax, b), 1e-6);
}

TEST(Gmres, SolvesNonsymmetricSystem) {
  Rng rng(21);
  Triplets t(200, 200);
  for (index_t i = 0; i < 200; ++i) {
    t.add(i, i, 8.0 + rng.next_double());
    t.add(i, (i + 1) % 200, -1.5);
    t.add(i, (i * 13 + 7) % 200, 0.7 * rng.next_double());
  }
  t.sort_and_combine();
  SpmvInstance A(t, Format::kCsr);
  const Vector b = make_rhs(t, 22);
  Vector x(200, 0.0);
  const SolveResult r = gmres(op_of(A), b, x);
  EXPECT_TRUE(r.converged);
  Vector Ax(200, 0.0);
  A.run(x, Ax);
  EXPECT_LT(max_abs_diff(Ax, b), 1e-6);
}

TEST(Gmres, RestartSmallerThanKrylovNeedStillConverges) {
  const Triplets t = gen_laplacian_2d(12, 12);
  SpmvInstance A(t, Format::kCsrDu);
  const Vector b = make_rhs(t, 23);
  Vector x(t.nrows(), 0.0);
  SolverOptions opts;
  opts.max_iterations = 5000;
  const SolveResult r = gmres(op_of(A), b, x, opts, /*restart=*/5);
  EXPECT_TRUE(r.converged);
}

TEST(Gmres, AgreesWithCgOnSpdSystem) {
  const Triplets t = gen_laplacian_2d(10, 10);
  SpmvInstance A(t, Format::kCsr);
  const Vector b = make_rhs(t, 24);
  Vector xg(t.nrows(), 0.0), xc(t.nrows(), 0.0);
  EXPECT_TRUE(gmres(op_of(A), b, xg).converged);
  EXPECT_TRUE(cg(op_of(A), b, xc).converged);
  EXPECT_LT(max_abs_diff(xg, xc), 1e-6);
}

TEST(Gmres, ImmediateConvergenceOnZeroRhs) {
  SpmvInstance A(test::paper_matrix(), Format::kCsr);
  const Vector b(6, 0.0);
  Vector x(6, 0.0);
  const SolveResult r = gmres(op_of(A), b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0u);
}

TEST(Gmres, ReportsNonConvergence) {
  const Triplets t = gen_laplacian_2d(30, 30);
  SpmvInstance A(t, Format::kCsr);
  Vector b(t.nrows(), 1.0);
  Vector x(t.nrows(), 0.0);
  SolverOptions opts;
  opts.max_iterations = 3;
  const SolveResult r = gmres(op_of(A), b, x, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 3u);
}

TEST(Gmres, RejectsZeroRestart) {
  SpmvInstance A(test::paper_matrix(), Format::kCsr);
  Vector b(6, 1.0), x(6, 0.0);
  EXPECT_THROW(gmres(op_of(A), b, x, SolverOptions{}, 0), Error);
}

TEST(Jacobi, ConvergesOnDiagonallyDominantSystem) {
  Rng rng(11);
  Triplets t(100, 100);
  Vector diag(100);
  for (index_t i = 0; i < 100; ++i) {
    diag[i] = 5.0;
    t.add(i, i, diag[i]);
    t.add(i, (i + 3) % 100, 1.0);
    t.add(i, (i + 61) % 100, -0.5);
  }
  t.sort_and_combine();
  SpmvInstance A(t, Format::kCsr);
  const Vector b = make_rhs(t, 12);
  Vector x(100, 0.0);
  SolverOptions opts;
  opts.max_iterations = 500;
  opts.rel_tolerance = 1e-9;
  const SolveResult r = jacobi(op_of(A), diag, b, x, opts);
  EXPECT_TRUE(r.converged);
}

TEST(Jacobi, RejectsZeroDiagonal) {
  SpmvInstance A(test::paper_matrix(), Format::kCsr);
  Vector diag(6, 0.0);
  Vector b(6, 1.0), x(6, 0.0);
  EXPECT_THROW(jacobi(op_of(A), diag, b, x), Error);
}

Vector diag_of(const Triplets& t) {
  Vector d(t.nrows(), 0.0);
  for (const Entry& e : t.entries()) {
    if (e.row == e.col) {
      d[e.row] = e.val;
    }
  }
  return d;
}

TEST(PcgJacobi, BeatsPlainCgOnBadlyScaledSystem) {
  // Scale each row/col of an SPD laplacian by wildly varying factors:
  // Jacobi preconditioning should cut the iteration count sharply.
  const Triplets lap = gen_laplacian_2d(20, 20);
  Rng rng(31);
  Vector s(lap.nrows());
  for (auto& v : s) {
    v = std::pow(10.0, rng.next_double(-2.0, 2.0));
  }
  Triplets scaled(lap.nrows(), lap.ncols());
  for (const Entry& e : lap.entries()) {
    scaled.add(e.row, e.col, s[e.row] * e.val * s[e.col]);
  }
  scaled.sort_and_combine();

  SpmvInstance A(scaled, Format::kCsr);
  const Vector b = make_rhs(scaled, 32);
  const Vector d = diag_of(scaled);

  SolverOptions opts;
  opts.max_iterations = 5000;
  opts.rel_tolerance = 1e-10;

  Vector x1(scaled.nrows(), 0.0), x2(scaled.nrows(), 0.0);
  const SolveResult plain = cg(op_of(A), b, x1, opts);
  const SolveResult pre = pcg_jacobi(op_of(A), d, b, x2, opts);
  EXPECT_TRUE(pre.converged);
  if (plain.converged) {
    EXPECT_LT(pre.iterations, plain.iterations);
  }
}

TEST(PcgJacobi, IdentityPreconditionerMatchesCg) {
  // With a unit diagonal the preconditioner is the identity: iteration
  // counts must match plain CG exactly.
  Rng rng(33);
  Triplets t(80, 80);
  for (index_t i = 0; i < 80; ++i) {
    t.add(i, i, 1.0);
    if (i + 1 < 80) {
      t.add(i, i + 1, -0.2);
      t.add(i + 1, i, -0.2);
    }
  }
  t.sort_and_combine();
  SpmvInstance A(t, Format::kCsr);
  const Vector b = make_rhs(t, 34);
  const Vector ones(80, 1.0);
  Vector x1(80, 0.0), x2(80, 0.0);
  const SolveResult a = cg(op_of(A), b, x1);
  const SolveResult p = pcg_jacobi(op_of(A), ones, b, x2);
  EXPECT_TRUE(a.converged);
  EXPECT_TRUE(p.converged);
  EXPECT_EQ(a.iterations, p.iterations);
  EXPECT_LT(max_abs_diff(x1, x2), 1e-10);
}

TEST(PcgJacobi, RejectsZeroDiagonal) {
  SpmvInstance A(test::paper_matrix(), Format::kCsr);
  Vector d(6, 0.0), b(6, 1.0), x(6, 0.0);
  EXPECT_THROW(pcg_jacobi(op_of(A), d, b, x), Error);
}

TEST(Solvers, AllFormatsGiveSameCgSolution) {
  const Triplets t = gen_laplacian_2d(12, 12);
  Triplets shifted = t;
  for (index_t i = 0; i < t.nrows(); ++i) {
    shifted.add(i, i, 2.0);
  }
  shifted.sort_and_combine();
  const Vector b = make_rhs(shifted, 13);

  Vector x_ref(shifted.nrows(), 0.0);
  SpmvInstance ref(shifted, Format::kCsr);
  cg(op_of(ref), b, x_ref);

  for (const Format f : {Format::kCsr16, Format::kCsrDu, Format::kCsrVi,
                         Format::kCsrDuVi}) {
    SpmvInstance A(shifted, f);
    Vector x(shifted.nrows(), 0.0);
    cg(op_of(A), b, x);
    EXPECT_LT(max_abs_diff(x, x_ref), 1e-7) << format_name(f);
  }
}

}  // namespace
}  // namespace spc
