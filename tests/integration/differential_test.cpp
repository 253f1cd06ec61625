// Differential testing: for a swarm of random matrices, every format and
// every thread count must produce results *bit-identical* to serial CSR
// (all kernels accumulate per row in the same element order), and every
// round-trippable format must reproduce the exact triplets. This is the
// library's strongest global invariant.
#include <gtest/gtest.h>

#include <limits>

#include "spc/formats/dcsr.hpp"
#include "spc/gen/generators.hpp"
#include "spc/spmv/instance.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

Triplets swarm_matrix(int seed) {
  Rng rng(2000 + seed);
  switch (seed % 5) {
    case 0:
      return test::random_triplets(
          1 + static_cast<index_t>(rng.next_below(400)),
          1 + static_cast<index_t>(rng.next_below(400)),
          rng.next_below(6000), rng,
          static_cast<std::uint32_t>(rng.next_below(100)));
    case 1:
      return gen_ragged(1 + static_cast<index_t>(rng.next_below(300)),
                        1 + static_cast<index_t>(rng.next_below(300)),
                        1 + static_cast<index_t>(rng.next_below(20)),
                        0.3 * rng.next_double(), rng,
                        ValueModel::pooled(16));
    case 2:
      return gen_banded(32 + static_cast<index_t>(rng.next_below(400)),
                        1 + static_cast<index_t>(rng.next_below(60)),
                        1 + static_cast<index_t>(rng.next_below(12)), rng,
                        ValueModel::random());
    case 3:
      return gen_rmat(7 + static_cast<std::uint32_t>(rng.next_below(3)),
                      500 + rng.next_below(4000), rng,
                      ValueModel::pooled(8));
    default:
      return gen_fem_blocks(
          4 + static_cast<index_t>(rng.next_below(40)),
          1 + static_cast<index_t>(rng.next_below(4)),
          1 + static_cast<index_t>(rng.next_below(6)), rng,
          ValueModel::random());
  }
}

class Differential : public ::testing::TestWithParam<int> {};

TEST_P(Differential, AllFormatsBitIdenticalToSerialCsr) {
  // Bit-exactness is a scalar-tier property: the vector tiers
  // reassociate lane partial sums (covered by dispatch_fuzz_test with a
  // relative-error bound instead).
  test::ScopedEnv isa("SPC_ISA", "scalar");
  const Triplets t = swarm_matrix(GetParam());
  if (t.nnz() == 0) {
    GTEST_SKIP() << "degenerate draw";
  }
  Rng xr(3000 + GetParam());
  const Vector x = random_vector(t.ncols(), xr);

  SpmvInstance ref(t, Format::kCsr, 1);
  Vector y_ref(t.nrows(), 0.0);
  ref.run(x, y_ref);

  InstanceOptions opts;
  opts.pin_threads = false;
  for (const Format f : all_formats()) {
    if (f == Format::kCsr16 && !csr16_applicable(t)) {
      continue;
    }
    if (format_requires_symmetry(f) && !SymCsr::applicable(t)) {
      continue;  // random draws are almost never symmetric
    }
    for (const std::size_t threads : {1u, 3u, 8u}) {
      SpmvInstance inst(t, f, threads, opts);
      Vector y(t.nrows(),
               std::numeric_limits<double>::quiet_NaN());
      inst.run(x, y);
      // Row-major per-row accumulation order is shared by all row-based
      // kernels: results must be exactly equal. BCSR and ELL regroup, so
      // they are held to a tight tolerance instead.
      const bool exact =
          f == Format::kCsr || f == Format::kCsr16 ||
          f == Format::kCsrDu || f == Format::kCsrVi ||
          f == Format::kCsrDuVi;
      if (exact) {
        EXPECT_EQ(max_abs_diff(y_ref, y), 0.0)
            << format_name(f) << " x" << threads << " seed "
            << GetParam();
      } else {
        EXPECT_LT(rel_error(y_ref, y), 1e-12)
            << format_name(f) << " x" << threads << " seed "
            << GetParam();
      }
    }
  }
}

TEST_P(Differential, CompressedFormatsRoundTripExactly) {
  const Triplets t = swarm_matrix(GetParam());
  test::expect_triplets_eq(t, CsrDu::from_triplets(t).to_triplets());
  test::expect_triplets_eq(t, CsrVi::from_triplets(t).to_triplets());
  test::expect_triplets_eq(t, CsrDuVi::from_triplets(t).to_triplets());
  test::expect_triplets_eq(t, Dcsr::from_triplets(t).to_triplets());
  test::expect_triplets_eq(t, Csr::from_triplets(t).to_triplets());
}

INSTANTIATE_TEST_SUITE_P(Swarm, Differential, ::testing::Range(0, 25));

}  // namespace
}  // namespace spc
