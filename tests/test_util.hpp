// Shared helpers for the spc test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "spc/gen/generators.hpp"
#include "spc/mm/ops.hpp"
#include "spc/mm/triplets.hpp"
#include "spc/mm/vector.hpp"
#include "spc/support/rng.hpp"

namespace spc::test {

/// RAII environment-variable override (restores the prior value). Tests
/// that assert bit-exact cross-format equality pin SPC_ISA=scalar with
/// this: the scalar tier keeps the shared per-row accumulation order,
/// while vector tiers reassociate lane sums.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

/// The paper's 6×6 example matrix (Fig 1). Golden data for CSR, CSR-DU
/// (Table I) and CSR-VI (Fig 4) layouts.
inline Triplets paper_matrix() {
  Triplets t(6, 6);
  t.add(0, 0, 5.4);
  t.add(0, 1, 1.1);
  t.add(1, 1, 6.3);
  t.add(1, 3, 7.7);
  t.add(1, 5, 8.8);
  t.add(2, 2, 1.1);
  t.add(3, 2, 2.9);
  t.add(3, 4, 3.7);
  t.add(3, 5, 2.9);
  t.add(4, 0, 9.0);
  t.add(4, 3, 1.1);
  t.add(4, 4, 4.5);
  t.add(5, 0, 1.1);
  t.add(5, 2, 2.9);
  t.add(5, 3, 3.7);
  t.add(5, 5, 1.1);
  t.sort_and_combine();
  return t;
}

/// Dense reference SpMV: straightforward O(nnz) accumulation.
inline Vector reference_spmv(const Triplets& t, const Vector& x) {
  Vector y(t.nrows(), 0.0);
  for (const Entry& e : t.entries()) {
    y[e.row] += e.val * x[e.col];
  }
  return y;
}

/// Random sparse triplets with `nnz_target` draws (duplicates combined).
inline Triplets random_triplets(index_t nrows, index_t ncols,
                                usize_t nnz_target, Rng& rng,
                                std::uint32_t value_pool = 0) {
  Triplets t(nrows, ncols);
  std::vector<value_t> pool;
  for (std::uint32_t i = 0; i < value_pool; ++i) {
    pool.push_back(rng.next_double(-2.0, 2.0));
  }
  for (usize_t k = 0; k < nnz_target; ++k) {
    const auto r = static_cast<index_t>(rng.next_below(nrows));
    const auto c = static_cast<index_t>(rng.next_below(ncols));
    const value_t v = pool.empty()
                          ? rng.next_double(-2.0, 2.0)
                          : pool[rng.next_below(pool.size())];
    t.add(r, c, v);
  }
  t.sort_and_combine();
  return t;
}

/// The fuzz suites' swarm (seeds 0..20): deterministic draws spanning
/// the structures the kernels and encoders specialize on: dense-ish rows
/// (contiguous AVX loads), banded (constant strides), ragged
/// (unit-length tails), rmat (irregular gathers), pooled values (small
/// VI tables), long dense rows, plus degenerate shapes.
inline Triplets swarm_matrix(int seed) {
  Rng rng(7000 + seed);
  switch (seed % 7) {
    case 0:
      return random_triplets(
          1 + static_cast<index_t>(rng.next_below(300)),
          1 + static_cast<index_t>(rng.next_below(300)),
          rng.next_below(5000), rng,
          static_cast<std::uint32_t>(rng.next_below(200)));
    case 1:
      return gen_ragged(1 + static_cast<index_t>(rng.next_below(250)),
                        1 + static_cast<index_t>(rng.next_below(250)),
                        1 + static_cast<index_t>(rng.next_below(30)),
                        0.4 * rng.next_double(), rng,
                        ValueModel::pooled(12));
    case 2:
      return gen_banded(32 + static_cast<index_t>(rng.next_below(300)),
                        1 + static_cast<index_t>(rng.next_below(50)),
                        1 + static_cast<index_t>(rng.next_below(10)), rng,
                        ValueModel::random());
    case 3:
      return gen_rmat(6 + static_cast<std::uint32_t>(rng.next_below(4)),
                      400 + rng.next_below(3000), rng,
                      ValueModel::pooled(6));
    case 4:
      return gen_fem_blocks(
          4 + static_cast<index_t>(rng.next_below(30)),
          1 + static_cast<index_t>(rng.next_below(4)),
          1 + static_cast<index_t>(rng.next_below(5)), rng,
          ValueModel::random());
    case 5: {
      // Long dense rows: exercises the vector kernels' main loops for
      // many iterations and rows longer than one DU unit.
      const index_t n = 4 + static_cast<index_t>(rng.next_below(8));
      Triplets t(n, 512);
      for (index_t r = 0; r < n; ++r) {
        for (index_t c = 0; c < 512; ++c) {
          t.add(r, c, rng.next_double(-2.0, 2.0));
        }
      }
      t.sort_and_combine();
      return t;
    }
    default: {
      // Tiny/degenerate shapes: single row, single column, 1x1 — all
      // tail-path, no main-loop iterations.
      switch (seed % 3) {
        case 0:
          return random_triplets(1, 97, 60, rng);
        case 1:
          return random_triplets(97, 1, 60, rng);
        default:
          return random_triplets(1, 1, 1, rng);
      }
    }
  }
}

/// A numerically symmetric square matrix built from `t`: its entries in
/// a max(nrows, ncols) square, symmetrized — the symmetric formats' input
/// in suites that draw general matrices.
inline Triplets symmetric_square(const Triplets& t) {
  const index_t n = std::max(t.nrows(), t.ncols());
  Triplets square(n, n);
  for (const Entry& e : t.entries()) {
    square.add(e.row, e.col, e.val);
  }
  square.sort_and_combine();
  return symmetrize(square);
}

/// Asserts both triplet sets represent the same matrix.
inline void expect_triplets_eq(const Triplets& a, const Triplets& b) {
  ASSERT_EQ(a.nrows(), b.nrows());
  ASSERT_EQ(a.ncols(), b.ncols());
  ASSERT_EQ(a.nnz(), b.nnz());
  for (usize_t i = 0; i < a.nnz(); ++i) {
    const Entry& ea = a.entries()[i];
    const Entry& eb = b.entries()[i];
    ASSERT_EQ(ea.row, eb.row) << "entry " << i;
    ASSERT_EQ(ea.col, eb.col) << "entry " << i;
    ASSERT_DOUBLE_EQ(ea.val, eb.val) << "entry " << i;
  }
}

}  // namespace spc::test
