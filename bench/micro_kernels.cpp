// google-benchmark microbenchmarks of the SpMV kernels themselves:
// per-format decode+multiply cost on fixed structures, isolating kernel
// overheads (unit header decode, value indirection, command dispatch)
// from the corpus-level experiments.
#include <benchmark/benchmark.h>

#include "spc/formats/csr_f32.hpp"
#include "spc/gen/generators.hpp"
#include "spc/mm/vector.hpp"
#include "spc/spmv/kernels.hpp"
#include "spc/spmv/spmm.hpp"

namespace spc {
namespace {

// Shared fixtures, built once per structure kind.
struct Fixture {
  Triplets t;
  Vector x;
  Vector y;

  explicit Fixture(Triplets mat)
      : t(std::move(mat)), y(t.nrows(), 0.0) {
    Rng rng(1);
    x = random_vector(t.ncols(), rng);
  }
};

Fixture& banded_fixture() {
  static Fixture f = [] {
    Rng rng(11);
    return Fixture(gen_banded(60000, 50, 10, rng, ValueModel::pooled(32)));
  }();
  return f;
}

Fixture& random_fixture() {
  static Fixture f = [] {
    Rng rng(12);
    return Fixture(
        gen_random_uniform(50000, 50000, 8, rng, ValueModel::random()));
  }();
  return f;
}

template <typename M>
void run_spmv_loop(benchmark::State& state, const M& m, Fixture& f) {
  for (auto _ : state) {
    spmv(m, f.x.data(), f.y.data());
    benchmark::DoNotOptimize(f.y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.t.nnz()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.bytes()));
}

void BM_Csr_Banded(benchmark::State& state) {
  Fixture& f = banded_fixture();
  const Csr m = Csr::from_triplets(f.t);
  run_spmv_loop(state, m, f);
}
BENCHMARK(BM_Csr_Banded);

void BM_CsrDu_Banded(benchmark::State& state) {
  Fixture& f = banded_fixture();
  const CsrDu m = CsrDu::from_triplets(f.t);
  run_spmv_loop(state, m, f);
}
BENCHMARK(BM_CsrDu_Banded);

void BM_CsrVi_Banded(benchmark::State& state) {
  Fixture& f = banded_fixture();
  const CsrVi m = CsrVi::from_triplets(f.t);
  run_spmv_loop(state, m, f);
}
BENCHMARK(BM_CsrVi_Banded);

void BM_CsrDuVi_Banded(benchmark::State& state) {
  Fixture& f = banded_fixture();
  const CsrDuVi m = CsrDuVi::from_triplets(f.t);
  run_spmv_loop(state, m, f);
}
BENCHMARK(BM_CsrDuVi_Banded);

void BM_Dcsr_Banded(benchmark::State& state) {
  Fixture& f = banded_fixture();
  const Dcsr m = Dcsr::from_triplets(f.t);
  run_spmv_loop(state, m, f);
}
BENCHMARK(BM_Dcsr_Banded);

void BM_Bcsr_Banded(benchmark::State& state) {
  Fixture& f = banded_fixture();
  const Bcsr m = Bcsr::from_triplets(f.t, 2, 2);
  run_spmv_loop(state, m, f);
}
BENCHMARK(BM_Bcsr_Banded);

void BM_Csr_Random(benchmark::State& state) {
  Fixture& f = random_fixture();
  const Csr m = Csr::from_triplets(f.t);
  run_spmv_loop(state, m, f);
}
BENCHMARK(BM_Csr_Random);

void BM_CsrDu_Random(benchmark::State& state) {
  Fixture& f = random_fixture();
  const CsrDu m = CsrDu::from_triplets(f.t);
  run_spmv_loop(state, m, f);
}
BENCHMARK(BM_CsrDu_Random);

void BM_Dcsr_Random(benchmark::State& state) {
  Fixture& f = random_fixture();
  const Dcsr m = Dcsr::from_triplets(f.t);
  run_spmv_loop(state, m, f);
}
BENCHMARK(BM_Dcsr_Random);

void BM_Ell_Banded(benchmark::State& state) {
  Fixture& f = banded_fixture();
  const Ell m = Ell::from_triplets(f.t);
  run_spmv_loop(state, m, f);
}
BENCHMARK(BM_Ell_Banded);

void BM_Dia_Banded(benchmark::State& state) {
  Fixture& f = banded_fixture();
  const Dia m = Dia::from_triplets(f.t);
  run_spmv_loop(state, m, f);
}
BENCHMARK(BM_Dia_Banded);

void BM_Jds_Banded(benchmark::State& state) {
  Fixture& f = banded_fixture();
  const Jds m = Jds::from_triplets(f.t);
  run_spmv_loop(state, m, f);
}
BENCHMARK(BM_Jds_Banded);

void BM_Jds_Random(benchmark::State& state) {
  Fixture& f = random_fixture();
  const Jds m = Jds::from_triplets(f.t);
  run_spmv_loop(state, m, f);
}
BENCHMARK(BM_Jds_Random);

void BM_CsrF32_Banded(benchmark::State& state) {
  Fixture& f = banded_fixture();
  const CsrF32 m = CsrF32::from_triplets(f.t);
  run_spmv_loop(state, m, f);
}
BENCHMARK(BM_CsrF32_Banded);

// SpMM amortization at k = 4 (items = nnz * k).
void BM_Spmm4_Csr_Banded(benchmark::State& state) {
  Fixture& f = banded_fixture();
  const Csr m = Csr::from_triplets(f.t);
  const index_t k = 4;
  Rng rng(3);
  const Vector X = random_vector(f.t.ncols() * k, rng);
  Vector Y(static_cast<usize_t>(f.t.nrows()) * k, 0.0);
  for (auto _ : state) {
    spmm(m, X.data(), Y.data(), k);
    benchmark::DoNotOptimize(Y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.t.nnz() * k));
}
BENCHMARK(BM_Spmm4_Csr_Banded);

// Encoder throughput: construction is O(nnz) per §IV/§V.
void BM_Encode_CsrDu(benchmark::State& state) {
  Fixture& f = banded_fixture();
  for (auto _ : state) {
    const CsrDu m = CsrDu::from_triplets(f.t);
    benchmark::DoNotOptimize(m.ctl_bytes());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.t.nnz()));
}
BENCHMARK(BM_Encode_CsrDu);

void BM_Encode_CsrVi(benchmark::State& state) {
  Fixture& f = banded_fixture();
  for (auto _ : state) {
    const CsrVi m = CsrVi::from_triplets(f.t);
    benchmark::DoNotOptimize(m.value_index().table().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.t.nnz()));
}
BENCHMARK(BM_Encode_CsrVi);

}  // namespace
}  // namespace spc

BENCHMARK_MAIN();
