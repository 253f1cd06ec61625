#include "workload.hpp"

#include <cfloat>
#include <cmath>

#include "spc/gen/corpus.hpp"
#include "spc/gen/generators.hpp"
#include "spc/support/error.hpp"
#include "spc/support/rng.hpp"

namespace e2e {

namespace {

// Independent sub-seed per input so adding one input never shifts the
// others.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t salt) {
  return spc::SplitMix64(seed ^ (salt * 0x9E3779B97F4A7C15ULL)).next();
}

Matrix resident(std::string id, spc::Triplets t, double weight) {
  Matrix m;
  m.id = std::move(id);
  m.t = std::move(t);
  m.weight = weight;
  return m;
}

// The six serving tenants, kBench scale: ~5.6M nnz, ~70 MB of CSR —
// inside the LLC, outside every core's L2. 60% of requests go to
// lap2d-m and 8% to each other, so same-matrix requests overlap.
std::vector<Matrix> tenants() {
  const char* names[] = {"lap2d-m", "rmat-s", "band-pool-m",
                         "femblk-s", "ragged-m", "sten9-s"};
  std::vector<Matrix> out;
  for (const char* n : names) {
    const double w = out.empty() ? 0.60 : 0.08;
    out.push_back(resident(n, spc::corpus_spec(n, spc::CorpusScale::kBench).build(), w));
  }
  return out;
}

// Small matrices of five classes, values pooled or random, so the tuner
// both admits and gates off value compression across the stream.
std::vector<spc::Triplets> registration_stream(std::uint64_t seed) {
  using spc::ValueModel;
  std::vector<spc::Triplets> out;
  spc::Rng rng(sub_seed(seed, 3));
  out.push_back(spc::gen_banded(30000, 64, 8, rng, ValueModel::pooled(64)));
  out.push_back(spc::gen_random_uniform(30000, 30000, 7, rng, ValueModel::random()));
  out.push_back(spc::gen_rmat(15, 200000, rng, ValueModel::random()));
  out.push_back(spc::gen_fem_blocks(6000, 3, 6, rng, ValueModel::pooled(128)));
  out.push_back(spc::gen_ragged(40000, 40000, 16, 0.05, rng, ValueModel::pooled(64)));
  return out;
}

}  // namespace

Reference reference(const spc::Triplets& t, const spc::Vector& x) {
  std::vector<long double> acc(t.nrows(), 0.0L);
  std::vector<long double> mag(t.nrows(), 0.0L);
  for (const spc::Entry& e : t.entries()) {
    const long double p = static_cast<long double>(e.val) * x[e.col];
    acc[e.row] += p;
    mag[e.row] += std::fabs(p);
  }
  Reference r;
  r.y.resize(t.nrows());
  r.bound.resize(t.nrows());
  for (std::size_t i = 0; i < acc.size(); ++i) {
    r.y[i] = static_cast<double>(acc[i]);
    r.bound[i] = static_cast<double>(64.0L * DBL_EPSILON * mag[i]);
  }
  return r;
}

std::size_t bad_rows(const Reference& ref, const spc::Vector& y) {
  if (y.size() != ref.y.size()) {
    return ref.y.size() + 1;
  }
  std::size_t bad = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    // Written so a NaN in y fails the comparison.
    if (!(std::fabs(y[i] - ref.y[i]) <= ref.bound[i])) {
      ++bad;
    }
  }
  return bad;
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      {"fem-mem", 12, 20, 70, false},
      {"graph", 30, 50, 180, false},
      {"serve", 350, 550, 2000, true},
  };
  return all;
}

const WorkloadSpec& find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) {
      return w;
    }
  }
  throw spc::InvalidArgument("unknown workload: " + name);
}

Inputs make_inputs(const WorkloadSpec& w, std::uint64_t seed) {
  Inputs in;
  if (w.name == "fem-mem") {
    // 7-point 3D Laplacian: short deltas and 3 distinct values, the
    // paper's best case for both DU and VI compression. 150^3 makes
    // even the smallest format, CSR-DU-VI, with x and y larger than
    // the reference machine's LLC.
    in.mats.push_back(resident("lap3d", spc::gen_laplacian_3d(150, 150, 150), 1.0));
  } else if (w.name == "graph") {
    // Skewed power-law rows and scattered columns; values from a pool
    // of 256 so value compression stays applicable.
    spc::Rng rng(sub_seed(seed, 1));
    in.mats.push_back(resident(
        "rmat", spc::gen_rmat(20, 4u << 20, rng, spc::ValueModel::pooled(256)), 1.0));
  } else {
    in.mats = tenants();
  }
  spc::Rng xrng(sub_seed(seed, 2));
  for (Matrix& m : in.mats) {
    for (std::size_t v = 0; v < kVariants; ++v) {
      m.x.push_back(spc::random_vector(m.t.ncols(), xrng, -1.0, 1.0));
      m.ref.push_back(reference(m.t, m.x.back()));
    }
  }
  in.stream = registration_stream(seed);
  return in;
}

}  // namespace e2e
