// Ablation of the CSR-DU encoder knobs (DESIGN.md §6, item 1):
//  * split_threshold — finalize vs widen a unit when a wider delta class
//    appears (§IV's unit formation policy),
//  * max_unit — unit length cap.
// Reports the ctl size relative to CSR col_ind and the serial SpMV time
// on a DU-sensitive subset of the corpus.
#include <iostream>

#include "spc/bench/harness.hpp"
#include "spc/formats/csr.hpp"
#include "spc/formats/csr_du.hpp"
#include "spc/mm/vector.hpp"
#include "spc/spmv/kernels.hpp"
#include "spc/support/strutil.hpp"
#include "spc/support/timing.hpp"

namespace spc {
namespace {

double time_du(const CsrDu& du, const Vector& x, Vector& y,
               std::size_t iters) {
  spmv(du, x.data(), y.data());  // warmup
  Timer t;
  for (std::size_t i = 0; i < iters; ++i) {
    spmv(du, x.data(), y.data());
  }
  return t.elapsed_s();
}

void run() {
  BenchConfig cfg = BenchConfig::from_env();
  cfg.max_matrices = cfg.max_matrices ? cfg.max_matrices : 6;
  std::cout << "=== Ablation: CSR-DU encoder parameters ===\n["
            << cfg.describe() << "]\n";

  struct Variant {
    const char* label;
    CsrDuOptions opts;
  };
  std::vector<Variant> variants;
  for (const std::uint32_t st : {1u, 2u, 8u, 64u}) {
    CsrDuOptions o;
    o.split_threshold = st;
    variants.push_back({nullptr, o});
  }
  {
    CsrDuOptions o;
    o.max_unit = 16;
    variants.push_back({"max_unit=16", o});
  }

  TextTable table({"matrix", "variant", "ctl/col_ind", "units",
                   "serial time (ms)", "vs default"});
  for_each_matrix(cfg, [&](MatrixCase& mc) {
    const Csr csr = Csr::from_triplets(mc.mat);
    const double col_ind_bytes = static_cast<double>(csr.nnz()) * 4.0;
    Rng rng(1);
    const Vector x = random_vector(mc.mat.ncols(), rng);
    Vector y(mc.mat.nrows(), 0.0);

    double default_time = 0.0;
    for (std::size_t v = 0; v < variants.size(); ++v) {
      const CsrDuOptions& o = variants[v].opts;
      const CsrDu du = CsrDu::from_triplets(mc.mat, o);
      const double secs = time_du(du, x, y, cfg.iterations);
      if (v == 2) {  // split_threshold=8 is the default configuration
        default_time = secs;
      }
      std::string label =
          variants[v].label
              ? variants[v].label
              : "split=" + std::to_string(o.split_threshold);
      table.add_row(
          {mc.name, std::move(label),
           fmt_fixed(static_cast<double>(du.ctl_bytes()) / col_ind_bytes,
                     3),
           std::to_string(du.unit_count()), fmt_fixed(secs * 1e3, 2),
           default_time > 0.0 ? fmt_fixed(secs / default_time, 2) : "-"});
    }
  });
  table.print(std::cout);
  std::cout << "\n";
}

}  // namespace
}  // namespace spc

int main() {
  spc::run();
  return 0;
}
