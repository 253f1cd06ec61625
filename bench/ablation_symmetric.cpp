// Ablation: symmetry exploitation (§III-C, Lee et al.) against the
// paper's compression formats, on the symmetric members of the corpus.
// SymCsr halves index *and* value data — the largest ws reduction
// available — but pays a scatter (and, multithreaded, a conflict-window
// reduction; see ablation_sym for window vs private y).
#include <iostream>

#include "spc/bench/harness.hpp"
#include "spc/formats/sym_csr.hpp"
#include "spc/support/strutil.hpp"

namespace spc {
namespace {

void run() {
  BenchConfig cfg = BenchConfig::from_env();
  const std::size_t mt =
      *std::max_element(cfg.threads.begin(), cfg.threads.end());
  std::cout << "=== Ablation: symmetric storage (SSS) vs CSR / CSR-DU / "
               "CSR-VI ===\n[" << cfg.describe() << "]\n";

  TextTable table({"matrix", "format", "size/csr", "serial ms",
                   "x" + std::to_string(mt) + " ms"});
  std::size_t used = 0;
  for_each_matrix(cfg, [&](MatrixCase& mc) {
    if (!SymCsr::applicable(mc.mat)) {
      return;
    }
    ++used;
    InstanceOptions opts;
    opts.pin_threads = cfg.pin_threads;

    SpmvInstance csr(mc.mat, Format::kCsr, 1, opts);
    const double csr_b = static_cast<double>(csr.matrix_bytes());
    for (const Format f : {Format::kCsr, Format::kCsrDu, Format::kCsrVi,
                           Format::kSymCsr, Format::kSymCsrVi}) {
      SpmvInstance s1(mc.mat, f, 1, opts);
      SpmvInstance sn(mc.mat, f, mt, opts);
      table.add_row(
          {mc.name, format_name(f),
           fmt_fixed(static_cast<double>(s1.matrix_bytes()) / csr_b, 2),
           fmt_fixed(time_spmv(s1, cfg.iterations, cfg.warmup) * 1e3, 2),
           fmt_fixed(time_spmv(sn, cfg.iterations, cfg.warmup) * 1e3,
                     2)});
    }
  });
  table.print(std::cout);
  std::cout << "(symmetric corpus members: " << used << ")\n\n";
}

}  // namespace
}  // namespace spc

int main() {
  spc::run();
  return 0;
}
