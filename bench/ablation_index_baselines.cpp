// Ablation of index-compression baselines (DESIGN.md §6, item 4): CSR vs
// CSR-16 (the Williams et al. short-index trick, §III-D) vs BCSR
// (blocking, §III-A/B) vs DCSR (fine-grained delta commands, §III-B) vs
// CSR-DU. Reports matrix size relative to CSR and serial + multithreaded
// SpMV time on a corpus subset. BCSR and DCSR are format classes only,
// so they are timed serially through their own spmv().
#include <iostream>

#include "spc/bench/harness.hpp"
#include "spc/formats/bcsr.hpp"
#include "spc/formats/dcsr.hpp"
#include "spc/support/strutil.hpp"

namespace spc {
namespace {

void run() {
  BenchConfig cfg = BenchConfig::from_env();
  cfg.max_matrices = cfg.max_matrices ? cfg.max_matrices : 8;
  const std::size_t mt =
      *std::max_element(cfg.threads.begin(), cfg.threads.end());
  std::cout << "=== Ablation: index baselines (CSR / CSR16 / BCSR / DCSR "
               "/ CSR-DU) ===\n[" << cfg.describe() << "]\n";

  TextTable table({"matrix", "format", "size/csr", "serial ms",
                   "x" + std::to_string(mt) + " ms", "mt speedup vs csr"});
  for_each_matrix(cfg, [&](MatrixCase& mc) {
    InstanceOptions opts;
    opts.pin_threads = cfg.pin_threads;

    SpmvInstance csr(mc.mat, Format::kCsr, 1, opts);
    const double csr_b = static_cast<double>(csr.matrix_bytes());
    SpmvInstance csr_mt(mc.mat, Format::kCsr, mt, opts);
    const double t_csr_mt = time_spmv(csr_mt, cfg.iterations, cfg.warmup);

    for (const Format f : {Format::kCsr, Format::kCsr16, Format::kCsrDu}) {
      if (f == Format::kCsr16 && mc.mat.ncols() > 65536) {
        table.add_row({mc.name, "csr16", "-", "n/a (ncols>2^16)", "-",
                       "-"});
        continue;
      }
      SpmvInstance serial(mc.mat, f, 1, opts);
      SpmvInstance multi(mc.mat, f, mt, opts);
      const double t1 = time_spmv(serial, cfg.iterations, cfg.warmup);
      const double tn = time_spmv(multi, cfg.iterations, cfg.warmup);
      table.add_row(
          {mc.name, format_name(f),
           fmt_fixed(static_cast<double>(serial.matrix_bytes()) / csr_b, 2),
           fmt_fixed(t1 * 1e3, 2), fmt_fixed(tn * 1e3, 2),
           fmt_fixed(tn > 0 ? t_csr_mt / tn : 0.0, 2)});
    }
    const auto serial_row = [&](const char* name, const auto& m) {
      table.add_row(
          {mc.name, name,
           fmt_fixed(static_cast<double>(m.bytes()) / csr_b, 2),
           fmt_fixed(time_format_spmv(m, cfg.iterations, cfg.warmup) * 1e3,
                     2),
           "-", "-"});
    };
    serial_row("bcsr", Bcsr::from_triplets(mc.mat, 2, 2));
    serial_row("dcsr", Dcsr::from_triplets(mc.mat));
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
