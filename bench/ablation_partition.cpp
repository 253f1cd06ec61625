// Ablation of work partitioning (DESIGN.md §6, item 5): the paper's
// nnz-balanced row partitioning vs naive equal-row-count splitting, on
// matrices with skewed row lengths where the difference matters.
#include <iostream>

#include "spc/bench/harness.hpp"
#include "spc/formats/csr.hpp"
#include "spc/parallel/partition.hpp"
#include "spc/support/strutil.hpp"

namespace spc {
namespace {

void run() {
  BenchConfig cfg = BenchConfig::from_env();
  cfg.max_matrices = cfg.max_matrices ? cfg.max_matrices : 8;
  const std::size_t mt =
      *std::max_element(cfg.threads.begin(), cfg.threads.end());
  std::cout << "=== Ablation: partitioning (nnz-balanced vs even rows) "
               "===\n[" << cfg.describe() << "]\n";

  TextTable table({"matrix", "imbalance(nnz)", "imbalance(even)",
                   "csr-nnz ms", "csr-even ms"});
  for_each_matrix(cfg, [&](MatrixCase& mc) {
    const Csr csr = Csr::from_triplets(mc.mat);
    const double imb_nnz = partition_imbalance(
        partition_rows_by_nnz(csr.row_ptr(), mt), csr.row_ptr());
    const double imb_even = partition_imbalance(
        partition_rows_even(mc.mat.nrows(), mt), csr.row_ptr());

    InstanceOptions balanced;
    balanced.pin_threads = cfg.pin_threads;
    SpmvInstance csr_nnz(mc.mat, Format::kCsr, mt, balanced);

    InstanceOptions even = balanced;
    even.balance_by_nnz = false;
    SpmvInstance csr_even(mc.mat, Format::kCsr, mt, even);

    table.add_row(
        {mc.name, fmt_fixed(imb_nnz, 2), fmt_fixed(imb_even, 2),
         fmt_fixed(time_spmv(csr_nnz, cfg.iterations, cfg.warmup) * 1e3, 2),
         fmt_fixed(time_spmv(csr_even, cfg.iterations, cfg.warmup) * 1e3,
                   2)});
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
