// Ablation: NUMA placement across thread placements and formats.
//
// Every pooled instance has each worker build (and so first-touch) its
// own slice, so on a pinned pool a slice's pages sit on its owner's node.
// The placement axis moves where the workers, and with them the slices'
// pages, sit. Rows are (placement in {close, spread}) x format x threads;
// the page-residency check (sampled via move_pages) shows whether the
// slices landed on their owners' nodes.
//
// JSONL (under SPC_METRICS) carries "numa", "placement", and the
// numa_pages_sampled/numa_pages_local residency fields;
// profile_report groups by (format, isa, numa, threads).
#include <iostream>

#include "spc/bench/harness.hpp"
#include "spc/support/first_touch.hpp"
#include "spc/support/strutil.hpp"

namespace spc {
namespace {

void run() {
  BenchConfig cfg = BenchConfig::from_env();
  cfg.max_matrices = cfg.max_matrices ? cfg.max_matrices : 4;
  const Topology topo = discover_topology();
  std::cout << "=== Ablation: NUMA placement (" << topo.num_nodes()
            << " node(s)) ===\n[" << cfg.describe() << "]\n";

  const Format formats[] = {Format::kCsr, Format::kCsrDu, Format::kCsrVi};
  const Placement placements[] = {Placement::kCloseFirst,
                                  Placement::kSpreadCaches};

  TextTable table({"matrix", "format", "placement", "numa", "threads",
                   "MFLOPS", "vs close", "resident"});
  for_each_matrix(cfg, [&](MatrixCase& mc) {
    for (const Format fmt : formats) {
      for (const std::size_t n : cfg.threads) {
        if (n < 2) {
          continue;  // placement only matters multithreaded
        }
        double mflops_close = 0.0;
        for (const Placement place : placements) {
          InstanceOptions opts;
          opts.pin_threads = true;
          opts.placement = place;
          SpmvInstance inst(mc.mat, fmt, n, opts);
          RunMetrics m = time_spmv_metrics(inst, cfg.iterations, cfg.warmup);
          if (place == Placement::kCloseFirst) {
            mflops_close = m.mflops;
          }
          const SpmvInstance::NumaResidency res = inst.matrix_residency();
          std::string resident = "-";
          if (res.available && res.pages_sampled > 0) {
            resident = fmt_fixed(100.0 *
                                     static_cast<double>(res.pages_local) /
                                     static_cast<double>(res.pages_sampled),
                                 0) +
                       "%";
          }
          table.add_row(
              {mc.name, format_name(fmt), placement_name(place),
               numa_policy_name(inst.numa_policy()), std::to_string(n),
               fmt_fixed(m.mflops, 1),
               mflops_close > 0.0 ? fmt_fixed(m.mflops / mflops_close, 2)
                                  : "-",
               resident});
          emit_metrics_record("ablation_numa", mc, inst, m, 0.0,
                              {{"placement", placement_name(place)}});
        }
      }
    }
  });
  table.print(std::cout);
  std::cout << "\nnote: \"numa\" reads local when the workers are pinned "
               "on a multi-node machine, off otherwise; \"resident\" "
               "samples the slices' arrays via move_pages (\"-\" when "
               "the query is unavailable).\n";
}

}  // namespace
}  // namespace spc

int main() {
  spc::run();
  return 0;
}
