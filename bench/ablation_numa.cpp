// Ablation: NUMA placement across thread placements and formats.
//
// Every pooled instance has each worker build (and so first-touch) its
// own slice under every SPC_NUMA policy, so the off/local axis measures
// the bookkeeping only (node records, residency queries) and its deltas
// should collapse to noise on any machine. The placement axis still
// moves where the workers, and with them the slices' pages, sit. Rows
// are (placement in {close, spread}) x (SPC_NUMA policy in {off, local})
// x format x threads; under local the page-residency check (sampled via
// move_pages) shows whether the slices landed on their owners' nodes.
//
// JSONL (under SPC_METRICS) carries "numa", "placement", and the
// numa_pages_sampled/numa_pages_local residency fields;
// profile_report groups by (format, isa, numa, threads).
#include <cstdlib>
#include <iostream>

#include "spc/bench/harness.hpp"
#include "spc/support/first_touch.hpp"
#include "spc/support/strutil.hpp"

namespace spc {
namespace {

void run() {
  // The sweep sets policies programmatically; a stray SPC_NUMA in the
  // environment would override every cell to one value.
  ::unsetenv("SPC_NUMA");

  BenchConfig cfg = BenchConfig::from_env();
  cfg.max_matrices = cfg.max_matrices ? cfg.max_matrices : 4;
  const Topology topo = discover_topology();
  std::cout << "=== Ablation: NUMA placement (" << topo.num_nodes()
            << " node(s)) ===\n[" << cfg.describe() << "]\n";

  const Format formats[] = {Format::kCsr, Format::kCsrDu, Format::kCsrVi};
  const Placement placements[] = {Placement::kCloseFirst,
                                  Placement::kSpreadCaches};
  const NumaPolicy policies[] = {NumaPolicy::kOff, NumaPolicy::kLocal};

  TextTable table({"matrix", "format", "placement", "numa", "threads",
                   "MFLOPS", "vs off", "resident"});
  for_each_matrix(cfg, [&](MatrixCase& mc) {
    for (const Format fmt : formats) {
      for (const Placement place : placements) {
        for (const std::size_t n : cfg.threads) {
          if (n < 2) {
            continue;  // placement only matters multithreaded
          }
          double mflops_off = 0.0;
          for (const NumaPolicy pol : policies) {
            InstanceOptions opts;
            opts.pin_threads = true;
            opts.placement = place;
            opts.numa = pol;
            SpmvInstance inst(mc.mat, fmt, n, opts);
            RunMetrics m =
                time_spmv_metrics(inst, cfg.iterations, cfg.warmup);
            if (pol == NumaPolicy::kOff) {
              mflops_off = m.mflops;
            }
            const SpmvInstance::NumaResidency res =
                inst.matrix_residency();
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
                 mflops_off > 0.0 ? fmt_fixed(m.mflops / mflops_off, 2)
                                  : "-",
                 resident});
            emit_metrics_record("ablation_numa", mc, inst, m, 0.0,
                                {{"placement", placement_name(place)}});
          }
        }
      }
    }
  });
  table.print(std::cout);
  std::cout << "\nnote: \"numa\" is the policy in effect after "
               "resolution — auto collapses to off on single-node "
               "machines; \"resident\" samples the slices' arrays via "
               "move_pages (\"-\" when the policy is off or the query is "
               "unavailable).\n";
}

}  // namespace
}  // namespace spc

int main() {
  spc::run();
  return 0;
}
