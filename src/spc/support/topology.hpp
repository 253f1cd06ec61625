// CPU and NUMA topology discovery.
//
// The paper schedules threads "as close as possible" and contrasts
// 2-thread placements that share an L2 against placements on separate
// caches (Table II). To reproduce that policy portably we read the Linux
// sysfs topology (package / core / sibling / cache layout) and fall back to
// a flat model when sysfs is unavailable.
//
// On ccNUMA machines thread placement is only half the story: Linux
// first-touch page placement decides which node's memory controller
// serves each matrix page, so the NUMA layer (node → cpu map, per-node
// memory) is discovered here too and consumed by SpmvInstance's NUMA
// placement (support/first_touch.hpp) and the steal victim order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace spc {

/// One logical CPU as the kernel numbers it.
struct CpuInfo {
  int cpu_id = 0;       ///< logical cpu number (sysfs cpuN)
  int package_id = 0;   ///< physical socket
  int core_id = 0;      ///< core within the socket
  int node_id = 0;      ///< NUMA node (0 on single-node machines)
  /// Logical CPUs that share the highest-level cache with this one
  /// (inclusive of this cpu). Empty when unknown.
  std::vector<int> llc_siblings;
};

/// One NUMA node: its logical CPUs and local memory size.
struct NumaNode {
  int node_id = 0;
  std::vector<int> cpus;       ///< logical cpu ids local to this node
  std::size_t mem_bytes = 0;   ///< node-local memory (0 when unknown)
};

/// Snapshot of the machine layout relevant to thread placement.
struct Topology {
  std::vector<CpuInfo> cpus;
  /// NUMA nodes, ascending by node_id. Always at least one entry after
  /// discover_topology(); may be empty for hand-built fixtures, which
  /// behaves like a single node.
  std::vector<NumaNode> nodes;
  std::size_t llc_bytes = 0;       ///< size of one last-level cache
  std::size_t llc_instances = 1;   ///< number of distinct LLC domains
  /// Size of one level-2 data/unified cache (0 when sysfs doesn't expose
  /// it, e.g. the flat fallback model). The stealing scheduler derives
  /// its target chunk size from this (parallel/schedule.hpp).
  std::size_t l2_bytes = 0;
  /// CPU model string from /proc/cpuinfo ("model name"); empty when
  /// unknown. Feeds the run-ledger's machine fingerprint (obs/ledger.hpp).
  std::string cpu_model;

  std::size_t num_cpus() const { return cpus.size(); }

  /// Number of NUMA nodes (>= 1; empty `nodes` counts as one flat node).
  std::size_t num_nodes() const { return nodes.empty() ? 1 : nodes.size(); }

  /// NUMA node of a logical cpu; 0 when the cpu is unknown or the
  /// machine is flat.
  int node_of_cpu(int cpu_id) const;

  /// Total cache available when `n` threads are placed close-first
  /// (the paper's aggregate-L2 model: more LLC domains in use → more cache).
  std::size_t aggregate_llc_bytes(std::size_t threads_used) const;
};

/// Placement policies for the 2-thread experiment of Table II.
enum class Placement {
  kCloseFirst,   ///< pack threads onto shared-cache siblings first (default)
  kSpreadCaches  ///< place threads on distinct LLC domains first
};

/// Canonical lower-case name ("close", "spread").
std::string placement_name(Placement p);

/// Reads /sys/devices/system/cpu and /sys/devices/system/node; never
/// throws — degrades to a flat single-package single-node model with
/// `sysconf` CPU count and a 0 llc size.
Topology discover_topology();

/// Same, rooted at `sysfs_root` instead of "/sys" — lets tests run the
/// parser against fixture trees (fake 2-socket / SMT / flat layouts).
Topology discover_topology(const std::string& sysfs_root);

/// Chooses `nthreads` logical CPUs according to `policy`.
/// Within a cache domain, distinct physical cores are used before SMT
/// siblings; close-first fills NUMA node by node, spread alternates
/// nodes before reusing a second cache domain of the same node.
/// Returned ids are valid arguments for pin_thread_to_cpu.
std::vector<int> plan_placement(const Topology& topo, std::size_t nthreads,
                                Placement policy);

/// Binds the calling thread to one logical CPU (sched_setaffinity).
/// Returns false if the kernel rejected the mask (e.g. restricted cpuset);
/// callers treat that as a soft failure.
bool pin_thread_to_cpu(int cpu_id);

/// Human-readable topology description for reports (Fig 6 equivalent).
std::string describe_topology(const Topology& topo);

}  // namespace spc
