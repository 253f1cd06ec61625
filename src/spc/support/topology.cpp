#include "spc/support/topology.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace spc {

namespace {

// Reads a sysfs file containing a single integer; returns `fallback` when
// the file is missing or malformed.
long read_long(const std::string& path, long fallback) {
  std::ifstream f(path);
  long v = 0;
  if (f >> v) {
    return v;
  }
  return fallback;
}

// Parses a kernel cpulist string like "0-3,8,10-11" into cpu ids.
std::vector<int> parse_cpulist(const std::string& s) {
  std::vector<int> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (tok.empty()) {
      continue;
    }
    const auto dash = tok.find('-');
    if (dash == std::string::npos) {
      out.push_back(std::stoi(tok));
    } else {
      const int lo = std::stoi(tok.substr(0, dash));
      const int hi = std::stoi(tok.substr(dash + 1));
      for (int c = lo; c <= hi; ++c) {
        out.push_back(c);
      }
    }
  }
  return out;
}

// Parses cache sizes of the form "4096K" / "4M".
std::size_t parse_cache_size(const std::string& s) {
  if (s.empty()) {
    return 0;
  }
  std::size_t mult = 1;
  std::string digits = s;
  switch (s.back()) {
    case 'K':
      mult = 1024;
      digits.pop_back();
      break;
    case 'M':
      mult = 1024 * 1024;
      digits.pop_back();
      break;
    case 'G':
      mult = 1024ULL * 1024 * 1024;
      digits.pop_back();
      break;
    default:
      break;
  }
  try {
    return static_cast<std::size_t>(std::stoull(digits)) * mult;
  } catch (...) {
    return 0;
  }
}

std::string read_line(const std::string& path) {
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  return line;
}

// Enumerates "<dir>/<prefix><N>" entries and returns the sorted N values.
// Empty when the directory is missing or holds no matching entries.
std::vector<int> enumerate_indexed(const std::string& dir,
                                   const std::string& prefix) {
  std::vector<int> ids;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return ids;
  }
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() ||
        name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const std::string num = name.substr(prefix.size());
    if (num.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    try {
      ids.push_back(std::stoi(num));
    } catch (...) {
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Parses a node meminfo file ("Node 0 MemTotal:  12345 kB") for the
// MemTotal value in bytes; 0 when missing.
std::size_t parse_node_mem(const std::string& path) {
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    const auto pos = line.find("MemTotal:");
    if (pos == std::string::npos) {
      continue;
    }
    std::istringstream ss(line.substr(pos + 9));
    std::size_t kb = 0;
    if (ss >> kb) {
      return kb * 1024;
    }
  }
  return 0;
}

// First "model name" (x86) or "cpu model"/"Processor" (other arches)
// value in a cpuinfo-format file; empty when absent.
std::string parse_cpu_model(const std::string& path) {
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) {
      continue;
    }
    std::string key = line.substr(0, colon);
    key.erase(key.find_last_not_of(" \t") + 1);
    if (key != "model name" && key != "cpu model" && key != "Processor") {
      continue;
    }
    std::string value = line.substr(colon + 1);
    const auto first = value.find_first_not_of(" \t");
    return first == std::string::npos ? std::string() : value.substr(first);
  }
  return std::string();
}

}  // namespace

int Topology::node_of_cpu(int cpu_id) const {
  for (const auto& n : nodes) {
    if (std::find(n.cpus.begin(), n.cpus.end(), cpu_id) != n.cpus.end()) {
      return n.node_id;
    }
  }
  return 0;
}

std::size_t Topology::aggregate_llc_bytes(std::size_t threads_used) const {
  if (llc_bytes == 0 || cpus.empty()) {
    return 0;
  }
  // Close-first placement touches ceil(threads / cpus-per-LLC) LLC domains.
  const std::size_t cpus_per_llc =
      std::max<std::size_t>(1, num_cpus() / std::max<std::size_t>(1, llc_instances));
  const std::size_t domains =
      std::min(llc_instances,
               (threads_used + cpus_per_llc - 1) / cpus_per_llc);
  return domains * llc_bytes;
}

std::string placement_name(Placement p) {
  return p == Placement::kCloseFirst ? "close" : "spread";
}

Topology discover_topology() { return discover_topology("/sys"); }

Topology discover_topology(const std::string& sysfs_root) {
  Topology topo;
  // The model string lives in procfs, not sysfs; fixture roots may drop
  // a "cpuinfo" file next to their devices/ tree to fake it.
  topo.cpu_model = parse_cpu_model(
      sysfs_root == "/sys" ? "/proc/cpuinfo" : sysfs_root + "/cpuinfo");
  const std::string base = sysfs_root + "/devices/system/cpu";

  // Enumerate cpu directories; fall back to the sysconf count (flat
  // model) when the sysfs tree is unavailable.
  std::vector<int> cpu_ids = enumerate_indexed(base, "cpu");
  if (cpu_ids.empty()) {
    const long n_online = sysconf(_SC_NPROCESSORS_ONLN);
    const int ncpu = n_online > 0 ? static_cast<int>(n_online) : 1;
    for (int c = 0; c < ncpu; ++c) {
      cpu_ids.push_back(c);
    }
  }

  std::set<std::string> llc_domains;
  for (const int c : cpu_ids) {
    const std::string cdir = base + "/cpu" + std::to_string(c);
    CpuInfo info;
    info.cpu_id = c;
    info.package_id = static_cast<int>(
        read_long(cdir + "/topology/physical_package_id", 0));
    info.core_id =
        static_cast<int>(read_long(cdir + "/topology/core_id", c));

    // Highest-index cache directory is the LLC.
    for (int idx = 4; idx >= 0; --idx) {
      const std::string cache =
          cdir + "/cache/index" + std::to_string(idx);
      const std::string type = read_line(cache + "/type");
      if (type.empty() || type == "Instruction") {
        continue;
      }
      const std::string shared =
          read_line(cache + "/shared_cpu_list");
      info.llc_siblings = parse_cpulist(shared);
      const std::size_t sz = parse_cache_size(read_line(cache + "/size"));
      if (sz > 0) {
        topo.llc_bytes = sz;
      }
      if (!shared.empty()) {
        llc_domains.insert(shared);
      }
      break;
    }
    if (info.llc_siblings.empty()) {
      info.llc_siblings = {c};
    }

    // Level-2 data/unified cache size (feeds the scheduler's chunk-size
    // heuristic). Identified by the `level` file, not the index number —
    // index-to-level mapping varies across CPUs.
    if (topo.l2_bytes == 0) {
      for (int idx = 0; idx <= 4; ++idx) {
        const std::string cache =
            cdir + "/cache/index" + std::to_string(idx);
        if (read_line(cache + "/level") != "2" ||
            read_line(cache + "/type") == "Instruction") {
          continue;
        }
        const std::size_t sz =
            parse_cache_size(read_line(cache + "/size"));
        if (sz > 0) {
          topo.l2_bytes = sz;
          break;
        }
      }
    }
    topo.cpus.push_back(info);
  }

  topo.llc_instances = llc_domains.empty() ? topo.cpus.size()
                                           : llc_domains.size();
  if (topo.llc_instances == 0) {
    topo.llc_instances = 1;
  }

  // NUMA nodes. A machine without the node directory (or a fixture that
  // omits it) is one flat node holding every cpu.
  const std::string node_base = sysfs_root + "/devices/system/node";
  for (const int n : enumerate_indexed(node_base, "node")) {
    const std::string ndir = node_base + "/node" + std::to_string(n);
    NumaNode node;
    node.node_id = n;
    node.cpus = parse_cpulist(read_line(ndir + "/cpulist"));
    node.mem_bytes = parse_node_mem(ndir + "/meminfo");
    topo.nodes.push_back(std::move(node));
  }
  if (topo.nodes.empty()) {
    NumaNode node;
    for (const auto& cpu : topo.cpus) {
      node.cpus.push_back(cpu.cpu_id);
    }
    topo.nodes.push_back(std::move(node));
  }
  for (auto& cpu : topo.cpus) {
    cpu.node_id = topo.node_of_cpu(cpu.cpu_id);
  }
  return topo;
}

std::vector<int> plan_placement(const Topology& topo, std::size_t nthreads,
                                Placement policy) {
  std::vector<int> plan;
  if (topo.cpus.empty() || nthreads == 0) {
    for (std::size_t i = 0; i < nthreads; ++i) {
      plan.push_back(static_cast<int>(i));
    }
    return plan;
  }

  std::map<int, const CpuInfo*> by_id;
  for (const auto& cpu : topo.cpus) {
    by_id[cpu.cpu_id] = &cpu;
  }

  // Group logical CPUs by LLC domain, represented by the sorted sibling
  // list. Within a domain, order distinct physical cores before SMT
  // siblings: the k-th cpu of every (package, core) pair is taken before
  // any core's (k+1)-th, so two threads land on two cores, not one
  // hyperthreaded core.
  std::map<std::vector<int>, std::vector<int>> domains;
  for (const auto& cpu : topo.cpus) {
    auto key = cpu.llc_siblings;
    std::sort(key.begin(), key.end());
    domains[key].push_back(cpu.cpu_id);
  }
  struct Group {
    int node = 0;
    std::vector<int> members;  ///< core-first order
  };
  std::vector<Group> groups;
  groups.reserve(domains.size());
  for (auto& [key, members] : domains) {
    std::sort(members.begin(), members.end());
    std::map<std::pair<int, int>, std::vector<int>> cores;
    for (const int c : members) {
      const CpuInfo* info = by_id.count(c) ? by_id.at(c) : nullptr;
      const auto core_key = info != nullptr
                                ? std::make_pair(info->package_id,
                                                 info->core_id)
                                : std::make_pair(0, c);
      cores[core_key].push_back(c);
    }
    Group g;
    for (std::size_t round = 0; g.members.size() < members.size();
         ++round) {
      for (const auto& [core_key, cpus_of_core] : cores) {
        if (round < cpus_of_core.size()) {
          g.members.push_back(cpus_of_core[round]);
        }
      }
    }
    g.node = topo.node_of_cpu(g.members.front());
    groups.push_back(std::move(g));
  }

  // Node-aware group order. Close-first fills one node completely before
  // the next (pages first-touched there stay local to every thread until
  // the node is full); spread alternates nodes before using a second
  // cache domain of the same node, maximizing aggregate bandwidth.
  std::stable_sort(groups.begin(), groups.end(),
                   [](const Group& a, const Group& b) {
                     if (a.node != b.node) {
                       return a.node < b.node;
                     }
                     return a.members < b.members;
                   });
  if (policy == Placement::kSpreadCaches) {
    std::map<int, std::size_t> domain_index;  // per node, seen so far
    std::vector<std::pair<std::size_t, std::size_t>> order;  // (idx-in-node, pos)
    for (std::size_t i = 0; i < groups.size(); ++i) {
      order.emplace_back(domain_index[groups[i].node]++, i);
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    std::vector<Group> interleaved;
    interleaved.reserve(groups.size());
    for (const auto& [idx, pos] : order) {
      interleaved.push_back(std::move(groups[pos]));
    }
    groups = std::move(interleaved);
  }

  if (policy == Placement::kCloseFirst) {
    // Fill one cache domain completely before moving to the next.
    for (const auto& g : groups) {
      for (int c : g.members) {
        if (plan.size() == nthreads) {
          return plan;
        }
        plan.push_back(c);
      }
    }
  } else {
    // Round-robin across domains so threads land on distinct caches first.
    for (std::size_t round = 0; plan.size() < nthreads; ++round) {
      bool placed = false;
      for (const auto& g : groups) {
        if (round < g.members.size()) {
          plan.push_back(g.members[round]);
          placed = true;
          if (plan.size() == nthreads) {
            return plan;
          }
        }
      }
      if (!placed) {
        break;  // more threads than CPUs — wrap around below
      }
    }
  }
  // Oversubscription: wrap modulo the CPU count, preserving the policy order.
  const std::size_t have = plan.size();
  if (have == 0) {
    plan.push_back(0);
  }
  while (plan.size() < nthreads) {
    plan.push_back(plan[plan.size() % std::max<std::size_t>(1, have)]);
  }
  return plan;
}

bool pin_thread_to_cpu(int cpu_id) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu_id), &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

std::string describe_topology(const Topology& topo) {
  std::ostringstream os;
  std::set<int> packages;
  for (const auto& c : topo.cpus) {
    packages.insert(c.package_id);
  }
  os << topo.num_cpus() << " logical CPU(s), " << packages.size()
     << " package(s), " << topo.num_nodes() << " NUMA node(s), "
     << topo.llc_instances << " LLC domain(s)";
  if (topo.llc_bytes > 0) {
    os << " of " << (topo.llc_bytes / 1024) << " KiB each";
  }
  return os.str();
}

}  // namespace spc
