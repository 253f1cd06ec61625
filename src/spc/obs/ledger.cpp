#include "spc/obs/ledger.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "spc/support/error.hpp"
#include "spc/support/env.hpp"
#include "spc/support/topology.hpp"

#ifndef SPC_GIT_SHA
#define SPC_GIT_SHA "unknown"
#endif

namespace spc::obs {

namespace {

std::string fnv1a_hex(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

std::string json_str(const Json& j, const char* key) {
  const Json* v = j.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

std::uint64_t json_u64(const Json& j, const char* key,
                       std::uint64_t dflt = 0) {
  const Json* v = j.find(key);
  return v != nullptr ? v->as_u64(dflt) : dflt;
}

double json_num(const Json& j, const char* key, double dflt = 0.0) {
  const Json* v = j.find(key);
  return v != nullptr ? v->as_double(dflt) : dflt;
}

// Widest vector tier the host CPU supports. Probed directly (not via the
// spmv dispatch layer, which sits above obs in the link order): the
// fingerprint records a *machine* property — what the hardware can run —
// while each record's "isa" field reports what actually executed.
std::string host_isa_name() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return "avx2";
  }
  if (__builtin_cpu_supports("sse4.2")) {
    return "sse42";
  }
#endif
  return "scalar";
}

}  // namespace

Json MachineFingerprint::to_json() const {
  Json j = Json::object();
  j.set("cpu", cpu_model);
  j.set("cpus", static_cast<std::uint64_t>(cpus));
  j.set("numa_nodes", static_cast<std::uint64_t>(numa_nodes));
  j.set("llc_bytes", static_cast<std::uint64_t>(llc_bytes));
  j.set("llc_instances", static_cast<std::uint64_t>(llc_instances));
  j.set("l2_bytes", static_cast<std::uint64_t>(l2_bytes));
  j.set("isa", isa);
  j.set("host", hostname);
  return j;
}

std::string MachineFingerprint::id() const {
  // Hostname excluded: identical hardware → identical id, so a baseline
  // recorded on one of several like machines stays usable on its twins.
  MachineFingerprint anon = *this;
  anon.hostname.clear();
  return fnv1a_hex(anon.to_json().dump());
}

MachineFingerprint MachineFingerprint::from_json(const Json& j) {
  MachineFingerprint fp;
  fp.cpu_model = json_str(j, "cpu");
  fp.cpus = static_cast<std::size_t>(json_u64(j, "cpus"));
  fp.numa_nodes = static_cast<std::size_t>(json_u64(j, "numa_nodes", 1));
  fp.llc_bytes = static_cast<std::size_t>(json_u64(j, "llc_bytes"));
  fp.llc_instances =
      static_cast<std::size_t>(json_u64(j, "llc_instances", 1));
  fp.l2_bytes = static_cast<std::size_t>(json_u64(j, "l2_bytes"));
  fp.isa = json_str(j, "isa");
  fp.hostname = json_str(j, "host");
  return fp;
}

const MachineFingerprint& machine_fingerprint() {
  static const MachineFingerprint fp = [] {
    const Topology topo = discover_topology();
    MachineFingerprint f;
    f.cpu_model = topo.cpu_model;
    f.cpus = topo.num_cpus();
    f.numa_nodes = topo.num_nodes();
    f.llc_bytes = topo.llc_bytes;
    f.llc_instances = topo.llc_instances;
    f.l2_bytes = topo.l2_bytes;
    f.isa = host_isa_name();
    char host[256] = {0};
    if (::gethostname(host, sizeof(host) - 1) == 0) {
      f.hostname = host;
    }
    return f;
  }();
  return fp;
}

std::string build_git_sha() {
  if (const auto env = env_str("SPC_GIT_SHA")) {
    return *env;
  }
  return SPC_GIT_SHA;
}

std::string LedgerRecord::key() const {
  std::ostringstream os;
  os << bench << '|' << matrix << '|' << format << '|' << isa << '|'
     << numa << '|' << schedule << '|' << tuned << '|' << threads;
  return os.str();
}

bool parse_ledger_record(const Json& j, LedgerRecord* out) {
  if (!j.is_object()) {
    return false;
  }
  LedgerRecord r;
  r.bench = json_str(j, "bench");
  r.matrix = json_str(j, "matrix");
  r.cls = json_str(j, "cls");
  r.set = json_str(j, "set");
  r.format = json_str(j, "format");
  // Pre-dispatch / pre-NUMA / pre-scheduler records group under what
  // actually produced them, mirroring profile_report.
  r.isa = json_str(j, "isa");
  if (r.isa.empty()) {
    r.isa = "scalar";
  }
  r.numa = json_str(j, "numa");
  if (r.numa.empty()) {
    r.numa = "off";
  }
  r.schedule = json_str(j, "schedule");
  if (r.schedule.empty()) {
    r.schedule = "static";
  }
  // Pre-tuner records were all hand-picked cells.
  r.tuned = json_str(j, "tuned");
  if (r.tuned.empty()) {
    r.tuned = "no";
  }
  r.probe_ns = json_u64(j, "probe_ns");
  if (const Json* hit = j.find("cache_hit")) {
    r.cache_hit = hit->as_bool();
  }
  r.threads = static_cast<std::size_t>(json_u64(j, "threads", 1));
  r.machine_id = json_str(j, "machine_id");
  r.git_sha = json_str(j, "git_sha");
  r.nnz = json_u64(j, "nnz");
  r.iterations = static_cast<std::size_t>(json_u64(j, "iters"));
  r.seconds = json_num(j, "seconds");
  r.ns_per_nnz = json_num(j, "ns_per_nnz");
  r.bytes_per_nnz = json_num(j, "bytes_per_nnz");
  if (const Json* roof = j.find("roofline");
      roof != nullptr && roof->is_object()) {
    r.frac_roofline = json_num(*roof, "frac");
  }
  if (const Json* samples = j.find("samples_ns");
      samples != nullptr && samples->is_array()) {
    r.samples_ns.reserve(samples->size());
    for (std::size_t i = 0; i < samples->size(); ++i) {
      // Non-finite samples serialize as null (see json.hpp); treating
      // them as 0 would fabricate impossibly fast iterations.
      const Json& e = samples->at(i);
      if (!e.is_number()) {
        continue;
      }
      const double s = e.as_double();
      if (std::isfinite(s)) {
        r.samples_ns.push_back(s);
      }
    }
  }
  if (r.matrix.empty() || r.format.empty()) {
    return false;
  }
  *out = std::move(r);
  return true;
}

std::vector<LedgerRecord> read_ledger(const std::string& path,
                                      std::size_t* bad_lines) {
  std::vector<LedgerRecord> records;
  std::size_t bad = 0;
  std::ifstream f(path);
  if (!f) {
    if (bad_lines != nullptr) {
      *bad_lines = 0;
    }
    return records;
  }
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty()) {
      continue;
    }
    Json j;
    try {
      j = Json::parse(line);
    } catch (const Error&) {
      ++bad;
      continue;
    }
    LedgerRecord r;
    if (parse_ledger_record(j, &r)) {
      records.push_back(std::move(r));
    } else {
      ++bad;
    }
  }
  if (bad_lines != nullptr) {
    *bad_lines = bad;
  }
  return records;
}

void append_ledger(const std::string& path, const Json& record) {
  std::ofstream f(path, std::ios::app);
  if (!f) {
    throw Error("ledger: cannot open " + path + " for append");
  }
  f << record.dump() << '\n';
  f.flush();
}

}  // namespace spc::obs
