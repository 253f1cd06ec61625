#include "spc/support/env.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>

#include "spc/support/strutil.hpp"

namespace spc {

std::optional<std::string> env_str(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return std::nullopt;
  }
  return std::string(v);
}

bool env_warn_once(const char* name, const std::string& value,
                   const char* expected) {
  static std::mutex mu;
  // Leaked on purpose: diagnostics may fire during static destruction
  // (atexit-registered flushes read the environment too).
  static std::set<std::string>* warned = new std::set<std::string>();
  std::lock_guard<std::mutex> lock(mu);
  if (!warned->insert(name).second) {
    return false;
  }
  std::fprintf(stderr, "spc: ignoring unparseable %s=%s (want %s)\n", name,
               value.c_str(), expected);
  return true;
}

std::optional<std::uint64_t> env_u64(const char* name) {
  const auto s = env_str(name);
  if (!s) {
    return std::nullopt;
  }
  // strtoull silently wraps negatives; reject them up front.
  const char* p = s->c_str();
  while (*p == ' ' || *p == '\t') {
    ++p;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(p, &end, 10);
  if (*p == '-' || end == p || *end != '\0' || errno == ERANGE) {
    env_warn_once(name, *s, "a non-negative integer");
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(v);
}

std::optional<double> env_double(const char* name) {
  const auto s = env_str(name);
  if (!s) {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s->c_str(), &end);
  if (end == s->c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(v)) {
    env_warn_once(name, *s, "a finite number");
    return std::nullopt;
  }
  return v;
}

std::optional<bool> env_flag(const char* name) {
  const auto s = env_str(name);
  if (!s) {
    return std::nullopt;
  }
  const std::string v = to_lower(*s);
  if (v == "1" || v == "true" || v == "on" || v == "yes") {
    return true;
  }
  if (v == "0" || v == "false" || v == "off" || v == "no") {
    return false;
  }
  env_warn_once(name, *s, "0|1|true|false|on|off|yes|no");
  return std::nullopt;
}

const std::vector<EnvVarInfo>& env_registry() {
  // Single source of truth for the SPC_* environment surface. The table
  // in docs/API.md is generated from this list (env_registry_markdown);
  // api_surface_test fails when a source file mentions an SPC_* variable
  // that is missing here, or parses the environment outside this file's
  // helpers.
  static const std::vector<EnvVarInfo> kRegistry = {
      {"SPC_ISA", "enum", "scalar|sse42|avx2",
       "dispatch tier (clamp-down)",
       "Caps the runtime kernel-dispatch tier; scalar pins the "
       "bit-reproducible reference kernels."},
      {"SPC_SCHED", "enum", "static|steal",
       "InstanceOptions::schedule",
       "Work schedule: one-range-per-worker or work stealing."},
      {"SPC_CHUNK_NNZ", "u64", "non-zeros per chunk (0 = L2-derived)",
       "InstanceOptions::chunk_nnz",
       "Target chunk weight for the steal schedule."},
      {"SPC_SYM_REDUCE", "enum", "auto|window|private",
       "InstanceOptions::sym_reduce",
       "Conflict-reduction strategy for the symmetric formats."},
      {"SPC_TUNE", "flag", "0|1|true|false|on|off|yes|no",
       "format=auto entry points",
       "Enables the per-matrix autotuner on format=auto entry points."},
      {"SPC_TUNE_CACHE", "path", "file path",
       "TuneOptions::cache_path",
       "Relocates the tuning cache (default "
       "results/tune_cache.jsonl)."},
      {"SPC_METRICS", "path", "file path", "—",
       "Enables the JSONL metrics sink and names its output file."},
      {"SPC_TRACE", "path", "file path", "—",
       "Enables the Chrome trace_event tracer and names its output "
       "file."},
      {"SPC_COUNTERS", "flag", "0|1|true|false|on|off|yes|no",
       "—",
       "Disables per-thread perf_event_open counter groups when false "
       "(default: enabled when the platform allows)."},
      {"SPC_GIT_SHA", "string", "hex revision", "configure-time stamp",
       "Overrides the build-time git revision recorded into ledger "
       "records."},
      {"SPC_ITERS", "u64", "iterations", "bench harness",
       "Timed iterations per bench cell."},
      {"SPC_WARMUP", "u64", "iterations", "bench harness",
       "Untimed warmup iterations per bench cell."},
      {"SPC_THREADS", "list", "comma-separated thread counts",
       "bench harness", "Thread counts a bench sweeps."},
      {"SPC_SCALE", "enum", "tiny|small|full", "bench harness",
       "Scales the synthetic bench corpus."},
      {"SPC_PIN", "u64", "0|1", "bench harness",
       "Disables worker pinning in the bench harness when 0."},
      {"SPC_MAX_MATRICES", "u64", "count", "bench harness",
       "Caps how many corpus matrices a bench visits."},
      {"SPC_WS_REJECT_KB", "u64", "KiB", "bench harness",
       "Working-set floor below which bench cells are skipped."},
      {"SPC_WS_LARGE_KB", "u64", "KiB", "bench harness",
       "Working-set threshold the harness labels cells 'large' at."},
      {"SPC_PAD_NS_PER_ITER", "u64", "nanoseconds", "bench harness",
       "Injects a busy-wait per timed iteration (regress_check "
       "canary)."},
      {"SPC_ROOFLINE_GBPS", "double", "GB/s", "bench harness",
       "Machine bandwidth for roofline attribution (regress_check "
       "--calibrate prints it)."},
  };
  return kRegistry;
}

std::string env_registry_markdown() {
  // Cell text may contain '|' (enum alternatives); escape it so the
  // GitHub-flavored-markdown table keeps its column structure.
  const auto cell = [](const char* s) {
    std::string esc;
    for (const char* p = s; *p != '\0'; ++p) {
      if (*p == '|') {
        esc += '\\';
      }
      esc += *p;
    }
    return esc;
  };
  std::string out;
  out += "| Variable | Type | Accepted values | Overrides | Effect |\n";
  out += "| --- | --- | --- | --- | --- |\n";
  for (const EnvVarInfo& v : env_registry()) {
    out += "| `";
    out += v.name;
    out += "` | ";
    out += cell(v.type);
    out += " | ";
    out += cell(v.values);
    out += " | ";
    out += cell(v.overrides);
    out += " | ";
    out += cell(v.effect);
    out += " |\n";
  }
  return out;
}

}  // namespace spc
