#include "spc/tune/cache.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "spc/obs/json.hpp"
#include "spc/obs/ledger.hpp"
#include "spc/support/env.hpp"
#include "spc/support/error.hpp"

namespace spc::tune {

namespace {

std::string json_str(const obs::Json& j, const char* key) {
  const obs::Json* v = j.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

bool parse_entry(const obs::Json& j, TuneCacheEntry* out) {
  // v1 lines keyed matrices by the byte-wise FNV-1a fingerprint, and v2
  // keys carried a NUMA policy; neither can match a v3 key, so they read
  // as bad lines.
  if (!j.is_object() || json_str(j, "tune") != "v3") {
    return false;
  }
  TuneCacheEntry e;
  e.key.matrix_fp = json_str(j, "matrix_fp");
  e.key.machine_id = json_str(j, "machine_id");
  const obs::Json* threads = j.find("threads");
  e.key.threads =
      threads != nullptr ? static_cast<std::size_t>(threads->as_u64(1)) : 1;
  e.key.isa = json_str(j, "isa");
  e.key.schedule = json_str(j, "schedule");
  e.format = json_str(j, "format");
  if (const obs::Json* v = j.find("probe_ns")) {
    e.probe_ns = v->as_u64();
  }
  if (const obs::Json* v = j.find("ns_per_iter")) {
    e.best_ns_per_iter = v->as_double();
  }
  e.git_sha = json_str(j, "git_sha");
  if (e.key.matrix_fp.empty() || e.key.machine_id.empty() ||
      e.format.empty()) {
    return false;
  }
  *out = std::move(e);
  return true;
}

obs::Json entry_json(const TuneCacheEntry& e) {
  obs::Json j = obs::Json::object();
  j.set("tune", "v3");
  j.set("matrix_fp", e.key.matrix_fp);
  j.set("machine_id", e.key.machine_id);
  j.set("threads", static_cast<std::uint64_t>(e.key.threads));
  j.set("isa", e.key.isa);
  j.set("schedule", e.key.schedule);
  j.set("format", e.format);
  j.set("probe_ns", e.probe_ns);
  j.set("ns_per_iter", e.best_ns_per_iter);
  j.set("git_sha", e.git_sha);
  return j;
}

}  // namespace

std::string TuneCacheKey::key() const {
  std::ostringstream os;
  os << matrix_fp << '|' << machine_id << '|' << threads << '|' << isa
     << '|' << schedule;
  return os.str();
}

std::string TuneCache::default_path() {
  if (const auto p = env_str("SPC_TUNE_CACHE")) {
    return *p;
  }
  return "results/tune_cache.jsonl";
}

TuneCache::TuneCache(std::string path) : path_(std::move(path)) {
  std::ifstream f(path_);
  if (!f) {
    return;  // no cache yet: every lookup misses
  }
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty()) {
      continue;
    }
    obs::Json j;
    try {
      j = obs::Json::parse(line);
    } catch (const Error&) {
      ++bad_lines_;
      continue;
    }
    TuneCacheEntry e;
    if (parse_entry(j, &e)) {
      entries_[e.key.key()] = std::move(e);
    } else {
      ++bad_lines_;
    }
  }
}

bool TuneCache::lookup(const TuneCacheKey& key, TuneCacheEntry* out) const {
  const auto it = entries_.find(key.key());
  if (it == entries_.end()) {
    return false;
  }
  if (out != nullptr) {
    *out = it->second;
  }
  return true;
}

void TuneCache::store(const TuneCacheEntry& entry) {
  entries_[entry.key.key()] = entry;
  const std::filesystem::path p(path_);
  std::error_code ec;  // best-effort; the open below is the real test
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream f(path_, std::ios::app);
  if (!f) {
    static bool warned = false;
    if (!warned) {
      warned = true;
      std::fprintf(stderr,
                   "spc: tune cache %s is not writable; probed winners "
                   "will not persist past this process\n",
                   path_.c_str());
    }
    return;
  }
  f << entry_json(entry).dump() << '\n';
  f.flush();
}

}  // namespace spc::tune
