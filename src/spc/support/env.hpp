// Shared SPC_* environment-variable access.
//
// Every runtime knob (SPC_SCHED, SPC_NUMA, SPC_ISA, SPC_TUNE, the
// harness SPC_ITERS family, ...) reads the environment through these
// helpers instead of hand-rolled getenv + strto* + static-bool-warned
// blocks. Unset and empty both mean "not configured"; an unparseable
// value is diagnosed on stderr once per variable name for the whole
// process (not once per call site) and then treated as unset, so a typo
// in a job script produces exactly one line of noise, never silence and
// never a flood.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace spc {

/// Raw lookup: nullopt when the variable is unset or empty.
std::optional<std::string> env_str(const char* name);

/// Base-10 unsigned integer. Unparseable (including negative or
/// overflowing) values warn once and read as unset.
std::optional<std::uint64_t> env_u64(const char* name);

/// Finite double. Unparseable values warn once and read as unset.
std::optional<double> env_double(const char* name);

/// Boolean flag: 1|true|on|yes → true, 0|false|off|no → false
/// (case-insensitive). Anything else warns once and reads as unset.
std::optional<bool> env_flag(const char* name);

/// One-shot diagnostic: the first call per `name` prints
///   spc: ignoring unparseable NAME=value (want EXPECTED)
/// to stderr; later calls for the same name are silent. Callers with
/// domain checks beyond syntax (e.g. "must be positive") reuse this so
/// their diagnostics share the once-per-key ledger. Returns whether
/// this call printed.
bool env_warn_once(const char* name, const std::string& value,
                   const char* expected);

/// One registered SPC_* environment override. The registry in env.cpp is
/// the single source of truth for the library's environment surface:
/// docs/API.md's table is generated from it (env_registry_markdown), and
/// the api-surface test fails when a source file references an SPC_*
/// variable the registry does not list — so option fields and env names
/// cannot drift apart silently.
struct EnvVarInfo {
  const char* name;       ///< "SPC_SCHED"
  const char* type;       ///< "flag" | "u64" | "double" | "string" | "enum" | "path" | "list"
  const char* values;     ///< accepted syntax, human-readable
  const char* overrides;  ///< the option/field it overrides ("—" if none)
  const char* effect;     ///< one-line description
};

/// Every SPC_* environment variable the library reads, in presentation
/// order. Append-only within a release; new knobs MUST register here.
const std::vector<EnvVarInfo>& env_registry();

/// The registry rendered as a GitHub-flavored markdown table — the exact
/// text embedded between the generated-table markers in docs/API.md.
std::string env_registry_markdown();

}  // namespace spc
