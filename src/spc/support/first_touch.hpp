// First-touch NUMA placement.
//
// Linux places an anonymous page on the NUMA node of the thread that
// first writes it. SpmvInstance encodes each worker's rows as that
// worker's own arrays, and worker t of every pooled instance builds
// slice t, so on a pinned pool every page of a slice lands on its
// owner's node — the standard placement for ccNUMA SpMV
// (Schubert/Hager/Fehske) — under every policy. The policy only decides
// the bookkeeping: under `local` the instance records each worker's node
// and answers residency queries; under `off` it does neither. The build
// happens at set-up, off the timed path, and the encoded bytes never
// depend on the policy. This header holds the policy knob, the
// rebased-pointer helper that lets kernels index a slice with absolute
// rows, and the page-residency query.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "spc/support/types.hpp"

namespace spc {

/// NUMA bookkeeping policy for a prepared SpMV instance (the SPC_NUMA
/// knob). Worker t builds (and so first-touches) slice t under each.
enum class NumaPolicy {
  kAuto,   ///< local on multi-node machines, off on flat ones
  kOff,    ///< no per-worker node records
  kLocal,  ///< records each worker's node; residency queries answer
};

/// Canonical lower-case name ("auto", "off", "local").
std::string numa_policy_name(NumaPolicy p);

/// Parses a policy name; returns false on unknown names, leaving *out
/// untouched.
bool parse_numa_policy(const std::string& name, NumaPolicy* out);

/// `fallback` overridden by a parseable SPC_NUMA environment value; an
/// unparseable value is diagnosed once to stderr and ignored.
NumaPolicy numa_policy_from_env(NumaPolicy fallback);

/// Resolves kAuto against the machine: local when `nnodes` > 1, off
/// otherwise. Non-auto policies pass through (an explicit local on a
/// flat machine still records the workers' nodes, which is what the
/// single-node CI leg relies on).
NumaPolicy resolve_numa_policy(NumaPolicy requested, std::size_t nnodes);

/// Builds a pointer that, indexed with an *absolute* position, lands in a
/// slice array that only stores positions >= `first`. The arithmetic
/// goes through uintptr_t so no pointer to outside the allocation is ever
/// formed as a typed pointer; the result must only be indexed with
/// positions inside [first, first + slice length).
template <typename T>
inline T* rebase_ptr(T* slice, std::ptrdiff_t first) {
  return reinterpret_cast<T*>(
      reinterpret_cast<std::uintptr_t>(slice) -
      static_cast<std::uintptr_t>(first) * sizeof(T));
}

/// NUMA node of each sampled page of [p, p+bytes), via the move_pages(2)
/// query form. At most `max_pages` pages are sampled, evenly spaced.
/// Returns false (and fills `reason`) when the syscall is unavailable or
/// fails — callers degrade gracefully, placement checking is best-effort
/// observability only.
bool query_page_nodes(const void* p, std::size_t bytes,
                      std::size_t max_pages, std::vector<int>* nodes,
                      std::string* reason);

}  // namespace spc
