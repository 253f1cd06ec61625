// First-touch NUMA placement.
//
// Linux places an anonymous page on the NUMA node of the thread that
// first writes it. SpmvInstance encodes each worker's rows as that
// worker's own arrays, and worker t of every pooled instance builds
// slice t, so on a pinned pool every page of a slice lands on its
// owner's node — the standard placement for ccNUMA SpMV
// (Schubert/Hager/Fehske). A pinned pooled instance records each
// worker's node and answers residency queries; an unpinned or serial
// one has no worker nodes to record. The build happens at set-up, off
// the timed path. This header holds the placement report, the
// rebased-pointer helper that lets kernels index a slice with absolute
// rows, and the page-residency query.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "spc/support/types.hpp"

namespace spc {

/// The NUMA placement a prepared SpMV instance reports
/// (SpmvInstance::numa_policy()): a read-only report, not a setting.
enum class NumaPolicy {
  kOff,    ///< one node, or no pinned workers
  kLocal,  ///< pinned workers on a multi-node machine
};

/// Canonical lower-case name ("off", "local").
std::string numa_policy_name(NumaPolicy p);

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
