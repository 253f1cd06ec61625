// Per-thread kernel binding — the bridge between prepare-time dispatch
// and the per-run hot path.
//
// SpmvInstance::prepare() resolves the ISA tier, picks the kernel table,
// and fixes every per-thread closure (kernel function pointer + that
// thread's raw array pointers / slice / row range) once. A timed run then
// costs exactly one indirect call per worker — no format switch, no tier
// lookup, no slice recomputation on the hot path.
//
// Closures must capture only state that survives a move of the owning
// instance: heap-backed array data pointers (aligned_vector storage is
// stable across container moves) and by-value PODs (slices, row bounds).
// Never capture references or pointers to the instance's members
// themselves — those relocate when the instance moves.
#pragma once

#include <functional>
#include <vector>

#include "spc/support/types.hpp"

namespace spc {

/// One bound kernel invocation: y = (my part of A) * x.
using BoundKernel = std::function<void(const value_t* x, value_t* y)>;

/// The bound kernels of one prepared instance.
struct KernelBinding {
  BoundKernel serial;                    ///< full-matrix kernel
  std::vector<BoundKernel> per_thread;   ///< one per worker (MT instances)
  /// One closure per chunk of the scheduler's ChunkPlan (empty under
  /// static scheduling). A chunk closure binds its *owner's* arrays —
  /// chunk row ranges are disjoint, so any executing worker writes its
  /// own rows of y and results match static bit-for-bit.
  std::vector<BoundKernel> per_chunk;

  void clear() {
    serial = nullptr;
    per_thread.clear();
    per_chunk.clear();
  }
};

}  // namespace spc
