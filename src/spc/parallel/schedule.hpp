// Scheduling policies for multithreaded SpMV.
//
// The paper's static nnz-balanced partition (§II-C) equalizes flops, not
// time: cache and memory-system effects make per-row cost unknowable at
// partition time (Schubert/Hager/Fehske), so irregular matrices leave
// workers finishing far apart. The dynamic policy here keeps the static
// partition as the *assignment* — each worker still owns a contiguous
// row range, preserving first-touch NUMA placement and the bit-exact
// accumulation order — but subdivides every range into cache-sized,
// row-aligned chunks:
//
//  * kStatic  — one kernel call per worker over its whole range; the
//               zero-overhead default.
//  * kSteal   — chunks live in per-worker lock-free deques
//               (chunk_queue.hpp); workers drain their own deque, then
//               steal from victims, same-NUMA-node victims first.
//
// Chunk boundaries are row-aligned, so any executor assignment writes
// disjoint y ranges and the result is bit-identical to static at the
// scalar tier (each row's dot product is still one serial accumulation).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "spc/parallel/partition.hpp"
#include "spc/support/aligned.hpp"
#include "spc/support/types.hpp"

namespace spc {

enum class Schedule {
  kStatic,  ///< one range per worker (the paper's model; default)
  kSteal,   ///< own chunks first, then steal from NUMA-near victims
};

/// Canonical lower-case name ("static", "steal").
std::string schedule_name(Schedule s);

/// Parses a schedule name; returns false (leaving *out untouched) on
/// unknown names.
bool parse_schedule(const std::string& name, Schedule* out);

/// `fallback` overridden by a parseable SPC_SCHED environment value; an
/// unparseable value is diagnosed once to stderr and ignored.
Schedule schedule_from_env(Schedule fallback);

/// Target non-zeros per chunk for a given L2 data-cache size: half the
/// L2 in CSR-resident bytes (~12 B/nnz: 8 B value + 4 B column index),
/// clamped to [1k, 512k]. A chunk then fits comfortably in its
/// executor's private cache with room for x and y traffic, while
/// staying large enough that the per-chunk call + deque overhead stays
/// well under the kernel cost. `l2_bytes == 0` (unknown) yields the
/// clamp applied to a 256 KiB default.
usize_t chunk_target_nnz(std::size_t l2_bytes);

/// `fallback` overridden by a positive integer SPC_CHUNK_NNZ environment
/// value; zero, empty, or unparseable values are ignored.
usize_t chunk_nnz_from_env(usize_t fallback);

/// The chunk decomposition of a thread partition. Chunks are global:
/// chunk c covers rows [bounds[c], bounds[c+1]); worker t owns the
/// contiguous id range [owner_begin[t], owner_begin[t+1]). Every thread
/// boundary is also a chunk boundary, so a stolen chunk is a row
/// sub-range of its owner's slice and never crosses into another's.
struct ChunkPlan {
  std::vector<index_t> bounds;
  std::vector<std::uint32_t> owner_begin;
  std::vector<std::uint32_t> owner;  ///< owning worker per chunk

  std::size_t nchunks() const {
    return bounds.empty() ? 0 : bounds.size() - 1;
  }
  index_t row_begin(std::size_t c) const { return bounds[c]; }
  index_t row_end(std::size_t c) const { return bounds[c + 1]; }
};

/// Splits each range of `threads` into ~target_nnz-sized row-aligned
/// chunks of the sorted triplets `t`, reusing the nnz-balanced
/// partitioner within each range so chunks inherit its long-row
/// handling. Ranges with fewer non-zeros than the target stay whole;
/// empty ranges own zero chunks.
ChunkPlan plan_chunks(const Triplets& t, const RowPartition& threads,
                      usize_t target_nnz);

/// Victim visit order for each worker: same-node victims first, then
/// remote ones, each group in rotation order starting after the thief
/// (so concurrent thieves fan out over distinct victims instead of
/// convoying on one deque). `thread_nodes` maps worker -> NUMA node
/// (from SpmvInstance's pin plan); empty means topology is unknown and
/// the order degrades to plain rotation. Every returned list is a
/// permutation of the other nthreads-1 workers.
std::vector<std::vector<std::uint32_t>> steal_victim_order(
    std::size_t nthreads, const std::vector<int>& thread_nodes);

}  // namespace spc
