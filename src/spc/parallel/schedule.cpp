#include "spc/parallel/schedule.hpp"

#include <algorithm>

#include "spc/support/env.hpp"
#include "spc/support/error.hpp"
#include "spc/support/strutil.hpp"

namespace spc {

std::string schedule_name(Schedule s) {
  switch (s) {
    case Schedule::kStatic:
      return "static";
    case Schedule::kSteal:
      return "steal";
  }
  return "?";
}

bool parse_schedule(const std::string& name, Schedule* out) {
  const std::string n = to_lower(name);
  for (const Schedule s : {Schedule::kStatic, Schedule::kSteal}) {
    if (schedule_name(s) == n) {
      *out = s;
      return true;
    }
  }
  return false;
}

Schedule schedule_from_env(Schedule fallback) {
  const auto env = env_str("SPC_SCHED");
  if (!env) {
    return fallback;
  }
  Schedule s = fallback;
  if (!parse_schedule(*env, &s)) {
    env_warn_once("SPC_SCHED", *env, "static|steal");
  }
  return s;
}

usize_t chunk_target_nnz(std::size_t l2_bytes) {
  if (l2_bytes == 0) {
    l2_bytes = 256 * 1024;
  }
  // ~12 matrix bytes per non-zero in CSR (the least compressed of the
  // row-partitioned formats); half the L2 leaves the other half for the
  // gathered x entries and the y stores.
  const usize_t target = static_cast<usize_t>(l2_bytes) / 2 / 12;
  return std::clamp<usize_t>(target, 1024, 512 * 1024);
}

usize_t chunk_nnz_from_env(usize_t fallback) {
  const auto v = env_u64("SPC_CHUNK_NNZ");
  if (!v) {
    return fallback;
  }
  if (*v == 0) {
    env_warn_once("SPC_CHUNK_NNZ", "0", "a positive integer");
    return fallback;
  }
  return static_cast<usize_t>(*v);
}

ChunkPlan plan_chunks(const Triplets& t, const RowPartition& threads,
                      usize_t target_nnz) {
  SPC_CHECK_MSG(target_nnz >= 1, "target_nnz must be >= 1");
  const std::size_t nthreads = threads.nthreads();
  ChunkPlan plan;
  plan.bounds.push_back(threads.nthreads() ? threads.row_begin(0) : 0);
  plan.owner_begin.assign(nthreads + 1, 0);

  for (std::size_t th = 0; th < nthreads; ++th) {
    const index_t rb = threads.row_begin(th);
    const index_t re = threads.row_end(th);
    if (rb >= re) {
      // Empty range (nthreads > nrows): zero chunks for this worker.
      plan.owner_begin[th + 1] = plan.owner_begin[th];
      continue;
    }
    const usize_t nnz_t = t.row_start(re) - t.row_start(rb);
    const std::size_t want =
        static_cast<std::size_t>((nnz_t + target_nnz - 1) / target_nnz);
    const std::size_t k = std::clamp<std::size_t>(
        want, 1, static_cast<std::size_t>(re - rb));
    if (k == 1) {
      plan.bounds.push_back(re);
    } else {
      const RowPartition sub = partition_rows_by_nnz(t, rb, re, k);
      for (std::size_t c = 0; c < sub.nthreads(); ++c) {
        const index_t end = sub.row_end(c);
        // The sub-partitioner can emit empty sub-ranges on degenerate
        // shapes; dropping them keeps every chunk non-empty in rows
        // (empty chunks would inflate deque traffic for no work).
        if (end > plan.bounds.back()) {
          plan.bounds.push_back(end);
        }
      }
      if (plan.bounds.back() != re) {
        plan.bounds.push_back(re);  // cover trailing empty rows
      }
    }
    plan.owner_begin[th + 1] =
        static_cast<std::uint32_t>(plan.bounds.size() - 1);
  }

  plan.owner.resize(plan.nchunks());
  for (std::size_t th = 0; th < nthreads; ++th) {
    for (std::uint32_t c = plan.owner_begin[th];
         c < plan.owner_begin[th + 1]; ++c) {
      plan.owner[c] = static_cast<std::uint32_t>(th);
    }
  }
  return plan;
}

std::vector<std::vector<std::uint32_t>> steal_victim_order(
    std::size_t nthreads, const std::vector<int>& thread_nodes) {
  std::vector<std::vector<std::uint32_t>> order(nthreads);
  for (std::size_t t = 0; t < nthreads; ++t) {
    std::vector<std::uint32_t> same;
    std::vector<std::uint32_t> remote;
    for (std::size_t off = 1; off < nthreads; ++off) {
      const std::size_t v = (t + off) % nthreads;
      const bool near = thread_nodes.size() != nthreads ||
                        thread_nodes[v] == thread_nodes[t];
      (near ? same : remote).push_back(static_cast<std::uint32_t>(v));
    }
    order[t] = std::move(same);
    order[t].insert(order[t].end(), remote.begin(), remote.end());
  }
  return order;
}

}  // namespace spc
