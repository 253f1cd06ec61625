#include "spc/parallel/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "spc/formats/csr.hpp"
#include "spc/gen/generators.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

aligned_vector<index_t> row_ptr_of(const Triplets& t) {
  return Csr::from_triplets(t).row_ptr();
}

TEST(Schedule, NamesRoundTrip) {
  for (const Schedule s : {Schedule::kStatic, Schedule::kSteal}) {
    Schedule parsed = Schedule::kStatic;
    EXPECT_TRUE(parse_schedule(schedule_name(s), &parsed));
    EXPECT_EQ(parsed, s);
  }
  Schedule out = Schedule::kSteal;
  EXPECT_FALSE(parse_schedule("bogus", &out));
  EXPECT_EQ(out, Schedule::kSteal);  // untouched on failure
  EXPECT_TRUE(parse_schedule("STEAL", &out));  // case-insensitive
}

TEST(Schedule, EnvOverridesFallback) {
  {
    test::ScopedEnv env("SPC_SCHED", "steal");
    EXPECT_EQ(schedule_from_env(Schedule::kStatic), Schedule::kSteal);
  }
  {
    test::ScopedEnv env("SPC_SCHED", "");
    EXPECT_EQ(schedule_from_env(Schedule::kSteal), Schedule::kSteal);
  }
  {
    // Retired names are unparseable like any other.
    test::ScopedEnv env("SPC_SCHED", "chunked");
    EXPECT_EQ(schedule_from_env(Schedule::kSteal), Schedule::kSteal);
  }
}

TEST(Schedule, ChunkNnzEnvOverridesFallback) {
  {
    test::ScopedEnv env("SPC_CHUNK_NNZ", "4096");
    EXPECT_EQ(chunk_nnz_from_env(100), 4096u);
  }
  for (const char* bad : {"", "0", "nope", "12x"}) {
    test::ScopedEnv env("SPC_CHUNK_NNZ", bad);
    EXPECT_EQ(chunk_nnz_from_env(100), 100u) << "'" << bad << "'";
  }
}

TEST(Schedule, ChunkTargetScalesWithL2AndClamps) {
  // 256 KiB L2 → 128 KiB budget / ~12 B per nnz ≈ 10922.
  EXPECT_EQ(chunk_target_nnz(256 * 1024), 256u * 1024 / 2 / 12);
  EXPECT_EQ(chunk_target_nnz(0), chunk_target_nnz(256 * 1024));  // default
  EXPECT_EQ(chunk_target_nnz(1), 1024u);                  // lower clamp
  EXPECT_EQ(chunk_target_nnz(std::size_t{1} << 40), 512u * 1024);  // upper
  // Monotone in between.
  EXPECT_LT(chunk_target_nnz(256 * 1024), chunk_target_nnz(1024 * 1024));
}

TEST(PlanChunks, TilesEveryThreadRangeExactly) {
  Rng rng(11);
  const Triplets t = test::random_triplets(2000, 500, 30000, rng);
  const auto rp = row_ptr_of(t);
  const RowPartition threads = partition_rows_by_nnz(rp, 4);
  const ChunkPlan plan = plan_chunks(t, threads, 1024);

  ASSERT_GT(plan.nchunks(), 4u);  // 30k nnz / 1k target → many chunks
  // Chunk bounds are strictly increasing and tile [0, nrows).
  EXPECT_EQ(plan.bounds.front(), 0u);
  EXPECT_EQ(plan.bounds.back(), 2000u);
  for (std::size_t c = 0; c < plan.nchunks(); ++c) {
    EXPECT_LT(plan.row_begin(c), plan.row_end(c));
  }
  // Every thread boundary is a chunk boundary, and the owner ranges
  // partition the chunk ids.
  EXPECT_EQ(plan.owner_begin.front(), 0u);
  EXPECT_EQ(plan.owner_begin.back(), plan.nchunks());
  for (std::size_t th = 0; th < 4; ++th) {
    EXPECT_EQ(plan.bounds[plan.owner_begin[th]], threads.row_begin(th));
    EXPECT_EQ(plan.bounds[plan.owner_begin[th + 1]], threads.row_end(th));
    for (std::uint32_t c = plan.owner_begin[th];
         c < plan.owner_begin[th + 1]; ++c) {
      EXPECT_EQ(plan.owner[c], th);
    }
  }
}

TEST(PlanChunks, ChunkNnzStaysNearTarget) {
  // Uniform 10-nnz rows: every chunk except range tails must be within
  // one row of the target.
  Triplets t(1000, 64);
  for (index_t r = 0; r < 1000; ++r) {
    for (index_t c = 0; c < 10; ++c) {
      t.add(r, (r + c * 7) % 64, 1.0);
    }
  }
  t.sort_and_combine();
  const auto rp = row_ptr_of(t);
  const RowPartition threads = partition_rows_by_nnz(rp, 4);
  const usize_t target = 500;
  const ChunkPlan plan = plan_chunks(t, threads, target);
  for (std::size_t c = 0; c < plan.nchunks(); ++c) {
    const usize_t nnz = rp[plan.row_end(c)] - rp[plan.row_begin(c)];
    EXPECT_LE(nnz, target + 10);
    EXPECT_GT(nnz, 0u);
  }
}

TEST(PlanChunks, SmallRangesStayWhole) {
  Rng rng(12);
  const Triplets t = test::random_triplets(100, 100, 400, rng);
  const auto rp = row_ptr_of(t);
  const RowPartition threads = partition_rows_by_nnz(rp, 4);
  // Target far above any range's nnz: one chunk per non-empty range.
  const ChunkPlan plan = plan_chunks(t, threads, 1u << 20);
  EXPECT_EQ(plan.nchunks(), 4u);
  for (std::size_t th = 0; th < 4; ++th) {
    EXPECT_EQ(plan.owner_begin[th + 1] - plan.owner_begin[th], 1u);
  }
}

TEST(PlanChunks, EmptyRangesOwnZeroChunks) {
  // 3 rows across 8 threads: trailing ranges are empty and must own no
  // chunks, while the plan still covers all rows.
  Triplets t(3, 3);
  t.add(0, 0, 1.0);
  t.add(1, 1, 1.0);
  t.add(2, 2, 1.0);
  t.sort_and_combine();
  const auto rp = row_ptr_of(t);
  const RowPartition threads = partition_rows_by_nnz(rp, 8);
  const ChunkPlan plan = plan_chunks(t, threads, 1024);
  EXPECT_EQ(plan.bounds.back(), 3u);
  std::size_t total = 0;
  for (std::size_t th = 0; th < 8; ++th) {
    const std::size_t owned =
        plan.owner_begin[th + 1] - plan.owner_begin[th];
    if (threads.row_begin(th) == threads.row_end(th)) {
      EXPECT_EQ(owned, 0u);
    }
    total += owned;
  }
  EXPECT_EQ(total, plan.nchunks());
}

TEST(PlanChunks, TrailingEmptyRowsAreCovered) {
  // All nnz in the first rows, then a long empty tail within one
  // thread's range: chunks must still cover every row (the kernels zero
  // y for empty rows).
  Triplets t(500, 8);
  for (index_t r = 0; r < 20; ++r) {
    for (index_t c = 0; c < 8; ++c) {
      t.add(r, c, 1.0);
    }
  }
  t.sort_and_combine();
  const auto rp = row_ptr_of(t);
  const RowPartition threads = partition_rows_by_nnz(rp, 2);
  const ChunkPlan plan = plan_chunks(t, threads, 32);
  EXPECT_EQ(plan.bounds.front(), 0u);
  EXPECT_EQ(plan.bounds.back(), 500u);
  for (std::size_t c = 1; c < plan.bounds.size(); ++c) {
    EXPECT_LT(plan.bounds[c - 1], plan.bounds[c]);
  }
}

TEST(StealVictims, PlainRotationWithoutTopology) {
  const auto order = steal_victim_order(4, {});
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(order[1], (std::vector<std::uint32_t>{2, 3, 0}));
  EXPECT_EQ(order[3], (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(StealVictims, SameNodeVictimsComeFirst) {
  // Workers 0,1 on node 0; workers 2,3 on node 1.
  const auto order = steal_victim_order(4, {0, 0, 1, 1});
  EXPECT_EQ(order[0], (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(order[1], (std::vector<std::uint32_t>{0, 2, 3}));
  EXPECT_EQ(order[2], (std::vector<std::uint32_t>{3, 0, 1}));
  EXPECT_EQ(order[3], (std::vector<std::uint32_t>{2, 0, 1}));
}

TEST(StealVictims, EveryListIsAPermutationOfTheOthers) {
  for (const std::size_t n : {1u, 2u, 3u, 5u, 8u}) {
    std::vector<int> nodes(n);
    for (std::size_t t = 0; t < n; ++t) {
      nodes[t] = static_cast<int>(t % 2);
    }
    const auto order = steal_victim_order(n, nodes);
    ASSERT_EQ(order.size(), n);
    for (std::size_t t = 0; t < n; ++t) {
      EXPECT_EQ(order[t].size(), n - 1);
      std::set<std::uint32_t> seen(order[t].begin(), order[t].end());
      EXPECT_EQ(seen.size(), n - 1);
      EXPECT_EQ(seen.count(static_cast<std::uint32_t>(t)), 0u);
    }
  }
}

}  // namespace
}  // namespace spc
