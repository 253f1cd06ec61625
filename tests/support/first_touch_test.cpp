// NumaPolicy parsing/resolution, absolute indexing through rebased
// slice pointers, and the page-residency query.
//
// Placement itself (which node a page lands on) is hardware-dependent and
// checked best-effort by query_page_nodes, which must degrade gracefully.
#include "spc/support/first_touch.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "test_util.hpp"

namespace spc {
namespace {

TEST(NumaPolicy, NamesRoundTrip) {
  for (const NumaPolicy p :
       {NumaPolicy::kAuto, NumaPolicy::kOff, NumaPolicy::kLocal}) {
    NumaPolicy parsed = NumaPolicy::kAuto;
    ASSERT_TRUE(parse_numa_policy(numa_policy_name(p), &parsed))
        << numa_policy_name(p);
    EXPECT_EQ(parsed, p);
  }
}

TEST(NumaPolicy, ParseAcceptsAliases) {
  NumaPolicy p = NumaPolicy::kAuto;
  EXPECT_TRUE(parse_numa_policy("first-touch", &p));
  EXPECT_EQ(p, NumaPolicy::kLocal);
  EXPECT_TRUE(parse_numa_policy("none", &p));
  EXPECT_EQ(p, NumaPolicy::kOff);
  EXPECT_TRUE(parse_numa_policy("LOCAL", &p));
  EXPECT_EQ(p, NumaPolicy::kLocal);
}

TEST(NumaPolicy, ParseRejectsUnknownLeavingOutputUntouched) {
  NumaPolicy p = NumaPolicy::kLocal;
  // The retired x-mirror policies parse like any other unknown name.
  for (const char* name : {"sideways", "replicate", "interleaved"}) {
    EXPECT_FALSE(parse_numa_policy(name, &p)) << name;
    EXPECT_EQ(p, NumaPolicy::kLocal) << name;
  }
}

TEST(NumaPolicy, EnvOverridesFallback) {
  test::ScopedEnv env("SPC_NUMA", "local");
  EXPECT_EQ(numa_policy_from_env(NumaPolicy::kOff), NumaPolicy::kLocal);
}

TEST(NumaPolicy, BadEnvValueKeepsFallback) {
  test::ScopedEnv env("SPC_NUMA", "definitely-not-a-policy");
  EXPECT_EQ(numa_policy_from_env(NumaPolicy::kLocal), NumaPolicy::kLocal);
}

TEST(NumaPolicy, AutoResolvesByNodeCount) {
  EXPECT_EQ(resolve_numa_policy(NumaPolicy::kAuto, 1), NumaPolicy::kOff);
  EXPECT_EQ(resolve_numa_policy(NumaPolicy::kAuto, 2), NumaPolicy::kLocal);
  // Explicit policies pass through even on flat machines — the
  // single-node CI leg relies on local still having workers build their
  // slices.
  EXPECT_EQ(resolve_numa_policy(NumaPolicy::kLocal, 1), NumaPolicy::kLocal);
  EXPECT_EQ(resolve_numa_policy(NumaPolicy::kOff, 4), NumaPolicy::kOff);
}

TEST(RebasePtr, AbsoluteIndexingLandsInSlice) {
  double local[4] = {10.0, 11.0, 12.0, 13.0};
  // A slice storing absolute positions [100, 104).
  double* rebased = rebase_ptr(local, 100);
  EXPECT_EQ(rebased[100], 10.0);
  EXPECT_EQ(rebased[103], 13.0);
  EXPECT_EQ(&rebased[100], &local[0]);
}

TEST(QueryPageNodes, TouchedBufferReportsNodesOrReason) {
  std::vector<char> buf(256 * 1024, 1);  // touched → resident
  std::vector<int> nodes;
  std::string reason;
  const bool ok =
      query_page_nodes(buf.data(), buf.size(), 16, &nodes, &reason);
  if (ok) {
    EXPECT_FALSE(nodes.empty());
    EXPECT_LE(nodes.size(), 16u);
    for (const int n : nodes) {
      EXPECT_GE(n, 0);
    }
  } else {
    // Kernel without move_pages (or seccomp): degrade with a reason.
    EXPECT_FALSE(reason.empty());
  }
}

TEST(QueryPageNodes, EmptyRangeFailsGracefully) {
  std::vector<int> nodes;
  std::string reason;
  EXPECT_FALSE(query_page_nodes(nullptr, 0, 8, &nodes, &reason));
  EXPECT_FALSE(reason.empty());
}

}  // namespace
}  // namespace spc
