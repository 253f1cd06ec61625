// The placement report's names, absolute indexing through rebased slice
// pointers, and the page-residency query.
//
// Placement itself (which node a page lands on) is hardware-dependent and
// checked best-effort by query_page_nodes, which must degrade gracefully.
#include "spc/support/first_touch.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace spc {
namespace {

TEST(NumaPolicy, ReportNames) {
  EXPECT_EQ(numa_policy_name(NumaPolicy::kOff), "off");
  EXPECT_EQ(numa_policy_name(NumaPolicy::kLocal), "local");
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
