#include "spc/formats/bcsr.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "spc/gen/generators.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

TEST(Bcsr, RoundTripPaperMatrix) {
  const Triplets orig = test::paper_matrix();
  for (const index_t br : {1u, 2u, 3u}) {
    for (const index_t bc : {1u, 2u, 3u}) {
      test::expect_triplets_eq(
          orig, Bcsr::from_triplets(orig, br, bc).to_triplets());
    }
  }
}

TEST(Bcsr, OneByOneBlocksEqualCsrStructure) {
  const Triplets t = test::paper_matrix();
  const Bcsr m = Bcsr::from_triplets(t, 1, 1);
  EXPECT_EQ(m.nblocks(), t.nnz());
  EXPECT_DOUBLE_EQ(m.fill_ratio(), 1.0);
}

TEST(Bcsr, FillRatioOnDenseBlocks) {
  // A perfectly 2x2-blocked matrix has fill ratio 1 at block 2x2.
  Rng rng(3);
  const Triplets t =
      gen_fem_blocks(50, 2, 4, rng, ValueModel::random());
  const Bcsr aligned = Bcsr::from_triplets(t, 2, 2);
  EXPECT_DOUBLE_EQ(aligned.fill_ratio(), 1.0);
  // A misaligned block shape must pay fill-in.
  const Bcsr misaligned = Bcsr::from_triplets(t, 3, 3);
  EXPECT_GT(misaligned.fill_ratio(), 1.0);
}

TEST(Bcsr, IndexBytesShrinkWithBlocking) {
  Rng rng(4);
  const Triplets t =
      gen_fem_blocks(200, 4, 5, rng, ValueModel::random());
  const Bcsr b1 = Bcsr::from_triplets(t, 1, 1);
  const Bcsr b4 = Bcsr::from_triplets(t, 4, 4);
  const usize_t idx1 = b1.bytes() - b1.stored_values() * 8;
  const usize_t idx4 = b4.bytes() - b4.stored_values() * 8;
  EXPECT_LT(idx4, idx1 / 8);
}

TEST(Bcsr, RaggedEdgesHandled) {
  // 7x5 matrix with 2x2 blocks: bottom and right edges are partial.
  Triplets t(7, 5);
  for (index_t r = 0; r < 7; ++r) {
    for (index_t c = 0; c < 5; ++c) {
      if ((r + c) % 2 == 0) {
        t.add(r, c, static_cast<value_t>(1 + r * 5 + c));
      }
    }
  }
  t.sort_and_combine();
  test::expect_triplets_eq(t,
                           Bcsr::from_triplets(t, 2, 2).to_triplets());
}

TEST(Bcsr, RejectsOversizedBlocks) {
  const Triplets t = test::paper_matrix();
  EXPECT_THROW(Bcsr::from_triplets(t, 9, 1), Error);
  EXPECT_THROW(Bcsr::from_triplets(t, 1, 0), Error);
}

TEST(Bcsr, EmptyMatrix) {
  Triplets t(4, 4);
  const Bcsr m = Bcsr::from_triplets(t, 2, 2);
  EXPECT_EQ(m.nblocks(), 0u);
  EXPECT_EQ(m.nnz(), 0u);
}

struct BcsrCase {
  index_t br, bc;
  int seed;
};

class BcsrRoundTrip : public ::testing::TestWithParam<BcsrCase> {};

TEST_P(BcsrRoundTrip, RandomMatrices) {
  const BcsrCase& c = GetParam();
  Rng rng(900 + c.seed);
  // Nonzero values only: zeros are indistinguishable from block fill.
  Triplets t(1 + static_cast<index_t>(rng.next_below(100)),
             1 + static_cast<index_t>(rng.next_below(100)));
  const usize_t n = rng.next_below(2000);
  for (usize_t k = 0; k < n; ++k) {
    t.add(static_cast<index_t>(rng.next_below(t.nrows())),
          static_cast<index_t>(rng.next_below(t.ncols())),
          1.0 + rng.next_double());
  }
  t.sort_and_combine();
  test::expect_triplets_eq(
      t, Bcsr::from_triplets(t, c.br, c.bc).to_triplets());
}

INSTANTIATE_TEST_SUITE_P(
    BlockShapes, BcsrRoundTrip,
    ::testing::Values(BcsrCase{1, 1, 0}, BcsrCase{2, 2, 1},
                      BcsrCase{4, 4, 2}, BcsrCase{2, 4, 3},
                      BcsrCase{4, 2, 4}, BcsrCase{3, 5, 5},
                      BcsrCase{8, 8, 6}, BcsrCase{1, 8, 7},
                      BcsrCase{8, 1, 8}));

// The builder BCSR had before it built one block row at a time: every
// occupied block in a std::map keyed by (block row, block column). Kept
// as the oracle the block-row builder must match byte for byte.
struct MapBcsr {
  std::vector<index_t> row_ptr;
  std::vector<index_t> col;
  std::vector<value_t> values;
};

MapBcsr map_bcsr(const Triplets& t, index_t br, index_t bc) {
  std::map<std::pair<index_t, index_t>, usize_t> block_of;
  for (const Entry& e : t.entries()) {
    block_of.emplace(std::make_pair(e.row / br, e.col / bc), 0);
  }
  MapBcsr m;
  m.row_ptr.assign((t.nrows() + br - 1) / br + 1, 0);
  usize_t slot = 0;
  for (auto& [coord, idx] : block_of) {
    ++m.row_ptr[coord.first + 1];
    idx = slot++;
    m.col.push_back(coord.second * bc);
  }
  for (std::size_t r = 0; r + 1 < m.row_ptr.size(); ++r) {
    m.row_ptr[r + 1] += m.row_ptr[r];
  }
  const usize_t elems = static_cast<usize_t>(br) * bc;
  m.values.assign(block_of.size() * elems, 0.0);
  for (const Entry& e : t.entries()) {
    const usize_t s = block_of[std::make_pair(e.row / br, e.col / bc)];
    m.values[s * elems + static_cast<usize_t>(e.row % br) * bc +
             e.col % bc] = e.val;
  }
  return m;
}

void expect_same_as_map(const Triplets& t, index_t br, index_t bc,
                        const std::string& what) {
  const Bcsr got = Bcsr::from_triplets(t, br, bc);
  const MapBcsr want = map_bcsr(t, br, bc);
  const std::string cell =
      what + " " + std::to_string(br) + "x" + std::to_string(bc);
  EXPECT_EQ(std::vector<index_t>(got.block_row_ptr().begin(),
                                 got.block_row_ptr().end()),
            want.row_ptr)
      << cell;
  EXPECT_EQ(std::vector<index_t>(got.block_col().begin(),
                                 got.block_col().end()),
            want.col)
      << cell;
  ASSERT_EQ(got.values().size(), want.values.size()) << cell;
  EXPECT_EQ(std::memcmp(got.values().data(), want.values.data(),
                        want.values.size() * sizeof(value_t)),
            0)
      << cell;
}

const std::pair<index_t, index_t> kShapes[] = {
    {1, 1}, {2, 2}, {3, 2}, {2, 5}, {4, 4}, {8, 8}, {1, 8}, {8, 1}};

TEST(BcsrBuilder, MatchesTheMapBuilderOnTheSwarm) {
  for (int seed = 0; seed < 21; ++seed) {
    const Triplets t = test::swarm_matrix(seed);
    for (const auto& [br, bc] : kShapes) {
      expect_same_as_map(t, br, bc, "seed " + std::to_string(seed));
    }
  }
}

TEST(BcsrBuilder, MatchesTheMapBuilderOnEdgeShapes) {
  // Block rows 1..3 empty at 2x2 (rows 2..7 hold nothing).
  Triplets gaps(12, 12);
  for (const index_t r : {0u, 1u, 8u, 11u}) {
    for (index_t c = r % 3; c < 12; c += 3) {
      gaps.add(r, c, 1.0 + r + 0.5 * c);
    }
  }
  gaps.sort_and_combine();
  // ncols not a multiple of any block width but 1.
  Rng rng(17);
  const Triplets ragged = test::random_triplets(23, 13, 120, rng);
  Triplets one(1, 1);
  one.add(0, 0, -3.5);
  one.sort_and_combine();
  const Triplets none(9, 7);
  for (const auto& [br, bc] : kShapes) {
    expect_same_as_map(gaps, br, bc, "empty block rows");
    expect_same_as_map(ragged, br, bc, "23x13");
    expect_same_as_map(one, br, bc, "1x1");
    expect_same_as_map(none, br, bc, "nnz 0");
  }
}

}  // namespace
}  // namespace spc
