#include "spc/formats/csr_du.hpp"

#include <gtest/gtest.h>

#include "spc/formats/csr.hpp"
#include "spc/gen/generators.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

TEST(CsrDu, PaperTableIGoldenUnits) {
  // Table I of the paper: six u8 units, one per row, with these sizes,
  // jumps and column deltas.
  const CsrDu m = CsrDu::from_triplets(test::paper_matrix());
  const auto units = m.decode_units();
  ASSERT_EQ(units.size(), 6u);

  const std::uint32_t usize[6] = {2, 3, 1, 3, 3, 4};
  const std::uint64_t ujmp[6] = {0, 1, 2, 2, 0, 0};
  const std::vector<std::uint64_t> ucis[6] = {
      {1}, {2, 2}, {}, {2, 1}, {3, 1}, {2, 1, 2}};
  for (int u = 0; u < 6; ++u) {
    EXPECT_TRUE(units[u].new_row) << "unit " << u;
    EXPECT_EQ(units[u].cls, DeltaClass::kU8) << "unit " << u;
    EXPECT_EQ(units[u].rskip, 0u) << "unit " << u;
    EXPECT_EQ(units[u].usize, usize[u]) << "unit " << u;
    EXPECT_EQ(units[u].ujmp, ujmp[u]) << "unit " << u;
    EXPECT_EQ(units[u].ucis, ucis[u]) << "unit " << u;
  }
  EXPECT_EQ(m.unit_count(), 6u);
  EXPECT_EQ(m.unit_count_class(DeltaClass::kU8), 6u);
}

TEST(CsrDu, PaperMatrixValuesInRowMajorOrder) {
  const CsrDu m = CsrDu::from_triplets(test::paper_matrix());
  const Csr csr = Csr::from_triplets(test::paper_matrix());
  ASSERT_EQ(m.values().size(), csr.values().size());
  for (usize_t i = 0; i < m.nnz(); ++i) {
    EXPECT_DOUBLE_EQ(m.values()[i], csr.values()[i]);
  }
}

TEST(CsrDu, RoundTripPaperMatrix) {
  const Triplets orig = test::paper_matrix();
  test::expect_triplets_eq(orig,
                           CsrDu::from_triplets(orig).to_triplets());
}

TEST(CsrDu, CompressesBandedIndexData) {
  // Short deltas: ctl must be far smaller than CSR's 4-byte col_ind.
  Rng rng(3);
  const Triplets t =
      gen_banded(4000, 40, 8, rng, ValueModel::random());
  const CsrDu du = CsrDu::from_triplets(t);
  const Csr csr = Csr::from_triplets(t);
  const usize_t csr_index_bytes = csr.bytes() - csr.nnz() * 8;
  EXPECT_LT(du.ctl_bytes(), csr_index_bytes / 2);
  EXPECT_LT(du.bytes(), csr.bytes());
}

TEST(CsrDu, WideRandomMatrixStillRoundTrips) {
  Rng rng(4);
  const Triplets t = gen_random_uniform(300, 3000000, 4, rng,
                                        ValueModel::random());
  const CsrDu du = CsrDu::from_triplets(t);
  test::expect_triplets_eq(t, du.to_triplets());
  // Wide deltas force u16/u32 classes into the stream.
  EXPECT_GT(du.unit_count_class(DeltaClass::kU16) +
                du.unit_count_class(DeltaClass::kU32),
            0u);
}

TEST(CsrDu, EmptyRowsUseRowJump) {
  Triplets t(10, 10);
  t.add(0, 1, 1.0);
  t.add(4, 2, 2.0);  // rows 1-3 empty
  t.add(9, 9, 3.0);  // rows 5-8 empty
  t.sort_and_combine();
  const CsrDu m = CsrDu::from_triplets(t);
  const auto units = m.decode_units();
  ASSERT_EQ(units.size(), 3u);
  EXPECT_EQ(units[0].rskip, 0u);
  EXPECT_EQ(units[1].rskip, 3u);
  EXPECT_EQ(units[2].rskip, 4u);
  test::expect_triplets_eq(t, m.to_triplets());
}

TEST(CsrDu, LeadingEmptyRows) {
  Triplets t(6, 6);
  t.add(3, 0, 1.0);
  t.add(3, 5, 2.0);
  t.sort_and_combine();
  const CsrDu m = CsrDu::from_triplets(t);
  const auto units = m.decode_units();
  ASSERT_EQ(units.size(), 1u);
  EXPECT_EQ(units[0].rskip, 3u);
  test::expect_triplets_eq(t, m.to_triplets());
}

TEST(CsrDu, LongRowsSplitAtMaxUnit) {
  Triplets t(1, 1000);
  for (index_t c = 0; c < 1000; ++c) {
    t.add(0, c, static_cast<value_t>(c));
  }
  t.sort_and_combine();
  CsrDuOptions opts;
  opts.max_unit = 255;
  const CsrDu m = CsrDu::from_triplets(t, opts);
  usize_t total = 0;
  for (const auto& u : m.decode_units()) {
    EXPECT_LE(u.usize, 255u);
    total += u.usize;
  }
  EXPECT_EQ(total, 1000u);
  test::expect_triplets_eq(t, m.to_triplets());
}

TEST(CsrDu, SplitThresholdOneKeepsUnitsU8) {
  // With split_threshold=1, a wider delta always starts a new unit whose
  // wide jump lives in the varint ujmp — every ucis byte stays one byte.
  Rng rng(5);
  const Triplets t = gen_random_uniform(200, 100000, 12, rng,
                                        ValueModel::random());
  CsrDuOptions opts;
  opts.split_threshold = 1;
  const CsrDu m = CsrDu::from_triplets(t, opts);
  for (const auto& u : m.decode_units()) {
    EXPECT_EQ(u.cls, DeltaClass::kU8);
  }
  test::expect_triplets_eq(t, m.to_triplets());
}

TEST(CsrDu, SingleElementMatrix) {
  Triplets t(1, 1);
  t.add(0, 0, 42.0);
  t.sort_and_combine();
  const CsrDu m = CsrDu::from_triplets(t);
  ASSERT_EQ(m.decode_units().size(), 1u);
  test::expect_triplets_eq(t, m.to_triplets());
}

TEST(CsrDu, EmptyMatrixProducesEmptyStream) {
  Triplets t(5, 5);
  const CsrDu m = CsrDu::from_triplets(t);
  EXPECT_EQ(m.ctl_bytes(), 0u);
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_TRUE(m.decode_units().empty());
}

TEST(CsrDu, SlicesPartitionCtlExactly) {
  Rng rng(6);
  const Triplets t = test::random_triplets(500, 500, 6000, rng);
  const CsrDu m = CsrDu::from_triplets(t);
  // Any monotone row split must yield contiguous, exhaustive ctl ranges.
  const index_t cuts[] = {0, 100, 101, 250, 499, 500};
  const std::uint8_t* expect_next = m.ctl().data();
  usize_t nnz_total = 0;
  for (std::size_t i = 0; i + 1 < std::size(cuts); ++i) {
    const auto s = m.slice(cuts[i], cuts[i + 1]);
    EXPECT_EQ(s.ctl, expect_next) << "slice " << i;
    expect_next = s.ctl_end;
    nnz_total += s.nnz;
  }
  EXPECT_EQ(expect_next, m.ctl().data() + m.ctl_bytes());
  EXPECT_EQ(nnz_total, m.nnz());
}

TEST(CsrDu, MultiSliceMatchesPerCallSlices) {
  // slices(bounds) is the chunk-boundary query of the scheduler: one
  // O(ctl) scan must reproduce slice(b, e) field-for-field for every
  // consecutive range, including empty ones, on varied structures.
  for (const int seed : {1, 2, 3, 4, 5}) {
    Rng rng(600 + seed);
    Triplets t = seed % 2 == 0
                     ? test::random_triplets(
                           400, 400, 3000 + rng.next_below(5000), rng)
                     : gen_banded(300, 1 + static_cast<index_t>(
                                           rng.next_below(20)),
                                  1 + static_cast<index_t>(
                                          rng.next_below(6)),
                                  rng, ValueModel::random());
    const CsrDu m = CsrDu::from_triplets(t);
    // Random monotone bounds, duplicates (empty ranges) included.
    std::vector<index_t> bounds = {0};
    while (bounds.back() < m.nrows()) {
      const index_t step = static_cast<index_t>(rng.next_below(40));
      bounds.push_back(
          std::min<index_t>(m.nrows(), bounds.back() + step));
    }
    const auto many = m.slices(bounds);
    ASSERT_EQ(many.size(), bounds.size() - 1);
    for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
      const auto one = m.slice(bounds[i], bounds[i + 1]);
      EXPECT_EQ(many[i].ctl, one.ctl) << "seed " << seed << " range " << i;
      EXPECT_EQ(many[i].ctl_end, one.ctl_end) << "range " << i;
      EXPECT_EQ(many[i].values, one.values) << "range " << i;
      EXPECT_EQ(many[i].val_offset, one.val_offset) << "range " << i;
      EXPECT_EQ(many[i].row_begin, one.row_begin) << "range " << i;
      EXPECT_EQ(many[i].row_end, one.row_end) << "range " << i;
      EXPECT_EQ(many[i].row_state, one.row_state) << "range " << i;
      EXPECT_EQ(many[i].nnz, one.nnz) << "range " << i;
    }
  }
}

TEST(CsrDu, MultiSliceDegenerateBounds) {
  Triplets t(10, 10);
  t.add(0, 0, 1.0);
  t.add(9, 9, 1.0);
  t.sort_and_combine();
  const CsrDu m = CsrDu::from_triplets(t);
  EXPECT_TRUE(m.slices({}).empty());
  EXPECT_TRUE(m.slices({0}).empty());  // no ranges
  // All-empty interior ranges plus full coverage.
  const std::vector<index_t> bounds = {0, 0, 5, 5, 10, 10};
  const auto many = m.slices(bounds);
  ASSERT_EQ(many.size(), 5u);
  for (std::size_t i = 0; i < many.size(); ++i) {
    const auto one = m.slice(bounds[i], bounds[i + 1]);
    EXPECT_EQ(many[i].ctl, one.ctl) << i;
    EXPECT_EQ(many[i].ctl_end, one.ctl_end) << i;
    EXPECT_EQ(many[i].nnz, one.nnz) << i;
    EXPECT_EQ(many[i].row_state, one.row_state) << i;
  }
  // Out-of-order bounds are rejected.
  EXPECT_THROW(m.slices({5, 0}), Error);
  EXPECT_THROW(m.slices({0, 11}), Error);
}

TEST(CsrDu, SliceOfEmptyRowRangeIsEmpty) {
  Triplets t(10, 10);
  t.add(0, 0, 1.0);
  t.add(9, 9, 1.0);
  t.sort_and_combine();
  const CsrDu m = CsrDu::from_triplets(t);
  const auto s = m.slice(2, 8);
  EXPECT_EQ(s.nnz, 0u);
  EXPECT_EQ(s.ctl, s.ctl_end);
}

TEST(CsrDu, CursorVisitsEveryElementInOrder) {
  Rng rng(21);
  const Triplets t = test::random_triplets(300, 20000, 4000, rng);
  const CsrDu m = CsrDu::from_triplets(t);
  CsrDu::Cursor cur(m.full());
  index_t row = 0, col = 0;
  usize_t k = 0;
  while (cur.next(&row, &col)) {
    ASSERT_LT(k, t.nnz());
    EXPECT_EQ(row, t.entries()[k].row) << k;
    EXPECT_EQ(col, t.entries()[k].col) << k;
    EXPECT_EQ(cur.element_index(), k);
    ++k;
  }
  EXPECT_EQ(k, t.nnz());
}

TEST(CsrDu, CursorOverSliceStartsAtOffset) {
  Rng rng(22);
  const Triplets t = test::random_triplets(200, 200, 3000, rng);
  const CsrDu m = CsrDu::from_triplets(t);
  const auto s = m.slice(50, 120);
  CsrDu::Cursor cur(s);
  index_t row = 0, col = 0;
  usize_t count = 0;
  usize_t first_index = 0;
  while (cur.next(&row, &col)) {
    if (count == 0) {
      first_index = cur.element_index();
    }
    EXPECT_GE(row, 50u);
    EXPECT_LT(row, 120u);
    ++count;
  }
  EXPECT_EQ(count, s.nnz);
  if (count > 0) {
    EXPECT_EQ(first_index, s.val_offset);
  }
}

TEST(CsrDu, CursorOnEmptySlice) {
  const CsrDu m = CsrDu::from_triplets(test::paper_matrix());
  const auto s = m.slice(3, 3);
  CsrDu::Cursor cur(s);
  index_t row, col;
  EXPECT_FALSE(cur.next(&row, &col));
}

TEST(CsrDu, InvalidOptionsRejected) {
  const Triplets t = test::paper_matrix();
  CsrDuOptions bad;
  bad.max_unit = 0;
  EXPECT_THROW(CsrDu::from_triplets(t, bad), Error);
  bad = CsrDuOptions{};
  bad.max_unit = 256;
  EXPECT_THROW(CsrDu::from_triplets(t, bad), Error);
  bad = CsrDuOptions{};
  bad.split_threshold = 0;
  EXPECT_THROW(CsrDu::from_triplets(t, bad), Error);
}

struct DuParamCase {
  std::uint32_t max_unit;
  std::uint32_t split_threshold;
  std::uint32_t seed;
};

class CsrDuParamRoundTrip
    : public ::testing::TestWithParam<DuParamCase> {};

TEST_P(CsrDuParamRoundTrip, EncodesAndDecodesExactly) {
  const DuParamCase& pc = GetParam();
  Rng rng(pc.seed);
  const index_t nrows = 1 + static_cast<index_t>(rng.next_below(300));
  const index_t ncols = 1 + static_cast<index_t>(rng.next_below(100000));
  const Triplets t = test::random_triplets(
      nrows, ncols, rng.next_below(5000), rng);
  CsrDuOptions opts;
  opts.max_unit = pc.max_unit;
  opts.split_threshold = pc.split_threshold;
  const CsrDu m = CsrDu::from_triplets(t, opts);
  test::expect_triplets_eq(t, m.to_triplets());
}

INSTANTIATE_TEST_SUITE_P(
    OptionSweep, CsrDuParamRoundTrip,
    ::testing::Values(DuParamCase{255, 8, 1}, DuParamCase{255, 8, 2},
                      DuParamCase{4, 8, 3}, DuParamCase{1, 1, 4},
                      DuParamCase{255, 1, 5}, DuParamCase{255, 64, 6},
                      DuParamCase{16, 2, 7}, DuParamCase{255, 8, 8},
                      DuParamCase{100, 3, 9}, DuParamCase{255, 255, 10}));

}  // namespace
}  // namespace spc
