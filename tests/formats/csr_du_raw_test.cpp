// Validation tests for CsrDu::from_raw — the untrusted-input path used
// by deserialization. Every malformed stream must throw ParseError, never
// produce a matrix whose kernel would read out of bounds.
#include <gtest/gtest.h>

#include "spc/formats/csr_du.hpp"
#include "spc/support/varint.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

aligned_vector<std::uint8_t> to_aligned(std::vector<std::uint8_t> v) {
  return aligned_vector<std::uint8_t>(v.begin(), v.end());
}

// Hand-builds a minimal valid stream: one u8 NR unit, 2 elements,
// columns 1 and 3 in row 0.
std::vector<std::uint8_t> minimal_unit() {
  return {static_cast<std::uint8_t>(kDuNewRow), 2, 1, 2};
}

TEST(CsrDuFromRaw, AcceptsHandBuiltStream) {
  const CsrDu m = CsrDu::from_raw(1, 4, CsrDuOptions{},
                                  to_aligned(minimal_unit()),
                                  {0.5, 1.5});
  EXPECT_EQ(m.nnz(), 2u);
  const Triplets t = m.to_triplets();
  ASSERT_EQ(t.nnz(), 2u);
  EXPECT_EQ(t.entries()[0], (Entry{0, 1, 0.5}));
  EXPECT_EQ(t.entries()[1], (Entry{0, 3, 1.5}));
}

TEST(CsrDuFromRaw, RoundTripsEncoderOutput) {
  Rng rng(1);
  const Triplets t = test::random_triplets(100, 5000, 2000, rng);
  const CsrDu orig = CsrDu::from_triplets(t);
  const CsrDu back =
      CsrDu::from_raw(100, 5000, {},
                      aligned_vector<std::uint8_t>(orig.ctl()),
                      aligned_vector<value_t>(orig.values()));
  EXPECT_EQ(back.histogram(), orig.histogram());
  test::expect_triplets_eq(t, back.to_triplets());
}

TEST(CsrDuFromRaw, RejectsTruncatedHeader) {
  EXPECT_THROW(CsrDu::from_raw(1, 4, {}, to_aligned({kDuNewRow}), {}),
               ParseError);
}

TEST(CsrDuFromRaw, RejectsZeroLengthUnit) {
  EXPECT_THROW(
      CsrDu::from_raw(1, 4, {}, to_aligned({kDuNewRow, 0, 0}), {}),
      ParseError);
}

TEST(CsrDuFromRaw, RejectsTruncatedUcis) {
  // Header claims 3 elements (2 ucis bytes) but only 1 byte follows.
  EXPECT_THROW(
      CsrDu::from_raw(1, 10, {}, to_aligned({kDuNewRow, 3, 1, 2}), {}),
      ParseError);
}

TEST(CsrDuFromRaw, RejectsRowOutOfBounds) {
  // rskip jumps past nrows.
  std::vector<std::uint8_t> ctl = {
      static_cast<std::uint8_t>(kDuNewRow | kDuRJmp), 1, 9, 0};
  EXPECT_THROW(CsrDu::from_raw(5, 5, {}, to_aligned(ctl), {0.0}),
               ParseError);
}

TEST(CsrDuFromRaw, RejectsColumnOutOfBounds) {
  // ujmp = 7 in a 4-column matrix.
  EXPECT_THROW(
      CsrDu::from_raw(1, 4, {}, to_aligned({kDuNewRow, 1, 7}), {0.0}),
      ParseError);
}

TEST(CsrDuFromRaw, RejectsStreamNotStartingWithNewRow) {
  EXPECT_THROW(CsrDu::from_raw(1, 4, {}, to_aligned({0, 1, 1}), {0.0}),
               ParseError);
}

TEST(CsrDuFromRaw, RejectsValueCountMismatch) {
  EXPECT_THROW(CsrDu::from_raw(1, 4, {}, to_aligned(minimal_unit()),
                               {0.5}),  // 2 elements, 1 value
               ParseError);
}

TEST(CsrDuFromRaw, RejectsReservedFlagBits) {
  // Only the class bits, RJMP and NR have a meaning; a unit setting any
  // other bit is rejected, whatever its body.
  for (const int bit : {2, 3, 4, 7}) {
    std::vector<std::uint8_t> ctl = minimal_unit();
    ctl[0] = static_cast<std::uint8_t>(ctl[0] | (1u << bit));
    EXPECT_THROW(
        CsrDu::from_raw(1, 4, {}, to_aligned(ctl), {0.5, 1.5}),
        ParseError)
        << "bit " << bit;
  }
}

TEST(CsrDuFromRaw, EmptyStreamIsEmptyMatrix) {
  const CsrDu m = CsrDu::from_raw(3, 3, {}, {}, {});
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_TRUE(m.to_triplets().empty());
}

}  // namespace
}  // namespace spc
