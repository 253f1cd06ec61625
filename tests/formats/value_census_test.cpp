// Property test of the one value census behind CSR-VI, CSR-DU-VI,
// SymCsrVi and compute_stats: against a plain std::map census, every
// encoder must produce the same distinct values in the same
// first-occurrence order (by bit pattern), the same index width and the
// same index bytes. The census taken per row range on several threads
// and merged in range order must equal the one-pass census.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "spc/formats/csr_du_vi.hpp"
#include "spc/formats/csr_vi.hpp"
#include "spc/formats/sym_csr_vi.hpp"
#include "spc/mm/stats.hpp"
#include "spc/mm/value_census.hpp"

namespace spc {
namespace {

std::uint64_t bits_of(value_t v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

value_t from_bits(std::uint64_t b) {
  value_t v = 0.0;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

// The reference: an ordered map from bit pattern to first-occurrence
// index, and the expected index bytes in the expected width.
struct RefCensus {
  std::map<std::uint64_t, std::uint32_t> index_of;
  std::vector<value_t> values;
  std::vector<std::uint32_t> stream;

  void add(value_t v) {
    const auto [it, inserted] = index_of.emplace(
        bits_of(v), static_cast<std::uint32_t>(values.size()));
    if (inserted) {
      values.push_back(v);
    }
    stream.push_back(it->second);
  }

  std::size_t width() const {
    return values.size() <= 256 ? 1 : values.size() <= 65536 ? 2 : 4;
  }

  std::vector<std::uint8_t> bytes(std::size_t first, std::size_t n) const {
    std::vector<std::uint8_t> out;
    for (std::size_t k = first; k < first + n; ++k) {
      for (std::size_t b = 0; b < width(); ++b) {
        out.push_back(static_cast<std::uint8_t>(stream[k] >> (8 * b)));
      }
    }
    return out;
  }
};

void expect_same_values(const RefCensus& ref,
                        const aligned_vector<value_t>& got) {
  ASSERT_EQ(got.size(), ref.values.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(bits_of(got[i]), bits_of(ref.values[i])) << "unique " << i;
  }
}

void expect_same_bytes(const std::vector<std::uint8_t>& want,
                       const aligned_vector<std::uint8_t>& got) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size()), 0);
}

std::uint64_t mix(std::uint64_t k) {
  k += 0x9e3779b97f4a7c15ULL;
  k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9ULL;
  k = (k ^ (k >> 27)) * 0x94d049bb133111ebULL;
  return k ^ (k >> 31);
}

struct ValueCase {
  std::string name;
  std::function<value_t(std::uint64_t)> value;  ///< of the k-th entry added

  friend void PrintTo(const ValueCase& c, std::ostream* os) { *os << c.name; }
};

std::vector<ValueCase> value_cases() {
  return {
      {"pooled",
       [](std::uint64_t k) {
         return static_cast<value_t>(mix(k) % 40) * 0.37 - 5.0;
       }},
      {"all_distinct",
       [](std::uint64_t k) { return 1.0 + static_cast<value_t>(k) * 0.5; }},
      {"signed_zeros",
       [](std::uint64_t k) {
         const value_t pool[] = {0.0, -0.0, 1.0, -1.0};
         return pool[mix(k) % 4];
       }},
      {"nan_payloads",
       [](std::uint64_t k) {
         const std::uint64_t r = mix(k) % 7;
         if (r == 0) {
           return 2.0;
         }
         if (r == 6) {
           return from_bits(0xfff8000000000003ULL);  // negative quiet NaN
         }
         return from_bits(0x7ff8000000000000ULL | r);
       }},
      {"u16_width",
       [](std::uint64_t k) {
         return static_cast<value_t>(mix(k) % 300) * 0.25 - 10.0;
       }},
      {"u32_width",
       [](std::uint64_t k) { return static_cast<value_t>(k % 70000) + 0.5; }},
  };
}

// A dense 400x400 matrix (160 000 entries, enough for the u32 case),
// values drawn in a scrambled insertion order.
Triplets general_matrix(const ValueCase& c) {
  const index_t n = 400;
  Triplets t(n, n);
  std::uint64_t k = 0;
  for (index_t r = 0; r < n; ++r) {
    for (index_t col = 0; col < n; ++col) {
      t.add(r, col, c.value(k++));
    }
  }
  t.sort_and_combine();
  return t;
}

// Symmetric with identical mirrors. A NaN mirror is never equal to
// itself, so off-diagonal NaNs become a finite value; the NaN case then
// exercises the diagonal. Every third diagonal entry is absent (an
// implicit 0.0 in the census).
Triplets symmetric_matrix(const ValueCase& c) {
  const index_t n = 400;
  Triplets t(n, n);
  std::uint64_t k = 0;
  for (index_t r = 0; r < n; ++r) {
    if (r % 3 != 0) {
      t.add(r, r, c.value(k++));
    }
    for (index_t col = 0; col < r; ++col) {
      value_t v = c.value(k++);
      if (v != v) {
        v = 3.5;
      }
      t.add(r, col, v);
      t.add(col, r, v);
    }
  }
  t.sort_and_combine();
  return t;
}

class CensusProperty : public ::testing::TestWithParam<ValueCase> {};

TEST_P(CensusProperty, CsrViCsrDuViAndStatsMatchAMapCensus) {
  const Triplets t = general_matrix(GetParam());
  RefCensus ref;
  for (const Entry& e : t.entries()) {
    ref.add(e.val);
  }
  const std::vector<std::uint8_t> want = ref.bytes(0, t.nnz());

  const CsrVi vi = CsrVi::from_triplets(t);
  EXPECT_EQ(static_cast<std::size_t>(vi.value_index().width()), ref.width());
  expect_same_values(ref, vi.value_index().table());
  expect_same_bytes(want, vi.value_index().raw());

  const CsrDuVi duvi = CsrDuVi::from_triplets(t);
  EXPECT_EQ(static_cast<std::size_t>(duvi.value_index().width()),
            ref.width());
  expect_same_values(ref, duvi.value_index().table());
  expect_same_bytes(want, duvi.value_index().raw());

  EXPECT_EQ(compute_stats(t).unique_values, ref.values.size());
}

TEST_P(CensusProperty, SymCsrViMatchesAMapCensus) {
  const Triplets t = symmetric_matrix(GetParam());
  ASSERT_TRUE(SymCsrVi::applicable(t));
  // Stream order: the dense diagonal, then the strict lower triangle.
  std::vector<value_t> diag(t.nrows(), 0.0);
  for (const Entry& e : t.entries()) {
    if (e.row == e.col) {
      diag[e.row] = e.val;
    }
  }
  RefCensus ref;
  for (const value_t d : diag) {
    ref.add(d);
  }
  for (const Entry& e : t.entries()) {
    if (e.col < e.row) {
      ref.add(e.val);
    }
  }
  const SymCsrVi m = SymCsrVi::from_triplets(t);
  EXPECT_EQ(static_cast<std::size_t>(m.value_index().width()), ref.width());
  EXPECT_EQ(m.diag_index().width(), m.value_index().width());
  expect_same_values(ref, m.value_index().table());
  expect_same_bytes(ref.bytes(0, t.nrows()), m.diag_index().raw());
  expect_same_bytes(ref.bytes(t.nrows(), ref.stream.size() - t.nrows()),
                    m.value_index().raw());
}

// Row bounds cutting `nrows` into `k` ranges: an even split, or one
// whose first range (and, for k > 2, a middle one) holds no rows.
std::vector<index_t> range_bounds(index_t nrows, std::size_t k,
                                  bool empties) {
  std::vector<index_t> b(k + 1);
  for (std::size_t i = 0; i <= k; ++i) {
    b[i] = static_cast<index_t>(nrows * i / k);
  }
  if (empties) {
    b[1] = 0;
    if (k > 2) {
      b[k / 2 + 1] = b[k / 2];
    }
  }
  return b;
}

TEST_P(CensusProperty, RangeCensusesMergeToTheOnePassCensus) {
  const Triplets t = general_matrix(GetParam());
  const ValueTable whole = row_major_values(t);
  // Every range on its own thread, as the instance's workers count them.
  const RangeRunner on_threads =
      [](std::size_t n, const std::function<void(std::size_t)>& job) {
        std::vector<std::thread> threads;
        for (std::size_t i = 0; i < n; ++i) {
          threads.emplace_back(job, i);
        }
        for (std::thread& th : threads) {
          th.join();
        }
      };
  for (const std::size_t k : {2u, 3u, 4u, 7u}) {
    for (const bool empties : {false, true}) {
      const std::vector<index_t> bounds =
          range_bounds(t.nrows(), k, empties);
      const ValueTable merged = row_major_values(t, bounds, on_threads);
      const std::string what = std::to_string(k) + " ranges" +
                               (empties ? " with empty ones" : "");
      EXPECT_EQ(merged.width(), whole.width()) << what;
      const aligned_vector<value_t>& want = *whole.values();
      const aligned_vector<value_t>& got = *merged.values();
      ASSERT_EQ(got.size(), want.size()) << what;
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(bits_of(got[i]), bits_of(want[i])) << what << " unique " << i;
        ASSERT_EQ(merged.index_of(want[i]), static_cast<std::uint32_t>(i))
            << what << " unique " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Values, CensusProperty, ::testing::ValuesIn(value_cases()),
    [](const ::testing::TestParamInfo<ValueCase>& p) { return p.param.name; });

TEST(ValueCensus, ReturnsFirstOccurrenceIndicesAcrossGrowth) {
  ValueCensus c;
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 5000; ++i) {
      ASSERT_EQ(c.add(static_cast<value_t>(i) * 1.5),
                static_cast<std::uint32_t>(i));
    }
  }
  EXPECT_EQ(c.size(), 5000u);
  EXPECT_EQ(c.width(), ViWidth::kU16);
}

TEST(ValueCensus, EmptyCensusIsNarrowest) {
  ValueCensus c;
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.width(), ViWidth::kU8);
  // 0.0 shares its bit pattern with the initial fast-path key; it must
  // still be recorded on first sight.
  EXPECT_EQ(c.add(0.0), 0u);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.add(-0.0), 1u);
  EXPECT_EQ(c.add(0.0), 0u);
}

TEST(ValueIndex, VisitHandsTheIndexArrayAtItsWidth) {
  for (const std::size_t distinct : {3u, 300u, 70000u}) {
    std::vector<value_t> stream;
    ValueCensus census;
    for (std::size_t k = 0; k < 2 * distinct; ++k) {
      stream.push_back(static_cast<value_t>((k * 7919) % distinct) * 0.5);
      census.add(stream.back());
    }
    const ValueTable table(std::move(census));
    const ValueIndex vi(table, stream.size(), [&](auto put) {
      for (std::size_t k = 0; k < stream.size(); ++k) {
        put(k, stream[k]);
      }
    });
    const auto width = static_cast<std::size_t>(vi.width());
    EXPECT_EQ(width, distinct <= 256 ? 1u : distinct <= 65536 ? 2u : 4u);
    EXPECT_EQ(vi.size(), stream.size());
    EXPECT_EQ(vi.raw().size(), stream.size() * width);
    EXPECT_EQ(&vi.table(), table.values().get());
    EXPECT_EQ(vi.visit([](const auto* ind) { return sizeof(*ind); }), width);
    for (std::size_t k = 0; k < stream.size(); ++k) {
      ASSERT_EQ(bits_of(vi.value_at(k)), bits_of(stream[k])) << k;
    }
  }
}

}  // namespace
}  // namespace spc
