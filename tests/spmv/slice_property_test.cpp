// Property: for ANY row partition into T parts, running the per-slice
// kernels (in any order, here sequentially) reconstructs exactly the
// full-matrix result — the invariant the multithreaded path stands on.
// The row-range builders (each format's from_rows()) must also produce
// slices whose arrays concatenate to the whole-matrix encoding.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <type_traits>

#include "spc/formats/csr_du.hpp"
#include "spc/formats/dcsr.hpp"
#include "spc/formats/offset_units.hpp"
#include "spc/gen/generators.hpp"
#include "spc/mm/ops.hpp"
#include "spc/parallel/partition.hpp"
#include "spc/spmv/kernels.hpp"
#include "spc/support/first_touch.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

constexpr double kTol = 1e-12;

// Random monotone partition of [0, nrows] into nparts ranges (empty
// ranges allowed — the degenerate case worth testing).
RowPartition random_partition(index_t nrows, std::size_t nparts,
                              Rng& rng) {
  RowPartition p;
  p.bounds.resize(nparts + 1);
  p.bounds[0] = 0;
  p.bounds[nparts] = nrows;
  std::vector<index_t> cuts;
  for (std::size_t i = 1; i < nparts; ++i) {
    cuts.push_back(static_cast<index_t>(rng.next_below(nrows + 1)));
  }
  std::sort(cuts.begin(), cuts.end());
  for (std::size_t i = 1; i < nparts; ++i) {
    p.bounds[i] = cuts[i - 1];
  }
  return p;
}

class SliceProperty : public ::testing::TestWithParam<int> {};

TEST_P(SliceProperty, DuSlicesComposeUnderRandomPartitions) {
  Rng rng(4000 + GetParam());
  const Triplets t = gen_ragged(
      1 + static_cast<index_t>(rng.next_below(500)),
      1 + static_cast<index_t>(rng.next_below(500)),
      1 + static_cast<index_t>(rng.next_below(16)),
      0.25 * rng.next_double(), rng, ValueModel::random());
  CsrDuOptions opts;
  opts.split_threshold =
      1 + static_cast<std::uint32_t>(rng.next_below(16));
  const CsrDu m = CsrDu::from_triplets(t, opts);
  const OffsetUnits offsets = OffsetUnits::from_rows(t, 0, t.nrows(), opts);

  Rng xr(5000 + GetParam());
  const Vector x = random_vector(t.ncols(), xr);
  const Vector ref = test::reference_spmv(t, x);

  for (const std::size_t nparts : {1u, 2u, 3u, 5u, 9u}) {
    const RowPartition p = random_partition(t.nrows(), nparts, rng);
    Vector y(t.nrows(), std::numeric_limits<double>::quiet_NaN());
    for (std::size_t th = 0; th < nparts; ++th) {
      spmv(m.slice(p.row_begin(th), p.row_end(th)), x.data(), y.data());
    }
    ASSERT_LT(rel_error(ref, y), kTol)
        << "nparts " << nparts << " seed " << GetParam();
    // The offset units' slices (the steal chunks' scan) compose to the
    // same bytes.
    Vector y_off(t.nrows(), std::numeric_limits<double>::quiet_NaN());
    for (const CsrDu::Slice& s : offsets.slices(p.bounds)) {
      spmv_offset_units(s, x.data(), y_off.data());
    }
    ASSERT_EQ(std::memcmp(y.data(), y_off.data(),
                          t.nrows() * sizeof(value_t)),
              0)
        << "nparts " << nparts << " seed " << GetParam();
  }
}

TEST_P(SliceProperty, DcsrSlicesComposeUnderRandomPartitions) {
  Rng rng(6000 + GetParam());
  const Triplets t = gen_ragged(
      1 + static_cast<index_t>(rng.next_below(400)),
      1 + static_cast<index_t>(rng.next_below(400)),
      1 + static_cast<index_t>(rng.next_below(12)),
      0.4 * rng.next_double(), rng, ValueModel::random());
  const Dcsr m = Dcsr::from_triplets(t);

  Rng xr(7000 + GetParam());
  const Vector x = random_vector(t.ncols(), xr);
  const Vector ref = test::reference_spmv(t, x);

  for (const std::size_t nparts : {2u, 4u, 7u}) {
    const RowPartition p = random_partition(t.nrows(), nparts, rng);
    Vector y(t.nrows(), std::numeric_limits<double>::quiet_NaN());
    for (std::size_t th = 0; th < nparts; ++th) {
      spmv(m.slice(p.row_begin(th), p.row_end(th)), x.data(), y.data());
    }
    ASSERT_LT(rel_error(ref, y), kTol)
        << "nparts " << nparts << " seed " << GetParam();
  }
}

// ---- Row-range builders: one overload set per instance format. ----

// The scalar kernel of one slice holding rows [b, e), over its local
// arrays: row pointers rebased by b and DU streams decoded from row_state
// b - 1, so the kernel reads and writes absolute rows.
CsrDu::Slice at_row(CsrDu::Slice s, index_t b) {
  s.row_begin += b;
  s.row_end += b;
  s.row_state += b;
  return s;
}

template <typename C>
void run_slice(const BasicCsr<C>& s, index_t b, index_t e, const Vector& x,
               Vector& y) {
  spmv_csr_raw(rebase_ptr(s.row_ptr().data(), b), s.col_ind().data(),
               s.values().data(), x.data(), y.data(), b, e);
}
void run_slice(const CsrVi& s, index_t b, index_t e, const Vector& x,
               Vector& y) {
  s.value_index().visit([&](const auto* vi) {
    spmv_csr_vi_range(rebase_ptr(s.row_ptr().data(), b), s.col_ind().data(),
                      vi, s.value_index().table().data(), x.data(), y.data(),
                      b, e);
  });
}
void run_slice(const CsrDu& s, index_t b, index_t, const Vector& x,
               Vector& y) {
  spmv(at_row(s.full(), b), x.data(), y.data());
}
void run_slice(const CsrDuVi& s, index_t b, index_t, const Vector& x,
               Vector& y) {
  s.value_index().visit([&](const auto* vi) {
    spmv_du_vi_slice(at_row(s.du().full(), b), vi,
                     s.value_index().table().data(), x.data(), y.data());
  });
}
void run_slice(const OffsetUnits& s, index_t b, index_t, const Vector& x,
               Vector& y) {
  spmv_offset_units(at_row(s.full(), b), x.data(), y.data());
}
void run_slice(const OffsetUnitsVi& s, index_t b, index_t, const Vector& x,
               Vector& y) {
  s.value_index().visit([&](const auto* vi) {
    spmv_offset_units_vi(at_row(s.du().full(), b), vi,
                         s.value_index().table().data(), x.data(), y.data());
  });
}
void run_slice(const SymCsr& s, index_t b, index_t e, const Vector& x,
               Vector& y) {
  spmv_sym_csr_win(rebase_ptr(s.row_ptr().data(), b), s.col_ind().data(),
                   s.values().data(), rebase_ptr(s.diag().data(), b),
                   x.data(), y.data(), nullptr, 0, 0, b, e);
}
void run_slice(const SymCsrVi& s, index_t b, index_t e, const Vector& x,
               Vector& y) {
  s.value_index().visit(
      [&](const auto* vi, const auto* di) {
        spmv_sym_csr_vi_win(rebase_ptr(s.row_ptr().data(), b),
                            s.col_ind().data(), vi, rebase_ptr(di, b),
                            s.value_index().table().data(), x.data(),
                            y.data(), nullptr, 0, 0, b, e);
      },
      s.diag_index());
}

// Appends the bytes of `a` to `out`.
template <typename T>
void append(std::vector<std::uint8_t>& out, const aligned_vector<T>& a) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(a.data());
  out.insert(out.end(), p, p + a.size() * sizeof(T));
}

// The value formats, named rather than probed: each must expose its
// value index, or this file does not compile.
template <typename M>
constexpr bool kValueFormat =
    std::is_same_v<M, CsrVi> || std::is_same_v<M, CsrDuVi> ||
    std::is_same_v<M, OffsetUnitsVi> || std::is_same_v<M, SymCsrVi>;

// Every array a slice stores per row or per element, as byte streams in a
// fixed order, so a partition's slices concatenate stream by stream.
// Row pointers are excluded (each slice's starts at 0, checked
// separately), and so is the DU ctl stream (compared unit by unit).
template <typename M>
std::vector<std::vector<std::uint8_t>> element_streams(const M& m) {
  std::vector<std::vector<std::uint8_t>> out(5);
  if constexpr (requires { m.col_ind(); }) {
    append(out[0], m.col_ind());
  }
  if constexpr (requires { m.values(); }) {
    append(out[1], m.values());
  }
  if constexpr (kValueFormat<M>) {
    append(out[2], m.value_index().raw());
    // One index per stored non-diagonal element, at the table's width.
    std::size_t elements = m.nnz();
    if constexpr (std::is_same_v<M, SymCsrVi>) {
      elements = m.col_ind().size();
    }
    EXPECT_EQ(out[2].size(),
              elements * static_cast<std::size_t>(m.value_index().width()));
  }
  if constexpr (requires { m.diag(); }) {
    append(out[3], m.diag());
  }
  if constexpr (std::is_same_v<M, SymCsrVi>) {
    append(out[4], m.diag_index().raw());
    EXPECT_EQ(out[4].size(),
              static_cast<std::size_t>(m.nrows()) *
                  static_cast<std::size_t>(m.diag_index().width()));
  }
  return out;
}

// The DU units of a stream (ctl or offset units) decoded from
// `row_state`, with each unit's absolute row in place of its rskip (a
// slice's first unit skips from its own first row, so its rskip differs
// from the whole stream's).
template <typename Du>
auto units_at(const Du& m, std::int64_t row_state) {
  auto units = m.decode_units();
  for (auto& u : units) {
    if (u.uflags & kDuNewRow) {
      row_state += 1 + static_cast<std::int64_t>(u.rskip);
    }
    u.rskip = static_cast<std::uint64_t>(row_state);
    u.uflags &= static_cast<std::uint8_t>(~kDuRJmp);
  }
  return units;
}

const CsrDu* du_of(const CsrDu& m) { return &m; }
const CsrDu* du_of(const CsrDuVi& m) { return &m.du(); }
const OffsetUnits* du_of(const OffsetUnits& m) { return &m; }
const OffsetUnits* du_of(const OffsetUnitsVi& m) { return &m.du(); }
template <typename M>
const CsrDu* du_of(const M&) {
  return nullptr;
}

bool same_units(const CsrDu::DecodedUnit& a, const CsrDu::DecodedUnit& b) {
  return a.uflags == b.uflags && a.usize == b.usize && a.rskip == b.rskip &&
         a.ujmp == b.ujmp && a.ucis == b.ucis;
}

bool same_units(const OffsetUnits::Unit& a, const OffsetUnits::Unit& b) {
  return a.uflags == b.uflags && a.usize == b.usize && a.rskip == b.rskip &&
         a.base == b.base && a.offsets == b.offsets;
}

usize_t stream_bytes(const CsrDu& m) { return m.ctl_bytes(); }
usize_t stream_bytes(const OffsetUnits& m) { return m.units().size(); }

// Builds `whole` and one slice per range of `p` with `build(b, e)`, then
// checks both halves of the property: concatenated arrays, and slice
// kernels composing to the whole kernel's y bit for bit.
template <typename M, typename Build>
void check_row_ranges(const std::string& name, const M& whole,
                      const Build& build, const RowPartition& p,
                      const Vector& x) {
  const std::string what = name + " nparts " + std::to_string(p.nthreads());
  const index_t nrows = whole.nrows();
  Vector y_whole(nrows, std::numeric_limits<double>::quiet_NaN());
  run_slice(whole, 0, nrows, x, y_whole);
  Vector y(nrows, std::numeric_limits<double>::quiet_NaN());
  std::vector<std::vector<std::uint8_t>> streams(5);
  using Units = decltype(units_at(*du_of(whole), -1));
  Units units;
  usize_t unit_bytes = 0;
  for (std::size_t th = 0; th < p.nthreads(); ++th) {
    const index_t b = p.row_begin(th);
    const index_t e = p.row_end(th);
    const M s = build(b, e);
    ASSERT_EQ(s.nrows(), e - b) << what;
    if constexpr (requires { s.row_ptr(); }) {
      const auto& rp = s.row_ptr();
      ASSERT_EQ(rp.size(), static_cast<std::size_t>(e - b) + 1) << what;
      for (index_t i = 0; i <= e - b; ++i) {
        ASSERT_EQ(rp[i] + whole.row_ptr()[b], whole.row_ptr()[b + i])
            << what << " row " << b + i;
      }
    }
    if constexpr (kValueFormat<M>) {
      EXPECT_EQ(s.value_index().table(), whole.value_index().table())
          << what;
    }
    const auto part = element_streams(s);
    for (std::size_t i = 0; i < streams.size(); ++i) {
      streams[i].insert(streams[i].end(), part[i].begin(), part[i].end());
    }
    if (const auto* du = du_of(s)) {
      const auto u = units_at(*du, static_cast<std::int64_t>(b) - 1);
      units.insert(units.end(), u.begin(), u.end());
      unit_bytes += stream_bytes(*du);
    }
    run_slice(s, b, e, x, y);
  }
  EXPECT_EQ(streams, element_streams(whole)) << what;
  if (const auto* du = du_of(whole)) {
    const auto u = units_at(*du, -1);
    ASSERT_EQ(units.size(), u.size()) << what;
    for (std::size_t i = 0; i < u.size(); ++i) {
      ASSERT_TRUE(same_units(units[i], u[i])) << what << " unit " << i;
    }
    // Only a slice's first rskip can change, and only by shrinking.
    EXPECT_LE(unit_bytes, stream_bytes(*du)) << what;
  }
  EXPECT_EQ(std::memcmp(y.data(), y_whole.data(), nrows * sizeof(value_t)),
            0)
      << what;
}

TEST_P(SliceProperty, RowRangeBuildersConcatenateAndCompose) {
  Rng rng(8000 + GetParam());
  const index_t n = 1 + static_cast<index_t>(rng.next_below(300));
  const ValueModel values = GetParam() % 2 == 0 ? ValueModel::pooled(12)
                                                : ValueModel::random();
  const Triplets t =
      gen_ragged(n, n, 1 + static_cast<index_t>(rng.next_below(16)),
                 0.25 * rng.next_double(), rng, values);
  const Triplets ts = symmetrize(t);
  const CsrDuOptions du;
  Rng xr(9000 + GetParam());
  const Vector x = random_vector(n, xr);

  const ValueTable vt = row_major_values(t);
  const ValueTable svt = SymCsrVi::value_table(ts);
  for (const std::size_t nparts : {1u, 2u, 3u, 5u, 9u}) {
    const RowPartition p = random_partition(n, nparts, rng);
    check_row_ranges("csr", Csr::from_triplets(t),
                     [&](index_t b, index_t e) {
                       return Csr::from_rows(t, b, e);
                     },
                     p, x);
    check_row_ranges("csr16", Csr16::from_triplets(t),
                     [&](index_t b, index_t e) {
                       return Csr16::from_rows(t, b, e);
                     },
                     p, x);
    check_row_ranges("csr-vi", CsrVi::from_triplets(t),
                     [&](index_t b, index_t e) {
                       return CsrVi::from_rows(t, b, e, vt);
                     },
                     p, x);
    check_row_ranges("csr-du", CsrDu::from_triplets(t, du),
                     [&](index_t b, index_t e) {
                       return CsrDu::from_rows(t, b, e, du);
                     },
                     p, x);
    check_row_ranges("csr-du-vi", CsrDuVi::from_triplets(t, du),
                     [&](index_t b, index_t e) {
                       return CsrDuVi::from_rows(t, b, e, du, vt);
                     },
                     p, x);
    check_row_ranges("offset units",
                     OffsetUnits::from_rows(t, 0, n, du),
                     [&](index_t b, index_t e) {
                       return OffsetUnits::from_rows(t, b, e, du);
                     },
                     p, x);
    check_row_ranges("offset units vi",
                     OffsetUnitsVi::from_rows(t, 0, n, du, vt),
                     [&](index_t b, index_t e) {
                       return OffsetUnitsVi::from_rows(t, b, e, du, vt);
                     },
                     p, x);
    check_row_ranges("sym-csr", SymCsr::from_triplets(ts),
                     [&](index_t b, index_t e) {
                       return SymCsr::from_rows(ts, b, e);
                     },
                     p, x);
    check_row_ranges("sym-csr-vi", SymCsrVi::from_triplets(ts),
                     [&](index_t b, index_t e) {
                       return SymCsrVi::from_rows(ts, b, e, svt);
                     },
                     p, x);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SliceProperty, ::testing::Range(0, 15));

}  // namespace
}  // namespace spc
