#include "spc/formats/serialize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <tuple>

#include "spc/gen/generators.hpp"
#include "spc/spmv/kernels.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

template <typename M, typename Loader>
M round_trip(const M& m, Loader load) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  save(m, buf);
  buf.seekg(0);
  return load(buf);
}

TEST(Serialize, CsrRoundTrip) {
  Rng rng(1);
  const Triplets t = test::random_triplets(120, 90, 1500, rng);
  const Csr m = Csr::from_triplets(t);
  const Csr back = round_trip(m, [](std::istream& in) {
    return load_csr(in);
  });
  test::expect_triplets_eq(t, back.to_triplets());
  EXPECT_EQ(back.bytes(), m.bytes());
}

TEST(Serialize, CsrDuRoundTripPreservesStreamAndOptions) {
  Rng rng(2);
  const Triplets t = gen_banded(500, 25, 8, rng, ValueModel::pooled(16));
  CsrDuOptions opts;
  opts.enable_rle = true;
  opts.split_threshold = 4;
  const CsrDu m = CsrDu::from_triplets(t, opts);
  const CsrDu back = round_trip(m, [](std::istream& in) {
    return load_csr_du(in);
  });
  EXPECT_EQ(back.ctl(), m.ctl());
  EXPECT_EQ(back.unit_count(), m.unit_count());
  EXPECT_EQ(back.rle_unit_count(), m.rle_unit_count());
  EXPECT_EQ(back.options().split_threshold, 4u);
  EXPECT_TRUE(back.options().enable_rle);
  test::expect_triplets_eq(t, back.to_triplets());
}

TEST(Serialize, CsrViRoundTrip) {
  Rng rng(3);
  const Triplets t =
      gen_random_uniform(300, 300, 9, rng, ValueModel::pooled(500));
  const CsrVi m = CsrVi::from_triplets(t);
  const CsrVi back = round_trip(m, [](std::istream& in) {
    return load_csr_vi(in);
  });
  EXPECT_EQ(back.value_index().width(), m.value_index().width());
  EXPECT_EQ(back.value_index().table(), m.value_index().table());
  test::expect_triplets_eq(t, back.to_triplets());
}

TEST(Serialize, CsrDuViRoundTrip) {
  Rng rng(4);
  const Triplets t =
      gen_banded(400, 30, 9, rng, ValueModel::pooled(40));
  CsrDuOptions opts;
  opts.enable_rle = true;
  const CsrDuVi m = CsrDuVi::from_triplets(t, opts);
  const CsrDuVi back = round_trip(m, [](std::istream& in) {
    return load_csr_du_vi(in);
  });
  EXPECT_EQ(back.value_index().width(), m.value_index().width());
  EXPECT_EQ(back.value_index().table(), m.value_index().table());
  EXPECT_EQ(back.du().ctl(), m.du().ctl());
  test::expect_triplets_eq(t, back.to_triplets());
}

TEST(Serialize, CsrDuViRejectsBadValueIndices) {
  const CsrDuVi m = CsrDuVi::from_triplets(test::paper_matrix());
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  save(m, buf);
  std::string s = buf.str();
  // The vals_unique length field sits near the end; shrink the table so
  // indices dangle. Easier: truncate the final unique value.
  s.resize(s.size() - 8);
  std::stringstream in(s);
  EXPECT_THROW(load_csr_du_vi(in), ParseError);
}

TEST(Serialize, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/spc_serialize.spcm";
  const CsrDu m = CsrDu::from_triplets(test::paper_matrix());
  save_file(m, path);
  const CsrDu back = load_csr_du_file(path);
  test::expect_triplets_eq(test::paper_matrix(), back.to_triplets());
}

TEST(Serialize, HeaderIdentifiesFormat) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  save(CsrVi::from_triplets(test::paper_matrix()), buf);
  buf.seekg(0);
  index_t nrows = 0, ncols = 0;
  EXPECT_EQ(read_spcm_header(buf, &nrows, &ncols), SpcmTag::kCsrVi);
  EXPECT_EQ(nrows, 6u);
  EXPECT_EQ(ncols, 6u);
}

TEST(Serialize, RejectsWrongFormatTag) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  save(Csr::from_triplets(test::paper_matrix()), buf);
  buf.seekg(0);
  EXPECT_THROW(load_csr_du(buf), ParseError);
}

TEST(Serialize, RejectsBadMagicAndTruncation) {
  std::stringstream empty;
  EXPECT_THROW(load_csr(empty), ParseError);

  std::stringstream bad;
  bad << "NOPE....................";
  EXPECT_THROW(load_csr(bad), ParseError);

  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  save(Csr::from_triplets(test::paper_matrix()), buf);
  const std::string full = buf.str();
  for (const std::size_t cut :
       {std::size_t{5}, std::size_t{16}, std::size_t{24},
        full.size() - 3}) {
    std::stringstream part(full.substr(0, cut));
    EXPECT_THROW(load_csr(part), ParseError) << "cut " << cut;
  }
}

template <typename M>
std::string saved(const M& m) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  save(m, buf);
  return buf.str();
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

// 1600 distinct values, so a u16 value index.
Triplets u16_matrix() {
  Triplets t(40, 40);
  for (index_t r = 0; r < 40; ++r) {
    for (index_t c = 0; c < 40; ++c) {
      t.add(r, c, static_cast<value_t>(r * 40 + c) * 0.125);
    }
  }
  t.sort_and_combine();
  return t;
}

TEST(Serialize, ValueIndexContainersKeepTheirBytes) {
  // FNV-1a of the containers as the format defines them, so a change to
  // what save() writes fails here even when load() changes with it and
  // every round trip still passes.
  EXPECT_EQ(fnv1a(saved(CsrVi::from_triplets(test::paper_matrix()))),
            0xc085443c9a0b2fe0ULL);
  EXPECT_EQ(fnv1a(saved(CsrDuVi::from_triplets(test::paper_matrix()))),
            0x646a1aef385f5a5dULL);
  const CsrVi vi = CsrVi::from_triplets(u16_matrix());
  ASSERT_EQ(vi.value_index().width(), ViWidth::kU16);
  EXPECT_EQ(fnv1a(saved(vi)), 0x165b9adce4e240aaULL);
  EXPECT_EQ(fnv1a(saved(CsrDuVi::from_triplets(u16_matrix()))),
            0x509a839cdbeacfe0ULL);
}

// Offsets of the u64 length fields of a container's arrays, the first at
// `first`, each followed by its payload of `elem_bytes[i]`-byte elements;
// the last payload must end the container.
std::vector<std::size_t> length_fields(const std::string& c,
                                       std::size_t first,
                                       const std::vector<std::size_t>&
                                           elem_bytes) {
  std::vector<std::size_t> at;
  std::size_t pos = first;
  for (const std::size_t b : elem_bytes) {
    at.push_back(pos);
    std::uint64_t n = 0;
    if (pos + sizeof(n) > c.size()) {
      break;
    }
    std::memcpy(&n, c.data() + pos, sizeof(n));
    pos += sizeof(n) + n * b;
  }
  EXPECT_EQ(pos, c.size()) << "container layout";
  return at;
}

// Flips each byte of the container's fixed fields (header, options,
// width), of every length field, and a spread of payload bytes, and
// loads each copy. Every load must throw ParseError or give a matrix
// whose scalar kernel and to_triplets() stay inside it: its coordinates
// in bounds, and, under the sanitizers, no access outside its arrays.
// Byte 3 of a length field is left alone: flipped, it asks for 4-34 GB,
// which the loader's plausibility bound lets through to the allocation.
template <typename M, typename Load>
void flip_each(const std::string& full, std::size_t fixed_bytes,
               const std::vector<std::size_t>& elem_bytes, Load load,
               const std::string& what) {
  std::vector<std::size_t> positions;
  for (std::size_t p = 0; p < fixed_bytes; ++p) {
    positions.push_back(p);
  }
  const std::vector<std::size_t> lengths =
      length_fields(full, fixed_bytes, elem_bytes);
  const auto gigabytes = [&](std::size_t p) {
    return std::find(lengths.begin(), lengths.end(), p - 3) != lengths.end();
  };
  for (const std::size_t f : lengths) {
    for (std::size_t p = f; p < f + 8; ++p) {
      positions.push_back(p);
    }
  }
  const std::size_t spread = 240;
  for (std::size_t i = 0; i < spread; ++i) {
    positions.push_back(fixed_bytes +
                        (full.size() - fixed_bytes) * i / spread);
  }
  int rejected = 0;
  for (const std::size_t pos : positions) {
    if (gigabytes(pos)) {
      continue;
    }
    std::string mutated = full;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0xFF);
    std::stringstream in(mutated);
    M m;
    try {
      m = load(in);
    } catch (const ParseError&) {
      ++rejected;
      continue;
    }
    const Triplets back = m.to_triplets();
    ASSERT_EQ(back.nnz(), m.nnz()) << what << " flip at " << pos;
    for (const Entry& e : back.entries()) {
      ASSERT_LT(e.row, m.nrows()) << what << " flip at " << pos;
      ASSERT_LT(e.col, m.ncols()) << what << " flip at " << pos;
    }
    // A flipped dimension can leave a valid matrix with millions of
    // empty rows or columns; its vectors are not worth allocating.
    if (m.nrows() <= (1u << 20) && m.ncols() <= (1u << 20)) {
      const Vector x(m.ncols(), 1.0);
      Vector y(m.nrows(), 0.0);
      spmv(m, x.data(), y.data());
    }
  }
  EXPECT_GT(rejected, 0) << what;
}

TEST(Serialize, CorruptedCtlStreamIsRejected) {
  // Flip bytes in the ctl payload; validation in CsrDu::from_raw must
  // catch every corruption that would send the kernel out of bounds.
  Rng rng(5);
  const Triplets t = test::random_triplets(60, 60, 500, rng);
  const std::string full = saved(CsrDu::from_triplets(t));

  int rejected = 0, accepted = 0;
  for (std::size_t pos = 40; pos < full.size() && pos < 340; pos += 7) {
    std::string mutated = full;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0xFF);
    std::stringstream in(mutated);
    try {
      const CsrDu m = load_csr_du(in);
      // If accepted, the decode must still be self-consistent (coords in
      // bounds, counts matching) — verified by a full decode.
      const Triplets round = m.to_triplets();
      EXPECT_LE(round.nnz(), t.nnz() * 2);
      ++accepted;
    } catch (const ParseError&) {
      ++rejected;
    }
  }
  // Most flips must be rejected; none may crash or read out of bounds.
  EXPECT_GT(rejected, accepted / 4);

  // The value-index containers at each index width: pooled values
  // (u8, u16) and all-distinct ones (u32).
  const Triplets u8 = gen_random_uniform(300, 300, 6, rng,
                                         ValueModel::pooled(200));
  const Triplets u16 = gen_random_uniform(300, 300, 40, rng,
                                          ValueModel::pooled(5000));
  const Triplets u32 = test::random_triplets(500, 500, 90000, rng);
  for (const auto& [name, tw, width] :
       {std::tuple{"u8", &u8, ViWidth::kU8},
        std::tuple{"u16", &u16, ViWidth::kU16},
        std::tuple{"u32", &u32, ViWidth::kU32}}) {
    const CsrVi vi = CsrVi::from_triplets(*tw);
    ASSERT_EQ(vi.value_index().width(), width) << name;
    // header (20 bytes) and width; row_ptr, col_ind, val_ind (bytes),
    // vals_unique
    flip_each<CsrVi>(saved(vi), 24, {4, 4, 1, 8}, load_csr_vi,
                     std::string("csr-vi ") + name);
    const CsrDuVi duvi = CsrDuVi::from_triplets(*tw);
    ASSERT_EQ(duvi.value_index().width(), width) << name;
    // header, DU options (16 bytes) and width; ctl, val_ind (bytes),
    // vals_unique
    flip_each<CsrDuVi>(saved(duvi), 40, {1, 1, 8}, load_csr_du_vi,
                       std::string("csr-du-vi ") + name);
  }
}

TEST(Serialize, FromRawRejectsInconsistentCsr) {
  aligned_vector<index_t> rp = {0, 2, 1};  // non-monotone
  aligned_vector<std::uint32_t> ci = {0, 1};
  aligned_vector<value_t> v = {1.0, 2.0};
  EXPECT_THROW(Csr::from_raw(2, 2, rp, ci, v), ParseError);

  aligned_vector<index_t> rp2 = {0, 1, 2};
  aligned_vector<std::uint32_t> ci2 = {0, 9};  // col out of bounds
  EXPECT_THROW(Csr::from_raw(2, 2, rp2, ci2, v), ParseError);
}

TEST(Serialize, FromRawRejectsBadViIndices) {
  // A 1x1 matrix holding 6.0, its value table {6.0}.
  const auto csr_vi = [](std::uint32_t width,
                         aligned_vector<std::uint8_t> val_ind) {
    return CsrVi::from_raw(1, 1, {0, 1}, {0}, width, std::move(val_ind),
                           {6.0});
  };
  Triplets one(1, 1);
  one.add(0, 0, 6.0);
  const CsrDu du = CsrDu::from_triplets(one);
  const auto csr_du_vi = [&du](std::uint32_t width,
                               aligned_vector<std::uint8_t> val_ind) {
    return CsrDuVi::from_raw(1, 1, du.options(), du.ctl(), width,
                             std::move(val_ind), {6.0});
  };
  EXPECT_NO_THROW(csr_vi(1, {0}));
  EXPECT_NO_THROW(csr_du_vi(1, {0}));
  // Index 7 into a one-value table.
  EXPECT_THROW(csr_vi(1, {7}), ParseError);
  EXPECT_THROW(csr_du_vi(1, {7}), ParseError);
  // A width other than 1, 2 or 4, with as many index bytes as it
  // claims, and 257, which would narrow to the valid width 1.
  EXPECT_THROW(csr_vi(3, {7, 0, 0}), ParseError);
  EXPECT_THROW(csr_du_vi(3, {7, 0, 0}), ParseError);
  EXPECT_THROW(csr_vi(257, {0}), ParseError);
  EXPECT_THROW(csr_du_vi(257, {0}), ParseError);
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_csr_file("/nonexistent/m.spcm"), Error);
}

}  // namespace
}  // namespace spc
