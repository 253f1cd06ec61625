#include "spc/formats/serialize.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

static_assert(std::endian::native == std::endian::little,
              "the SPCM container assumes a little-endian host");

namespace spc {

namespace {

constexpr char kMagic[4] = {'S', 'P', 'C', 'M'};

void write_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t read_u32(std::istream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) {
    throw ParseError("spcm: truncated header field");
  }
  return v;
}

std::uint64_t read_u64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) {
    throw ParseError("spcm: truncated length field");
  }
  return v;
}

template <typename T>
void write_array(std::ostream& out, const aligned_vector<T>& v) {
  write_u64(out, v.size());
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
aligned_vector<T> read_array(std::istream& in) {
  const std::uint64_t n = read_u64(in);
  // The array grows to at most twice what has arrived (and at least one
  // 64 KiB chunk) before each read, so a corrupted length field fails at
  // the end of the stream instead of allocating what it claims.
  constexpr std::uint64_t kChunk = (std::uint64_t{1} << 16) / sizeof(T);
  aligned_vector<T> v;
  while (v.size() < n) {
    const std::uint64_t have = v.size();
    const std::uint64_t want = std::min(n, std::max(2 * have, kChunk));
    v.reserve(want);
    v.resize(want);
    in.read(reinterpret_cast<char*>(v.data() + have),
            static_cast<std::streamsize>((want - have) * sizeof(T)));
    if (!in) {
      throw ParseError("spcm: truncated array payload");
    }
  }
  return v;
}

void write_header(std::ostream& out, SpcmTag tag, index_t nrows,
                  index_t ncols) {
  out.write(kMagic, sizeof(kMagic));
  write_u32(out, kSpcmVersion);
  write_u32(out, static_cast<std::uint32_t>(tag));
  write_u32(out, nrows);
  write_u32(out, ncols);
}

// CSR-DU's encoder options. The two words after split_threshold are
// reserved: written as 0 and 16, as every container has carried them,
// and ignored on load.
void write_du_options(std::ostream& out, const CsrDuOptions& o) {
  write_u32(out, o.max_unit);
  write_u32(out, o.split_threshold);
  write_u32(out, 0);
  write_u32(out, 16);
}

CsrDuOptions read_du_options(std::istream& in) {
  CsrDuOptions o;
  o.max_unit = read_u32(in);
  o.split_threshold = read_u32(in);
  read_u32(in);
  read_u32(in);
  return o;
}

SpcmTag expect_header(std::istream& in, SpcmTag want, index_t* nrows,
                      index_t* ncols) {
  const SpcmTag got = read_spcm_header(in, nrows, ncols);
  if (got != want) {
    throw ParseError("spcm: container holds a different format");
  }
  return got;
}

}  // namespace

SpcmTag read_spcm_header(std::istream& in, index_t* nrows,
                         index_t* ncols) {
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw ParseError("spcm: bad magic");
  }
  const std::uint32_t version = read_u32(in);
  if (version != kSpcmVersion) {
    throw ParseError("spcm: unsupported version");
  }
  const std::uint32_t tag = read_u32(in);
  if (tag > static_cast<std::uint32_t>(SpcmTag::kCsrDuVi)) {
    throw ParseError("spcm: unknown format tag");
  }
  *nrows = read_u32(in);
  *ncols = read_u32(in);
  return static_cast<SpcmTag>(tag);
}

void save(const Csr& m, std::ostream& out) {
  write_header(out, SpcmTag::kCsr, m.nrows(), m.ncols());
  write_array(out, m.row_ptr());
  write_array(out, m.col_ind());
  write_array(out, m.values());
}

void save(const CsrDu& m, std::ostream& out) {
  write_header(out, SpcmTag::kCsrDu, m.nrows(), m.ncols());
  write_du_options(out, m.options());
  write_array(out, m.ctl());
  write_array(out, m.values());
}

void save(const CsrVi& m, std::ostream& out) {
  write_header(out, SpcmTag::kCsrVi, m.nrows(), m.ncols());
  const ValueIndex& vi = m.value_index();
  write_u32(out, static_cast<std::uint32_t>(vi.width()));
  write_array(out, m.row_ptr());
  write_array(out, m.col_ind());
  write_array(out, vi.raw());
  write_array(out, vi.table());
}

void save(const CsrDuVi& m, std::ostream& out) {
  write_header(out, SpcmTag::kCsrDuVi, m.nrows(), m.ncols());
  write_du_options(out, m.du().options());
  const ValueIndex& vi = m.value_index();
  write_u32(out, static_cast<std::uint32_t>(vi.width()));
  write_array(out, m.du().ctl());
  write_array(out, vi.raw());
  write_array(out, vi.table());
}

Csr load_csr(std::istream& in) {
  index_t nrows = 0, ncols = 0;
  expect_header(in, SpcmTag::kCsr, &nrows, &ncols);
  auto row_ptr = read_array<index_t>(in);
  auto col_ind = read_array<std::uint32_t>(in);
  auto values = read_array<value_t>(in);
  return Csr::from_raw(nrows, ncols, std::move(row_ptr),
                       std::move(col_ind), std::move(values));
}

CsrDu load_csr_du(std::istream& in) {
  index_t nrows = 0, ncols = 0;
  expect_header(in, SpcmTag::kCsrDu, &nrows, &ncols);
  const CsrDuOptions o = read_du_options(in);
  auto ctl = read_array<std::uint8_t>(in);
  auto values = read_array<value_t>(in);
  CsrDu m = CsrDu::from_raw(nrows, ncols, o, std::move(ctl),
                            std::move(values));
  // from_raw() accepts a stream without values (CSR-DU-VI's index side);
  // a CSR-DU container must carry one value per element.
  if (m.values().size() != m.nnz()) {
    throw ParseError("csr-du: ctl element count does not match values");
  }
  return m;
}

CsrVi load_csr_vi(std::istream& in) {
  index_t nrows = 0, ncols = 0;
  expect_header(in, SpcmTag::kCsrVi, &nrows, &ncols);
  const std::uint32_t width = read_u32(in);
  auto row_ptr = read_array<index_t>(in);
  auto col_ind = read_array<std::uint32_t>(in);
  auto val_ind = read_array<std::uint8_t>(in);
  auto vals_unique = read_array<value_t>(in);
  return CsrVi::from_raw(nrows, ncols, std::move(row_ptr),
                         std::move(col_ind), width, std::move(val_ind),
                         std::move(vals_unique));
}

CsrDuVi load_csr_du_vi(std::istream& in) {
  index_t nrows = 0, ncols = 0;
  expect_header(in, SpcmTag::kCsrDuVi, &nrows, &ncols);
  const CsrDuOptions o = read_du_options(in);
  const std::uint32_t width = read_u32(in);
  auto ctl = read_array<std::uint8_t>(in);
  auto val_ind = read_array<std::uint8_t>(in);
  auto vals_unique = read_array<value_t>(in);
  return CsrDuVi::from_raw(nrows, ncols, o, std::move(ctl), width,
                           std::move(val_ind), std::move(vals_unique));
}

namespace {

template <typename M>
void save_file_impl(const M& m, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) {
    throw Error("cannot open output file: " + path);
  }
  save(m, f);
}

std::ifstream open_input(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    throw Error("cannot open matrix container: " + path);
  }
  return f;
}

}  // namespace

void save_file(const Csr& m, const std::string& path) {
  save_file_impl(m, path);
}
void save_file(const CsrDu& m, const std::string& path) {
  save_file_impl(m, path);
}
void save_file(const CsrVi& m, const std::string& path) {
  save_file_impl(m, path);
}
void save_file(const CsrDuVi& m, const std::string& path) {
  save_file_impl(m, path);
}

Csr load_csr_file(const std::string& path) {
  std::ifstream f = open_input(path);
  return load_csr(f);
}
CsrDu load_csr_du_file(const std::string& path) {
  std::ifstream f = open_input(path);
  return load_csr_du(f);
}
CsrVi load_csr_vi_file(const std::string& path) {
  std::ifstream f = open_input(path);
  return load_csr_vi(f);
}
CsrDuVi load_csr_du_vi_file(const std::string& path) {
  std::ifstream f = open_input(path);
  return load_csr_du_vi(f);
}

}  // namespace spc
