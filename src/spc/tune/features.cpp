#include "spc/tune/features.hpp"

#include <cstdio>
#include <cstring>

#include "spc/mm/ops.hpp"
#include "spc/support/error.hpp"

namespace spc::tune {

namespace {

// Hashes a sequence of 64-bit words, one multiply-xorshift step per
// word. Words are values, not bytes in memory, so the hash does not
// depend on host byte order, integer widths or struct padding.
class WordHash {
 public:
  void add_u64(std::uint64_t v) {
    h_ = (h_ ^ v) * 0x9e3779b97f4a7c15ull;
    h_ ^= h_ >> 29;
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return std::string(buf);
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// One O(nnz) walk over the rows of sorted triplets: the nnz-weighted
// mean column span, sum_r nnz_r * (max_col_r - min_col_r + 1) / nnz, and
// the share of non-zeros in rows whose offset from the row's first
// column, max_col_r - min_col_r, needs each DeltaClass.
void row_span_features(const Triplets& t, TuneFeatures& f) {
  const std::vector<Entry>& es = t.entries();
  if (es.empty()) {
    return;
  }
  double weighted = 0.0;
  usize_t per_class[4] = {0, 0, 0, 0};
  usize_t k = 0;
  const usize_t n = es.size();
  while (k < n) {
    const index_t row = es[k].row;
    const index_t first = es[k].col;  // sorted: min column of the row
    usize_t e = k;
    while (e + 1 < n && es[e + 1].row == row) {
      ++e;
    }
    const usize_t row_nnz = e - k + 1;
    const index_t span = es[e].col - first;
    weighted +=
        static_cast<double>(row_nnz) * (static_cast<double>(span) + 1.0);
    per_class[static_cast<std::uint8_t>(delta_class_for(span))] += row_nnz;
    k = e + 1;
  }
  f.mean_row_span = weighted / static_cast<double>(n);
  for (int c = 0; c < 4; ++c) {
    f.span_share[c] =
        static_cast<double>(per_class[c]) / static_cast<double>(n);
  }
}

}  // namespace

std::string matrix_fingerprint(const Triplets& t) {
  SPC_CHECK_MSG(t.is_sorted_unique(),
                "matrix_fingerprint requires sorted/combined triplets");
  WordHash h;
  h.add_u64(t.nrows());
  h.add_u64(t.ncols());
  h.add_u64(t.nnz());
  for (const Entry& e : t.entries()) {
    h.add_u64(e.row);
    h.add_u64(e.col);
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(e.val));
    std::memcpy(&bits, &e.val, sizeof(bits));
    h.add_u64(bits);
  }
  return h.hex();
}

TuneFeatures extract_features(const Triplets& t) {
  TuneFeatures f;
  f.stats = compute_stats(t);
  std::uint64_t total = 0;
  for (const auto c : f.stats.delta_class_count) {
    total += c;
  }
  if (total > 0) {
    for (int i = 0; i < 4; ++i) {
      f.delta_share[i] = static_cast<double>(f.stats.delta_class_count[i]) /
                         static_cast<double>(total);
    }
  }
  row_span_features(t, f);
  f.row_cv = f.stats.row_len_mean > 0.0
                 ? f.stats.row_len_stddev / f.stats.row_len_mean
                 : 0.0;

  for (const Entry& e : t.entries()) {
    if (e.row == e.col) {
      ++f.ndiag;
    }
  }

  if (t.nnz() > 0) {
    // Bit patterns, not SymCsr::applicable's `==`: the two differ only
    // on ±0.0 mirrors (the tuner declines the sym formats) and on NaN
    // mirrors (the sym encoders refuse them).
    const MirrorCheck m = check_mirrors(t, [](value_t a, value_t b) {
      std::uint64_t ab = 0;
      std::uint64_t bb = 0;
      std::memcpy(&ab, &a, sizeof(ab));
      std::memcpy(&bb, &b, sizeof(bb));
      return ab == bb;
    });
    f.structurally_symmetric = m.pattern;
    f.value_symmetric = m.values;
  }

  f.fingerprint = matrix_fingerprint(t);
  return f;
}

}  // namespace spc::tune
