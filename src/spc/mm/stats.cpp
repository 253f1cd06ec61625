#include "spc/mm/stats.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "spc/mm/value_census.hpp"

namespace spc {

usize_t MatrixStats::working_set_bytes(std::uint32_t idx_bytes,
                                       std::uint32_t val_bytes) const {
  return csr_bytes(idx_bytes, val_bytes) +
         (static_cast<usize_t>(nrows) + ncols) * val_bytes;
}

usize_t MatrixStats::csr_bytes(std::uint32_t idx_bytes,
                               std::uint32_t val_bytes) const {
  return nnz * (idx_bytes + val_bytes) +
         (static_cast<usize_t>(nrows) + 1) * idx_bytes;
}

double MatrixStats::u8_delta_fraction() const {
  std::uint64_t total = 0;
  for (const auto c : delta_class_count) {
    total += c;
  }
  return total ? static_cast<double>(delta_class_count[0]) /
                     static_cast<double>(total)
               : 0.0;
}

MatrixStats compute_stats(const Triplets& t) {
  SPC_CHECK_MSG(t.is_sorted_unique(),
                "compute_stats requires sorted/combined triplets");
  MatrixStats s;
  s.nrows = t.nrows();
  s.ncols = t.ncols();
  s.nnz = t.nnz();

  // Row lengths.
  std::vector<index_t> row_len(t.nrows(), 0);
  for (const Entry& e : t.entries()) {
    ++row_len[e.row];
  }
  OnlineStats len_stats;
  s.row_len_min = t.nrows() > 0 ? row_len[0] : 0;
  for (const index_t len : row_len) {
    len_stats.add(static_cast<double>(len));
    if (len == 0) {
      ++s.empty_rows;
    }
  }
  if (t.nrows() > 0) {
    s.row_len_mean = len_stats.mean();
    s.row_len_stddev = len_stats.stddev();
    s.row_len_min = static_cast<index_t>(len_stats.min());
    s.row_len_max = static_cast<index_t>(len_stats.max());
  }

  // Column deltas & bandwidth. The first non-zero of each row contributes
  // its absolute column index (the CSR-DU new-row jump starts from col 0).
  index_t prev_row = ~index_t{0};
  index_t prev_col = 0;
  for (const Entry& e : t.entries()) {
    const std::uint64_t delta =
        (e.row == prev_row) ? static_cast<std::uint64_t>(e.col - prev_col)
                            : static_cast<std::uint64_t>(e.col);
    ++s.delta_class_count[static_cast<std::uint8_t>(delta_class_for(delta))];
    const std::uint64_t dist =
        e.col >= e.row ? static_cast<std::uint64_t>(e.col - e.row)
                       : static_cast<std::uint64_t>(e.row - e.col);
    s.bandwidth = std::max<usize_t>(s.bandwidth, dist);
    prev_row = e.row;
    prev_col = e.col;
  }

  // Unique-value census: CSR-VI's own, so the counts agree bit for bit.
  ValueCensus census;
  for (const Entry& e : t.entries()) {
    census.add(e.val);
  }
  s.unique_values = census.size();
  s.ttu = s.unique_values
              ? static_cast<double>(s.nnz) / static_cast<double>(s.unique_values)
              : 0.0;
  return s;
}

}  // namespace spc
