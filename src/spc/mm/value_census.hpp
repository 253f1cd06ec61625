// Value census — the distinct values of a value stream, the building
// block of the paper's value compression (§V).
//
// A value's identity is its bit pattern, so -0.0 and +0.0 are distinct
// and so is every NaN payload. Distinct values keep first-occurrence
// order. The table is open-addressed and sized by the distinct count,
// not by the stream length, so a census costs no allocation per value.
//
// Encoders run the stream twice: one pass of add() fixes the distinct
// count (and with it the index width). The finished census becomes a
// ValueTable, whose read-only index_of() gives each value's index to
// store in that width, so the slices of one matrix can be encoded from
// one census at once, on several threads. The first pass splits by row
// range too: each range is counted on its own thread and the range
// censuses merge in range order (row_major_values()).
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "spc/mm/triplets.hpp"
#include "spc/support/aligned.hpp"
#include "spc/support/types.hpp"

namespace spc {

/// Storage width of one value index.
enum class ViWidth : std::uint8_t { kU8 = 1, kU16 = 2, kU32 = 4 };

/// Smallest width that can address `unique_count` values.
ViWidth vi_width_for(usize_t unique_count);

/// Stores index `i` as element k of a value-index array of width `w`.
inline void store_value_index(std::uint8_t* dst, ViWidth w, usize_t k,
                              std::uint32_t i) {
  switch (w) {
    case ViWidth::kU8:
      dst[k] = static_cast<std::uint8_t>(i);
      return;
    case ViWidth::kU16: {
      const auto v = static_cast<std::uint16_t>(i);
      std::memcpy(dst + 2 * k, &v, sizeof(v));
      return;
    }
    case ViWidth::kU32:
      std::memcpy(dst + 4 * k, &i, sizeof(i));
      return;
  }
}

class ValueCensus {
 public:
  ValueCensus();

  /// Index of `v` among the distinct values, appending it on first sight.
  std::uint32_t add(value_t v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    // Runs of one value are common (stencils, pooled rows): skip the probe.
    if (bits == last_bits_ && !values_.empty()) {
      return last_index_;
    }
    last_bits_ = bits;
    last_index_ = find_or_insert(bits, v);
    return last_index_;
  }

  usize_t size() const { return values_.size(); }
  ViWidth width() const { return vi_width_for(size()); }
  /// The distinct values in first-occurrence order; ends the census.
  aligned_vector<value_t> take_values() { return std::move(values_); }

  /// Index of `v`, which an earlier add() must have counted. Reads the
  /// table only, so concurrent calls are safe.
  std::uint32_t index_of(value_t v) const;

 private:
  struct Slot {
    std::uint64_t bits = 0;
    std::uint32_t index = 0;
    bool used = false;
  };

  static constexpr int kInitialShift = 60;  ///< 16 slots

  std::size_t home(std::uint64_t bits) const;
  std::uint32_t find_or_insert(std::uint64_t bits, value_t v);
  void grow();

  std::vector<Slot> slots_;  ///< power-of-two size, at most half full
  int shift_ = kInitialShift;  ///< 64 - log2(slots_.size())
  aligned_vector<value_t> values_;
  std::uint64_t last_bits_ = 0;
  std::uint32_t last_index_ = 0;
};

/// A finished census, shared read-only by every slice of one matrix: the
/// distinct values (one array, held by each slice's encoding), their
/// index width, and the lookup of each value's index.
class ValueTable {
 public:
  explicit ValueTable(ValueCensus census);

  ViWidth width() const { return width_; }
  /// The distinct values in first-occurrence order.
  const std::shared_ptr<const aligned_vector<value_t>>& values() const {
    return values_;
  }
  /// Index of a counted value; safe to call from several threads.
  std::uint32_t index_of(value_t v) const { return census_.index_of(v); }

 private:
  ValueCensus census_;
  ViWidth width_;
  std::shared_ptr<const aligned_vector<value_t>> values_;
};

/// Calls job(i) once for every i in [0, n), possibly concurrently, and
/// returns when every call has finished.
using RangeRunner = std::function<void(
    std::size_t n, const std::function<void(std::size_t)>& job)>;

/// The census of every value of sorted triplets in row-major order: the
/// table CSR-VI and CSR-DU-VI index into. Rows [bounds[i], bounds[i+1])
/// are counted as range i, through `run`, and the range censuses merge
/// in range order. A value first seen in range i comes after every value
/// first seen in an earlier range, and keeps its place among range i's
/// own, so the table is byte-identical to one census of the whole
/// stream; with a single range it is that census.
ValueTable row_major_values(const Triplets& t,
                            std::span<const index_t> bounds,
                            const RangeRunner& run);

/// One range on the calling thread.
ValueTable row_major_values(const Triplets& t);

}  // namespace spc
