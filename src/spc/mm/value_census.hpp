// Value census and value index — the paper's value compression (§V):
// the distinct values of a value stream, and per element the index of
// its value among them.
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
//
// ValueIndex is the value side of every value-compressed format: CSR-VI,
// CSR-DU-VI, their offset-unit layout and symmetric CSR-VI each hold one
// (two for the symmetric diagonal and lower triangle) beside their index
// side. It is the only code that knows the index width: visit() hands
// the index array to a template at its real type.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "spc/mm/triplets.hpp"
#include "spc/support/aligned.hpp"
#include "spc/support/error.hpp"
#include "spc/support/types.hpp"

namespace spc {

/// Storage width of one value index.
enum class ViWidth : std::uint8_t { kU8 = 1, kU16 = 2, kU32 = 4 };

/// Smallest width that can address `unique_count` values.
ViWidth vi_width_for(usize_t unique_count);

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

/// Per element, the index of its value in a table of distinct values,
/// stored at the table's width (vi_width_for()). Components built from
/// one ValueTable share its table, so the slices of one matrix hold one
/// copy of it.
class ValueIndex {
 public:
  ValueIndex() = default;

  /// Indexes n values into `table`, which must hold each of them:
  /// fill(put) calls put(k, v) once for every k in [0, n), with v the
  /// k-th value in element order. put stores at the table's width, so
  /// fill's loop is compiled once per width and tests no width per
  /// element; an encoder can fill in the loop that writes its index side.
  template <typename Fill>
  ValueIndex(const ValueTable& table, usize_t n, Fill&& fill)
      : width_(table.width()),
        bytes_(n * static_cast<usize_t>(table.width())),
        table_(table.values()) {
    visit([&](const auto* ind) {
      using T = std::remove_cv_t<std::remove_pointer_t<decltype(ind)>>;
      fill([out = bytes_.data(), &table](usize_t k, value_t v) {
        const auto i = static_cast<T>(table.index_of(v));
        std::memcpy(out + k * sizeof(T), &i, sizeof(T));
      });
    });
  }

  /// Reconstructs n indices from raw parts (the deserialization path):
  /// `width` as stored, so any value but 1, 2 or 4 is rejected rather
  /// than narrowed, `bytes` exactly n indices long, every index inside
  /// `table`. Throws ParseError naming `format` otherwise.
  static ValueIndex from_raw(const char* format, usize_t n,
                             std::uint32_t width,
                             aligned_vector<std::uint8_t> bytes,
                             aligned_vector<value_t> table);

  ViWidth width() const { return width_; }
  /// Number of indices.
  usize_t size() const {
    return bytes_.size() / static_cast<usize_t>(width_);
  }
  /// The index bytes, size() * width() of them (containers, residency
  /// queries, tests).
  const aligned_vector<std::uint8_t>& raw() const { return bytes_; }
  /// The distinct values the indices point into.
  const aligned_vector<value_t>& table() const { return *table_; }
  /// Value of element k (inspection path).
  value_t value_at(usize_t k) const;
  /// Index bytes plus table bytes.
  usize_t bytes() const {
    return bytes_.size() + table_->size() * sizeof(value_t);
  }

  /// Calls f with the index array at its real type — const std::uint8_t*,
  /// const std::uint16_t* or const std::uint32_t* — followed by the
  /// arrays of `more` at the same type, and returns what f returns.
  /// Components visited together must share one width (symmetric
  /// CSR-VI's diagonal and lower triangle index one table).
  template <typename F, typename... More>
  decltype(auto) visit(F&& f, const More&... more) const {
    static_assert((std::is_same_v<More, ValueIndex> && ...));
    SPC_CHECK(((more.width_ == width_) && ...));
    switch (width_) {
      case ViWidth::kU8:
        return f(as<std::uint8_t>(), more.template as<std::uint8_t>()...);
      case ViWidth::kU16:
        return f(as<std::uint16_t>(), more.template as<std::uint16_t>()...);
      case ViWidth::kU32:
        return f(as<std::uint32_t>(), more.template as<std::uint32_t>()...);
    }
    throw Error("invalid value-index width");
  }

 private:
  template <typename T>
  const T* as() const {
    return reinterpret_cast<const T*>(bytes_.data());
  }

  ViWidth width_ = ViWidth::kU8;
  aligned_vector<std::uint8_t> bytes_;
  std::shared_ptr<const aligned_vector<value_t>> table_ =
      std::make_shared<const aligned_vector<value_t>>();
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
