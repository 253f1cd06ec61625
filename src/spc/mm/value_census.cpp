#include "spc/mm/value_census.hpp"

#include <string>

namespace spc {

ViWidth vi_width_for(usize_t unique_count) {
  if (unique_count <= (1ULL << 8)) {
    return ViWidth::kU8;
  }
  if (unique_count <= (1ULL << 16)) {
    return ViWidth::kU16;
  }
  SPC_CHECK_MSG(unique_count <= (1ULL << 32),
                "more than 2^32 unique values");
  return ViWidth::kU32;
}

ValueCensus::ValueCensus() : slots_(std::size_t{1} << (64 - kInitialShift)) {}

std::size_t ValueCensus::home(std::uint64_t bits) const {
  // Fibonacci hashing: the top bits of the product depend on every bit
  // of the pattern, and doubles differ mostly in their high bits. It
  // beat MurmurHash3's finalizer on pooled, integer-valued, power-of-two
  // and all-distinct value sets alike.
  return static_cast<std::size_t>((bits * 0x9e3779b97f4a7c15ULL) >> shift_);
}

std::uint32_t ValueCensus::find_or_insert(std::uint64_t bits, value_t v) {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(bits);; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (!s.used) {
      SPC_CHECK_MSG(values_.size() < (1ULL << 32),
                    "more than 2^32 unique values");
      const auto index = static_cast<std::uint32_t>(values_.size());
      s = Slot{bits, index, true};
      values_.push_back(v);
      if (2 * values_.size() > slots_.size()) {
        grow();
      }
      return index;
    }
    if (s.bits == bits) {
      return s.index;
    }
  }
}

void ValueCensus::grow() {
  std::vector<Slot> old(2 * slots_.size());
  old.swap(slots_);
  --shift_;
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (!s.used) {
      continue;
    }
    std::size_t i = home(s.bits);
    while (slots_[i].used) {
      i = (i + 1) & mask;
    }
    slots_[i] = s;
  }
}

std::uint32_t ValueCensus::index_of(value_t v) const {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(bits);; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    SPC_CHECK_MSG(s.used, "value missing from the census");
    if (s.bits == bits) {
      return s.index;
    }
  }
}

ValueTable::ValueTable(ValueCensus census)
    : census_(std::move(census)),
      width_(census_.width()),
      values_(std::make_shared<const aligned_vector<value_t>>(
          census_.take_values())) {}

ValueIndex ValueIndex::from_raw(const char* format, usize_t n,
                                std::uint32_t width,
                                aligned_vector<std::uint8_t> bytes,
                                aligned_vector<value_t> table) {
  const auto fail = [format](const char* what) {
    throw ParseError(std::string(format) + ": " + what);
  };
  if (width != 1 && width != 2 && width != 4) {
    fail("invalid value-index width");
  }
  if (bytes.size() != n * width) {
    fail("val_ind size does not match element count");
  }
  ValueIndex m;
  m.width_ = static_cast<ViWidth>(width);
  m.bytes_ = std::move(bytes);
  m.table_ =
      std::make_shared<const aligned_vector<value_t>>(std::move(table));
  m.visit([&](const auto* ind) {
    for (usize_t k = 0; k < n; ++k) {
      if (ind[k] >= m.table_->size()) {
        fail("value index out of bounds");
      }
    }
  });
  return m;
}

value_t ValueIndex::value_at(usize_t k) const {
  SPC_CHECK(k < size());
  return visit([&](const auto* ind) { return (*table_)[ind[k]]; });
}

ValueTable row_major_values(const Triplets& t,
                            std::span<const index_t> bounds,
                            const RangeRunner& run) {
  SPC_CHECK_MSG(bounds.size() >= 2, "a census needs at least one row range");
  std::vector<ValueCensus> parts(bounds.size() - 1);
  run(parts.size(), [&](std::size_t i) {
    // Counted in a census of the job's own, not in place: neighbouring
    // parts share cache lines, and add() writes its last-value memo on
    // nearly every value.
    ValueCensus census;
    for (const Entry& e : t.rows(bounds[i], bounds[i + 1])) {
      census.add(e.val);
    }
    parts[i] = std::move(census);
  });
  // Each later range's values, in their first-occurrence order, extend
  // the census of the ranges before it.
  ValueCensus census = std::move(parts.front());
  for (std::size_t i = 1; i < parts.size(); ++i) {
    for (const value_t v : parts[i].take_values()) {
      census.add(v);
    }
  }
  return ValueTable(std::move(census));
}

ValueTable row_major_values(const Triplets& t) {
  const index_t whole[] = {0, t.nrows()};
  return row_major_values(
      t, whole, [](std::size_t n, const std::function<void(std::size_t)>& job) {
        for (std::size_t i = 0; i < n; ++i) {
          job(i);
        }
      });
}

}  // namespace spc
