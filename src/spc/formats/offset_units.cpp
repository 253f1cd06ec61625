#include "spc/formats/offset_units.hpp"

#include <cstring>
#include <span>
#include <utility>

#include "spc/formats/du_units.hpp"
#include "spc/support/varint.hpp"

namespace spc {

namespace {

template <typename T>
std::uint8_t* store(std::uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(v));
  return p + sizeof(v);
}

template <typename T>
T load(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Bytes of an offset unit after its header and optional rskip: the u32
// base, then the stride or the usize-1 offsets.
usize_t body_bytes(std::uint8_t uflags, std::uint32_t usize) {
  if (uflags & kDuRle) {
    return 8;
  }
  return 4 + static_cast<usize_t>(usize - 1) *
                 delta_class_bytes(
                     static_cast<DeltaClass>(uflags & kDuClassMask));
}

}  // namespace

OffsetUnits OffsetUnits::from_rows(const Triplets& t, index_t row_begin,
                                   index_t row_end, const CsrDuOptions& opts,
                                   bool keep_values) {
  SPC_CHECK_MSG(t.is_sorted_unique(),
                "offset-unit construction requires sorted/combined triplets");
  if (const Status st = opts.validate(); !st.ok()) {
    throw InvalidArgument("CsrDuOptions: " + st.message());
  }
  const std::span<const Entry> entries = t.rows(row_begin, row_end);

  OffsetUnits m;
  m.nrows_ = row_end - row_begin;
  m.ncols_ = t.ncols();
  m.nnz_ = entries.size();
  if (keep_values) {
    m.values_.reserve(entries.size());
    for (const Entry& e : entries) {
      m.values_.push_back(e.val);
    }
  }
  // A unit of u8/u16 offsets takes at most 2 bytes per element plus 4
  // (its 6-byte head replaces its first element's offset), so only
  // u32-class or much-split rows can make the stream grow and copy
  // itself.
  m.units_.reserve(3 * entries.size() + 6 * static_cast<usize_t>(m.nrows_));

  std::vector<detail::DuSegment> segments;
  std::int64_t prev_row = -1;  // last local row that produced units
  usize_t i = 0;
  while (i < entries.size()) {
    const index_t row = entries[i].row;
    usize_t end = i + 1;
    while (end < entries.size() && entries[end].row == row) {
      ++end;
    }
    const std::span<const Entry> r = entries.subspan(i, end - i);
    detail::segment_row(
        r, opts,
        [&r](usize_t s, usize_t e) {
          return delta_class_for(r[e].col - r[s].col);
        },
        segments);

    // The row's exact size, so its units are written in place.
    const std::uint64_t rskip = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(row - row_begin) - prev_row - 1);
    usize_t bytes = rskip > 0 ? static_cast<usize_t>(varint_size(rskip)) : 0;
    for (const detail::DuSegment& seg : segments) {
      bytes += 2 + body_bytes(seg.rle ? kDuRle
                                      : static_cast<std::uint8_t>(seg.cls),
                              seg.len);
    }
    const usize_t at = m.units_.size();
    m.units_.resize(at + bytes);
    std::uint8_t* p = m.units_.data() + at;

    bool first_of_row = true;
    for (const detail::DuSegment& seg : segments) {
      auto flags = static_cast<std::uint8_t>(seg.cls);
      if (seg.rle) {
        flags |= kDuRle;
      }
      if (first_of_row) {
        flags |= kDuNewRow;
        if (rskip > 0) {
          flags |= kDuRJmp;
        }
      }
      *p++ = flags;
      *p++ = static_cast<std::uint8_t>(seg.len);
      if (first_of_row && rskip > 0) {
        p = varint_write(rskip, p);
      }
      const Entry* const u = r.data() + seg.first;
      const index_t base = u[0].col;
      p = store(p, base);
      if (seg.rle) {
        p = store(p, static_cast<std::uint32_t>(seg.stride));
      } else {
        switch (seg.cls) {
          case DeltaClass::kU8:
            for (std::uint32_t k = 1; k < seg.len; ++k) {
              *p++ = static_cast<std::uint8_t>(u[k].col - base);
            }
            break;
          case DeltaClass::kU16:
            for (std::uint32_t k = 1; k < seg.len; ++k) {
              p = store(p, static_cast<std::uint16_t>(u[k].col - base));
            }
            break;
          default:  // offsets of 32-bit columns never need kU64
            for (std::uint32_t k = 1; k < seg.len; ++k) {
              p = store(p, static_cast<std::uint32_t>(u[k].col - base));
            }
            break;
        }
      }
      m.hist_.add_unit(seg.cls, seg.len, seg.rle, seg.stride);
      first_of_row = false;
    }
    prev_row = row - row_begin;
    i = end;
  }
  return m;
}

CsrDu::Slice OffsetUnits::full() const {
  CsrDu::Slice s;
  s.ctl = units_.data();
  s.ctl_end = units_.data() + units_.size();
  s.values = values_.empty() ? nullptr : values_.data();
  s.row_end = nrows_;
  s.nnz = nnz_;
  return s;
}

std::vector<CsrDu::Slice> OffsetUnits::slices(
    const std::vector<index_t>& bounds) const {
  return detail::unit_slices(
      units_.data(), units_.data() + units_.size(),
      values_.empty() ? nullptr : values_.data(), nrows_, bounds,
      [](std::uint8_t uflags, std::uint32_t usize, const std::uint8_t*& p) {
        p += body_bytes(uflags, usize);
      });
}

std::vector<OffsetUnits::Unit> OffsetUnits::decode_units() const {
  std::vector<Unit> units;
  const std::uint8_t* p = units_.data();
  const std::uint8_t* const end = units_.data() + units_.size();
  while (p < end) {
    Unit u;
    u.uflags = *p++;
    u.usize = *p++;
    if ((u.uflags & kDuNewRow) && (u.uflags & kDuRJmp)) {
      u.rskip = varint_decode(p);
    }
    u.base = load<std::uint32_t>(p);
    p += 4;
    if (u.uflags & kDuRle) {
      u.stride = load<std::uint32_t>(p);
      p += 4;
      for (std::uint32_t k = 1; k < u.usize; ++k) {
        u.offsets.push_back(k * u.stride);
      }
    } else {
      const auto cls = static_cast<DeltaClass>(u.uflags & kDuClassMask);
      for (std::uint32_t k = 1; k < u.usize; ++k) {
        switch (cls) {
          case DeltaClass::kU8:
            u.offsets.push_back(*p);
            break;
          case DeltaClass::kU16:
            u.offsets.push_back(load<std::uint16_t>(p));
            break;
          default:
            u.offsets.push_back(load<std::uint32_t>(p));
            break;
        }
        p += delta_class_bytes(cls);
      }
    }
    units.push_back(std::move(u));
  }
  return units;
}

OffsetUnitsVi OffsetUnitsVi::from_rows(const Triplets& t, index_t row_begin,
                                       index_t row_end,
                                       const CsrDuOptions& opts,
                                       const ValueTable& values) {
  OffsetUnitsVi m;
  m.du_ = OffsetUnits::from_rows(t, row_begin, row_end, opts,
                                 /*keep_values=*/false);
  // Row-major like the units' element order, so val_ind[k] pairs with
  // the k-th decoded element.
  const std::span<const Entry> rows = t.rows(row_begin, row_end);
  m.values_ = ValueIndex(values, rows.size(), [&](auto put) {
    for (usize_t k = 0; k < rows.size(); ++k) {
      put(k, rows[k].val);
    }
  });
  return m;
}

}  // namespace spc
