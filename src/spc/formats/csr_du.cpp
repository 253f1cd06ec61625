#include "spc/formats/csr_du.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <string>

#include "spc/formats/du_units.hpp"
#include "spc/support/varint.hpp"

namespace spc {

namespace {

// Appends `delta` to the ctl stream in the width of `cls`, little-endian.
void append_delta(aligned_vector<std::uint8_t>& ctl, std::uint64_t delta,
                  DeltaClass cls) {
  const std::uint32_t width = delta_class_bytes(cls);
  for (std::uint32_t b = 0; b < width; ++b) {
    ctl.push_back(static_cast<std::uint8_t>(delta >> (8 * b)));
  }
}

std::uint64_t read_delta(const std::uint8_t*& p, DeltaClass cls) {
  const std::uint32_t width = delta_class_bytes(cls);
  std::uint64_t v = 0;
  for (std::uint32_t b = 0; b < width; ++b) {
    v |= static_cast<std::uint64_t>(*p++) << (8 * b);
  }
  return v;
}

// varint_encode into an aligned byte vector (varint.hpp works on
// std::vector<uint8_t>; keep one local shim to avoid converting).
void append_varint(aligned_vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

// Skips a ctl unit's body: the ujmp varint, then the RLE stride varint
// or the usize-1 deltas.
void skip_ctl_body(std::uint8_t uflags, std::uint32_t usize,
                   const std::uint8_t*& p) {
  varint_decode(p);  // ujmp
  if (uflags & kDuRle) {
    varint_decode(p);  // stride
  } else {
    const auto cls = static_cast<DeltaClass>(uflags & kDuClassMask);
    p += static_cast<std::size_t>(usize - 1) * delta_class_bytes(cls);
  }
}

}  // namespace

Status CsrDuOptions::validate() const {
  if (max_unit < 1 || max_unit > 255) {
    return Status::Invalid("du.max_unit must be in [1, 255] (got " +
                           std::to_string(max_unit) + ")");
  }
  if (split_threshold < 1) {
    return Status::Invalid("du.split_threshold must be >= 1 (got " +
                           std::to_string(split_threshold) + ")");
  }
  if (rle_min_run < 2) {
    return Status::Invalid("du.rle_min_run must be >= 2 (got " +
                           std::to_string(rle_min_run) + ")");
  }
  return Status::Ok();
}

void CsrDu::UnitHistogram::add_unit(DeltaClass cls, std::uint32_t usize,
                                    bool rle, std::uint64_t stride) {
  const auto ci = static_cast<std::uint8_t>(
      rle ? delta_class_for(stride) : cls);
  ++units;
  nnz += usize;
  ++units_per_class[ci];
  elems_per_class[ci] += usize;
  if (rle) {
    ++rle_units;
    rle_elems += usize;
    if (stride == 1) {
      ++seq_units;
      seq_elems += usize;
    }
  }
}

CsrDu::UnitHistogram& CsrDu::UnitHistogram::operator+=(
    const UnitHistogram& o) {
  units += o.units;
  for (int c = 0; c < 4; ++c) {
    units_per_class[c] += o.units_per_class[c];
    elems_per_class[c] += o.elems_per_class[c];
  }
  rle_units += o.rle_units;
  rle_elems += o.rle_elems;
  seq_units += o.seq_units;
  seq_elems += o.seq_elems;
  nnz += o.nnz;
  return *this;
}

CsrDu CsrDu::from_triplets(const Triplets& t, const CsrDuOptions& opts) {
  return encode(t, 0, t.nrows(), opts, true);
}

CsrDu CsrDu::from_rows(const Triplets& t, index_t row_begin,
                       index_t row_end, const CsrDuOptions& opts) {
  return encode(t, row_begin, row_end, opts, true);
}

CsrDu CsrDu::encode(const Triplets& t, index_t row_begin, index_t row_end,
                    const CsrDuOptions& opts, bool keep_values) {
  SPC_CHECK_MSG(t.is_sorted_unique(),
                "CSR-DU construction requires sorted/combined triplets");
  if (const Status st = opts.validate(); !st.ok()) {
    throw InvalidArgument("CsrDuOptions: " + st.message());
  }
  const std::span<const Entry> entries = t.rows(row_begin, row_end);

  CsrDu m;
  m.nrows_ = row_end - row_begin;
  m.ncols_ = t.ncols();
  m.opts_ = opts;
  m.nnz_ = entries.size();
  if (keep_values) {
    m.values_.reserve(entries.size());
  }
  // Two bytes per element and a 5-byte varint per row bound every row of
  // at most 255 u8/u16-class deltas (the unit header spends the first
  // element's two bytes), so only rows with wider gaps can make the
  // stream grow and copy itself.
  m.ctl_.reserve(2 * entries.size() + 5 * static_cast<usize_t>(m.nrows_));

  std::vector<detail::DuSegment> segments;  // segmentation of one row
  std::int64_t prev_row = -1;  // last local row that produced units

  usize_t i = 0;
  while (i < entries.size()) {
    // Gather one row (entries carry absolute rows; prev_row is local).
    const index_t row = entries[i].row;
    usize_t row_end_i = i + 1;
    while (row_end_i < entries.size() && entries[row_end_i].row == row) {
      ++row_end_i;
    }
    const std::span<const Entry> r = entries.subspan(i, row_end_i - i);
    if (keep_values) {
      for (const Entry& e : r) {
        m.values_.push_back(e.val);
      }
    }
    i = row_end_i;
    // A unit's class covers its deltas after the first element, which
    // becomes the varint ujmp and has no class.
    detail::segment_row(
        r, opts,
        [&r](usize_t, usize_t e) {
          return delta_class_for(r[e].col - r[e - 1].col);
        },
        segments);
    // The first element's "delta" is its absolute column (the NR ujmp).
    const auto delta = [&r](usize_t k) {
      return static_cast<std::uint64_t>(k == 0 ? r[0].col
                                               : r[k].col - r[k - 1].col);
    };

    // Emit the row's units.
    const std::uint64_t rskip = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(row - row_begin) - prev_row - 1);
    bool first_of_row = true;
    for (const detail::DuSegment& seg : segments) {
      std::uint8_t flags =
          static_cast<std::uint8_t>(static_cast<std::uint8_t>(seg.cls) &
                                    kDuClassMask);
      if (seg.rle) {
        flags |= kDuRle;
      }
      if (first_of_row) {
        flags |= kDuNewRow;
        if (rskip > 0) {
          flags |= kDuRJmp;
        }
      }
      m.ctl_.push_back(flags);
      m.ctl_.push_back(static_cast<std::uint8_t>(seg.len));
      if (first_of_row && rskip > 0) {
        append_varint(m.ctl_, rskip);
      }
      append_varint(m.ctl_, delta(seg.first));
      if (seg.rle) {
        append_varint(m.ctl_, seg.stride);
      } else {
        for (std::uint32_t k = 1; k < seg.len; ++k) {
          append_delta(m.ctl_, delta(seg.first + k), seg.cls);
        }
      }
      m.hist_.add_unit(seg.cls, seg.len, seg.rle, seg.stride);
      first_of_row = false;
    }
    prev_row = row - row_begin;
  }
  return m;
}

CsrDu CsrDu::from_raw(index_t nrows, index_t ncols,
                      const CsrDuOptions& opts,
                      aligned_vector<std::uint8_t> ctl,
                      aligned_vector<value_t> values) {
  CsrDu m;
  m.nrows_ = nrows;
  m.ncols_ = ncols;
  m.opts_ = opts;
  m.ctl_ = std::move(ctl);
  m.values_ = std::move(values);

  // Full validation walk: bounds, counts and per-class statistics.
  const std::uint8_t* p = m.ctl_.data();
  const std::uint8_t* const end = m.ctl_.data() + m.ctl_.size();
  std::int64_t row = -1;
  std::uint64_t col = 0;
  usize_t elems = 0;
  while (p < end) {
    if (end - p < 2) {
      throw ParseError("csr-du: truncated unit header");
    }
    const std::uint8_t flags = *p++;
    const std::uint32_t usize = *p++;
    if (usize == 0) {
      throw ParseError("csr-du: zero-length unit");
    }
    const bool rle = (flags & kDuRle) != 0;
    const auto cls = static_cast<DeltaClass>(flags & kDuClassMask);
    if (flags & kDuNewRow) {
      std::uint64_t rskip = 0;
      if (flags & kDuRJmp) {
        rskip = varint_decode_checked(p, end);
      }
      row += 1 + static_cast<std::int64_t>(rskip);
      col = 0;
      if (row >= static_cast<std::int64_t>(nrows)) {
        throw ParseError("csr-du: row index out of bounds");
      }
    } else if (row < 0) {
      throw ParseError("csr-du: stream does not start with a new row");
    }
    const std::uint64_t ujmp = varint_decode_checked(p, end);
    // Non-NR continuation units sit after a previous element: their jump
    // lands on a strictly later column only if ujmp >= 1; NR units may
    // start at column 0.
    col += ujmp;
    ++elems;
    std::uint64_t rle_stride = 0;
    if (rle) {
      const std::uint64_t stride = varint_decode_checked(p, end);
      rle_stride = stride;
      col += stride * (usize - 1);
      elems += usize - 1;
    } else {
      const std::size_t width = delta_class_bytes(cls);
      if (static_cast<std::size_t>(end - p) <
          width * static_cast<std::size_t>(usize - 1)) {
        throw ParseError("csr-du: truncated ucis array");
      }
      for (std::uint32_t k = 1; k < usize; ++k) {
        std::uint64_t d = 0;
        for (std::size_t b = 0; b < width; ++b) {
          d |= static_cast<std::uint64_t>(*p++) << (8 * b);
        }
        col += d;
        ++elems;
      }
    }
    if (col >= ncols) {
      throw ParseError("csr-du: column index out of bounds");
    }
    m.hist_.add_unit(cls, usize, rle, rle_stride);
  }
  if (!m.values_.empty() && elems != m.values_.size()) {
    throw ParseError("csr-du: ctl element count does not match values");
  }
  m.nnz_ = elems;
  return m;
}

CsrDu::Slice CsrDu::full() const {
  Slice s;
  s.ctl = ctl_.data();
  s.ctl_end = ctl_.data() + ctl_.size();
  s.values = values_.empty() ? nullptr : values_.data();
  s.val_offset = 0;
  s.row_begin = 0;
  s.row_end = nrows_;
  s.row_state = -1;
  s.nnz = nnz_;
  return s;
}

CsrDu::Slice CsrDu::slice(index_t row_begin, index_t row_end) const {
  SPC_CHECK_MSG(row_begin <= row_end && row_end <= nrows_,
                "slice row range out of bounds");
  return slices({row_begin, row_end}).front();
}

std::vector<CsrDu::Slice> CsrDu::slices(
    const std::vector<index_t>& bounds) const {
  return detail::unit_slices(ctl_.data(), ctl_.data() + ctl_.size(),
                             values_.empty() ? nullptr : values_.data(),
                             nrows_, bounds, skip_ctl_body);
}

CsrDu::UnitHistogram CsrDu::unit_histogram() const {
  UnitHistogram h;
  const std::uint8_t* p = ctl_.data();
  const std::uint8_t* const end = ctl_.data() + ctl_.size();
  while (p < end) {
    const std::uint8_t uflags = *p++;
    const std::uint32_t usize = *p++;
    if ((uflags & kDuNewRow) && (uflags & kDuRJmp)) {
      varint_decode_checked(p, end);  // rskip
    }
    varint_decode_checked(p, end);  // ujmp
    const auto cls = static_cast<DeltaClass>(uflags & kDuClassMask);
    if (uflags & kDuRle) {
      h.add_unit(cls, usize, true, varint_decode_checked(p, end));
    } else {
      h.add_unit(cls, usize, false, 0);
      const usize_t payload =
          static_cast<usize_t>(usize - 1) * delta_class_bytes(cls);
      SPC_CHECK_MSG(p + payload <= end, "ctl stream truncated inside ucis");
      p += payload;
    }
  }
  return h;
}

std::vector<CsrDu::DecodedUnit> CsrDu::decode_units() const {
  std::vector<DecodedUnit> units;
  const std::uint8_t* p = ctl_.data();
  const std::uint8_t* const end = ctl_.data() + ctl_.size();
  while (p < end) {
    DecodedUnit u;
    u.uflags = *p++;
    u.usize = *p++;
    u.new_row = (u.uflags & kDuNewRow) != 0;
    u.rle = (u.uflags & kDuRle) != 0;
    u.cls = static_cast<DeltaClass>(u.uflags & kDuClassMask);
    if (u.new_row && (u.uflags & kDuRJmp)) {
      u.rskip = varint_decode_checked(p, end);
    }
    u.ujmp = varint_decode_checked(p, end);
    if (u.rle) {
      u.stride = varint_decode_checked(p, end);
      u.ucis.assign(u.usize - 1, u.stride);
    } else {
      for (std::uint32_t k = 1; k < u.usize; ++k) {
        SPC_CHECK_MSG(p + delta_class_bytes(u.cls) <= end,
                      "ctl stream truncated inside ucis");
        u.ucis.push_back(read_delta(p, u.cls));
      }
    }
    units.push_back(std::move(u));
  }
  return units;
}

CsrDu::Cursor::Cursor(const Slice& s)
    : p_(s.ctl), end_(s.ctl_end), val_index_(s.val_offset),
      row_(s.row_state) {}

bool CsrDu::Cursor::next(index_t* row, index_t* col) {
  if (remaining_ == 0) {
    if (p_ >= end_) {
      return false;
    }
    uflags_ = *p_++;
    remaining_ = *p_++;
    if (uflags_ & kDuNewRow) {
      std::uint64_t rskip = 0;
      if (uflags_ & kDuRJmp) {
        rskip = varint_decode(p_);
      }
      row_ += 1 + static_cast<std::int64_t>(rskip);
      col_ = 0;
      col_ += varint_decode(p_);
    } else {
      col_ += varint_decode(p_);
    }
    if (uflags_ & kDuRle) {
      stride_ = varint_decode(p_);
    }
  } else {
    // Continuation element within the open unit.
    if (uflags_ & kDuRle) {
      col_ += stride_;
    } else {
      const auto cls = static_cast<DeltaClass>(uflags_ & kDuClassMask);
      std::uint64_t d = 0;
      for (std::uint32_t b = 0; b < delta_class_bytes(cls); ++b) {
        d |= static_cast<std::uint64_t>(*p_++) << (8 * b);
      }
      col_ += d;
    }
  }
  --remaining_;
  ++val_index_;
  *row = static_cast<index_t>(row_);
  *col = static_cast<index_t>(col_);
  return true;
}

Triplets CsrDu::to_triplets() const {
  Triplets t(nrows_, ncols_);
  t.reserve(nnz());
  std::int64_t row = -1;
  std::uint64_t col = 0;
  usize_t v = 0;
  for (const DecodedUnit& u : decode_units()) {
    if (u.new_row) {
      row += 1 + static_cast<std::int64_t>(u.rskip);
      col = 0;
    }
    col += u.ujmp;
    t.add(static_cast<index_t>(row), static_cast<index_t>(col),
          values_[v++]);
    for (const std::uint64_t d : u.ucis) {
      col += d;
      t.add(static_cast<index_t>(row), static_cast<index_t>(col),
            values_[v++]);
    }
  }
  return t;
}

}  // namespace spc
