// Internal: the unit structure both CSR-DU layouts share — the ctl
// stream (storage, csr_du.hpp) and the offset units (execution,
// offset_units.hpp). Both split each row into the same kind of units
// (one width class, at most du.max_unit elements, never spanning a row)
// and both lead each unit with `uflags usize [rskip]`, so the row
// segmentation and the slicing scan live here once; only the bodies
// after that header differ.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "spc/formats/csr_du.hpp"
#include "spc/support/varint.hpp"

namespace spc::detail {

// One unit chosen by segment_row(): elements [first, first + len) of a
// row, stored with class `cls`; RLE units carry one `stride` instead.
struct DuSegment {
  usize_t first = 0;
  std::uint32_t len = 0;
  DeltaClass cls = DeltaClass::kU8;
  bool rle = false;
  std::uint64_t stride = 0;
};

// Splits one row's sorted elements into units (§IV), greedily. With RLE
// on, a constant-stride run of at least rle_min_run elements becomes one
// RLE unit. Otherwise a unit grows while the class element e needs in a
// unit that starts at s, class_of(s, e), fits the unit's class; an
// element needing a wider class closes the unit once it holds
// split_threshold elements, and otherwise widens it.
template <typename ClassOf>
void segment_row(std::span<const Entry> row, const CsrDuOptions& opts,
                 const ClassOf& class_of, std::vector<DuSegment>& out) {
  out.clear();
  const usize_t n = row.size();
  const auto gap = [&](usize_t k) {
    return static_cast<std::uint64_t>(row[k].col - row[k - 1].col);
  };
  usize_t s = 0;
  while (s < n) {
    if (opts.enable_rle && s + 1 < n) {
      const std::uint64_t stride = gap(s + 1);
      usize_t run = s + 1;
      while (run < n && gap(run) == stride && run - s < opts.max_unit) {
        ++run;
      }
      if (run - s >= opts.rle_min_run) {
        out.push_back(DuSegment{s, static_cast<std::uint32_t>(run - s),
                                DeltaClass::kU8, true, stride});
        s = run;
        continue;
      }
    }
    usize_t e = s + 1;
    DeltaClass cls = DeltaClass::kU8;
    while (e < n && e - s < opts.max_unit) {
      const DeltaClass c = class_of(s, e);
      if (c > cls && e - s >= opts.split_threshold) {
        break;  // widening would tax the existing elements; split
      }
      cls = std::max(cls, c);
      // Leave a long enough constant-gap run to the RLE detector.
      if (opts.enable_rle) {
        usize_t run = e;
        while (run < n && gap(run) == gap(e) && run - e < opts.max_unit) {
          ++run;
        }
        if (run - e >= opts.rle_min_run) {
          ++e;  // current element joins this unit as its last
          break;
        }
      }
      ++e;
    }
    out.push_back(
        DuSegment{s, static_cast<std::uint32_t>(e - s), cls, false, 0});
    s = e;
  }
}

// The slices of every consecutive row range bounds[i]..bounds[i+1] of a
// unit stream [begin, end), in one scan (CsrDu::slices() documents the
// anchoring). `skip_body(uflags, usize, p)` advances p past a unit's
// body, which starts right after the header's optional rskip.
template <typename SkipBody>
std::vector<CsrDu::Slice> unit_slices(const std::uint8_t* begin,
                                      const std::uint8_t* end,
                                      const value_t* values, index_t nrows,
                                      const std::vector<index_t>& bounds,
                                      const SkipBody& skip_body) {
  const std::size_t k = bounds.empty() ? 0 : bounds.size() - 1;
  std::vector<CsrDu::Slice> out(k);
  for (std::size_t i = 0; i < k; ++i) {
    SPC_CHECK_MSG(bounds[i] <= bounds[i + 1] && bounds[i + 1] <= nrows,
                  "slices bounds must be non-decreasing and in range");
    CsrDu::Slice& s = out[i];
    s.row_begin = bounds[i];
    s.row_end = bounds[i + 1];
    // Ranges past the last unit keep the zero-length span at the end.
    s.ctl = end;
    s.ctl_end = end;
  }

  // Ranges are consecutive and units arrive in row order, so at most one
  // range is open at a time.
  const std::uint8_t* p = begin;
  std::int64_t row = -1;
  usize_t val_off = 0;
  std::size_t next = 0;  ///< first range whose start is not yet anchored
  std::size_t open = k;  ///< index of the open range (k = none)

  while (p < end && (open < k || next < k)) {
    const std::uint8_t* const unit_start = p;
    const std::int64_t row_before = row;
    const std::uint8_t flags = *p++;
    const std::uint32_t usize = *p++;
    if (flags & kDuNewRow) {
      std::uint64_t rskip = 0;
      if (flags & kDuRJmp) {
        rskip = varint_decode(p);
      }
      row += 1 + static_cast<std::int64_t>(rskip);
    }
    skip_body(flags, usize, p);

    if (open < k && row >= static_cast<std::int64_t>(bounds[open + 1])) {
      out[open].ctl_end = unit_start;
      out[open].nnz = val_off - out[open].val_offset;
      open = k;
    }
    while (next < k && row >= static_cast<std::int64_t>(bounds[next])) {
      CsrDu::Slice& s = out[next];
      s.ctl = unit_start;
      s.val_offset = val_off;
      s.row_state = row_before;
      ++next;
      if (row >= static_cast<std::int64_t>(s.row_end)) {
        // No unit falls inside this range (all its rows are empty): the
        // zero-length span at this boundary, so consecutive slices
        // still tile the stream.
        s.ctl_end = unit_start;
        continue;
      }
      open = next - 1;
      break;
    }
    val_off += usize;
  }
  if (open < k) {
    out[open].ctl_end = p;
    out[open].nnz = val_off - out[open].val_offset;
  }
  for (CsrDu::Slice& s : out) {
    s.values = values != nullptr ? values + s.val_offset : nullptr;
  }
  return out;
}

}  // namespace spc::detail
