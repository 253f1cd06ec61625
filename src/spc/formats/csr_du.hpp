// CSR-DU ("CSR Delta Unit") — the paper's index-compression format (§IV).
//
// The column-index array of CSR is replaced by a byte stream `ctl` of
// *units*. A unit covers up to 255 consecutive non-zeros of one row whose
// column deltas share a storage class (u8/u16/u32/u64):
//
//   unit := uflags(1B) usize(1B) [rskip:varint] ujmp:varint ucis[usize-1]
//
//   uflags bits:  [1:0] delta class (log2 of byte width)
//                 bit 5 RJMP  — varint `rskip` follows: count of empty rows
//                               skipped before this unit's row (extension;
//                               the paper's matrices have no empty rows)
//                 bit 6 NR    — unit starts a new row (y_idx advances,
//                               x_idx resets to 0)
//                 bit 7 RLE   — constant-stride run: all usize-1 deltas
//                               equal one value, stored as a varint after
//                               ujmp; ucis omitted. stride==1 is the
//                               CF'08-style dense run; larger strides
//                               capture DIA-like fixed-offset structure
//                               (the CSX direction of the authors' later
//                               work). Off by default; exercised by the
//                               ablation benches.
//
// `ujmp` is the column distance of the unit's first element from the
// previous position (absolute column for NR units). `ucis` holds the
// remaining usize-1 deltas, little-endian, in the class width. Units never
// span rows (§IV), so any row boundary is a unit boundary — which is what
// makes the multithreaded row partitioning a pure offset computation.
//
// Construction is a single O(nnz) scan (§IV: "no overhead in terms of time
// complexity compared to CSR").
//
// This stream is the storage format (.spcm files, the paper's byte
// counts) and the class-level spmv() runs it as the paper's Fig 3 kernel.
// SpmvInstance executes the same units as offset units instead
// (offset_units.hpp), whose columns do not depend on the element before.
#pragma once

#include <cstdint>
#include <vector>

#include "spc/mm/triplets.hpp"
#include "spc/mm/stats.hpp"
#include "spc/support/aligned.hpp"
#include "spc/support/status.hpp"
#include "spc/support/types.hpp"

namespace spc {

// uflags bit layout.
inline constexpr std::uint8_t kDuClassMask = 0x03;
inline constexpr std::uint8_t kDuRJmp = 0x20;
inline constexpr std::uint8_t kDuNewRow = 0x40;
inline constexpr std::uint8_t kDuRle = 0x80;

/// Encoder tuning knobs (defaults reproduce the paper's configuration;
/// non-defaults are exercised by the ablation benches).
struct CsrDuOptions {
  /// Maximum non-zeros per unit (usize is one byte).
  std::uint32_t max_unit = 255;
  /// A delta needing a wider class than the open unit closes that unit
  /// when the unit already holds at least this many elements; otherwise
  /// the whole unit is widened. Small values favour homogeneous (smaller)
  /// units; large values favour fewer (longer) units.
  std::uint32_t split_threshold = 8;
  /// Detect constant-stride delta runs and emit RLE units without ucis
  /// bytes (stride 1 = dense run).
  bool enable_rle = false;
  /// Minimum run length that becomes an RLE unit.
  std::uint32_t rle_min_run = 16;

  /// Checks the knob ranges: max_unit in [1, 255], split_threshold >= 1
  /// and rle_min_run >= 2. Returns ok() or a kInvalidArgument status
  /// naming the bad field and value.
  Status validate() const;
};

class CsrDu {
 public:
  CsrDu() = default;

  static CsrDu from_triplets(const Triplets& t,
                             const CsrDuOptions& opts = {});

  /// Encodes rows [row_begin, row_end) of sorted triplets as a standalone
  /// (row_end - row_begin) x ncols matrix (local row i is row
  /// row_begin + i); from_triplets() is the full range. Units never span
  /// rows (§IV), so the stream is the whole matrix's units for those
  /// rows, except that the first unit's rskip counts from the range's
  /// first row: decoded from row_state = row_begin - 1 the stream yields
  /// absolute rows.
  static CsrDu from_rows(const Triplets& t, index_t row_begin,
                         index_t row_end, const CsrDuOptions& opts = {});

  /// Reconstructs a CSR-DU matrix from a raw ctl stream and value array
  /// (the deserialization path). The stream is fully validated: unit
  /// headers must parse, varints must terminate inside the buffer,
  /// decoded coordinates must stay inside nrows × ncols, and the element
  /// count must match `values`. Throws ParseError on any violation, so
  /// untrusted inputs cannot produce out-of-bounds kernel accesses.
  static CsrDu from_raw(index_t nrows, index_t ncols,
                        const CsrDuOptions& opts,
                        aligned_vector<std::uint8_t> ctl,
                        aligned_vector<value_t> values);

  index_t nrows() const { return nrows_; }
  index_t ncols() const { return ncols_; }
  usize_t nnz() const { return nnz_; }

  const aligned_vector<std::uint8_t>& ctl() const { return ctl_; }
  const aligned_vector<value_t>& values() const { return values_; }
  const CsrDuOptions& options() const { return opts_; }

  usize_t ctl_bytes() const { return ctl_.size(); }
  /// Matrix data size: ctl stream + numerical values.
  usize_t bytes() const {
    return ctl_.size() + values_.size() * sizeof(value_t);
  }

  /// Per-unit-class structure of a unit stream: the ctl stream's here,
  /// the offset units' in OffsetUnits (whose sum SpmvInstance reports as
  /// du_histogram()).
  struct UnitHistogram {
    usize_t units = 0;
    usize_t units_per_class[4] = {0, 0, 0, 0};  ///< indexed by DeltaClass
    usize_t elems_per_class[4] = {0, 0, 0, 0};
    usize_t rle_units = 0;          ///< all constant-stride units
    usize_t rle_elems = 0;
    usize_t seq_units = 0;          ///< the stride-1 (dense run) subset
    usize_t seq_elems = 0;
    usize_t nnz = 0;                ///< total elements across units

    /// Counts one unit of `usize` elements. RLE units carry their deltas
    /// implicitly (one stride for the whole run) and count under the
    /// stride's class, so the class totals partition *all* units and
    /// elements; rle_*/seq_* stay annotated subsets.
    void add_unit(DeltaClass cls, std::uint32_t usize, bool rle,
                  std::uint64_t stride);

    /// Field-wise sum (the histogram of concatenated streams).
    UnitHistogram& operator+=(const UnitHistogram& o);

    friend bool operator==(const UnitHistogram&,
                           const UnitHistogram&) = default;

    /// Mean elements per unit; 0 for an empty stream.
    double avg_unit_elems() const {
      return units != 0
                 ? static_cast<double>(nnz) / static_cast<double>(units)
                 : 0.0;
    }
  };

  /// The histogram of the units as the encoder emitted them (or as
  /// from_raw's validation walk met them).
  const UnitHistogram& histogram() const { return hist_; }

  // --- construction statistics (reported by Fig 7 / ablation benches) ---
  usize_t unit_count() const { return hist_.units; }
  usize_t unit_count_class(DeltaClass c) const {
    return hist_.units_per_class[static_cast<std::uint8_t>(c)];
  }
  usize_t rle_unit_count() const { return hist_.rle_units; }

  /// Scans the ctl stream and histograms its units (delta classes, RLE
  /// and stride-1 runs, element counts) with a payload-skipping O(units)
  /// walk: an independent check of histogram().
  UnitHistogram unit_histogram() const;

  /// A thread's view: a row range plus the ctl/value offsets where it
  /// starts — exactly the per-thread state the paper describes (§IV).
  /// OffsetUnits reuses it, with ctl/ctl_end delimiting offset units.
  struct Slice {
    const std::uint8_t* ctl = nullptr;
    const std::uint8_t* ctl_end = nullptr;
    const value_t* values = nullptr;  ///< null without a values array
    usize_t val_offset = 0;  ///< index of the slice's first non-zero
    index_t row_begin = 0;   ///< first row owned by this slice
    index_t row_end = 0;     ///< one past the last row owned
    /// Row-counter state entering the slice: the last row that had a unit
    /// before this slice (-1 at stream start). The kernel's NR handling
    /// advances from here.
    std::int64_t row_state = -1;
    usize_t nnz = 0;
  };

  /// The whole matrix as one slice (serial kernel input).
  Slice full() const;

  /// Computes the slice for rows [row_begin, row_end). O(ctl) scan; done
  /// once per partition, outside the timed region.
  Slice slice(index_t row_begin, index_t row_end) const;

  /// Multi-boundary form: the slices for every consecutive row range
  /// bounds[i]..bounds[i+1] in one O(ctl) scan — the chunk-boundary
  /// query of the work-stealing scheduler, which needs hundreds of
  /// slices where slice()'s per-call scan would cost O(chunks × ctl).
  /// `bounds` must be non-decreasing with bounds.back() <= nrows; the
  /// result element i equals slice(bounds[i], bounds[i+1]) exactly
  /// (including the zero-length anchoring of empty-row ranges, so
  /// consecutive slices still tile the ctl stream).
  std::vector<Slice> slices(const std::vector<index_t>& bounds) const;

  /// Decoded view of one unit, for tests and the format inspector.
  struct DecodedUnit {
    std::uint8_t uflags = 0;
    std::uint32_t usize = 0;
    bool new_row = false;
    bool rle = false;
    DeltaClass cls = DeltaClass::kU8;
    std::uint64_t rskip = 0;
    std::uint64_t ujmp = 0;
    std::uint64_t stride = 0;         ///< RLE units: the constant delta
    std::vector<std::uint64_t> ucis;  ///< usize-1 deltas (implicit for RLE)
  };

  /// Decodes the full ctl stream into unit descriptions (Table I view).
  std::vector<DecodedUnit> decode_units() const;

  /// Streaming element cursor over a slice — the building block for
  /// tools that traverse the compressed structure without materializing
  /// triplets (inspection, transcoding, custom kernels).
  class Cursor {
   public:
    explicit Cursor(const Slice& s);

    /// Advances to the next non-zero; fills row/col and returns true, or
    /// returns false at the end of the slice.
    bool next(index_t* row, index_t* col);

    /// Index of the element just returned within the whole matrix's
    /// non-zero order (valid after a successful next()).
    usize_t element_index() const { return val_index_ - 1; }

   private:
    const std::uint8_t* p_;
    const std::uint8_t* end_;
    usize_t val_index_;
    std::int64_t row_;
    std::uint64_t col_ = 0;
    std::uint32_t remaining_ = 0;   ///< elements left in the open unit
    std::uint8_t uflags_ = 0;
    std::uint64_t stride_ = 0;      ///< RLE stride of the open unit
  };

  /// Exact inverse conversion.
  Triplets to_triplets() const;

 private:
  // CSR-DU-VI encodes the ctl stream alone: it keeps values through its
  // own indirection.
  friend class CsrDuVi;
  static CsrDu encode(const Triplets& t, index_t row_begin, index_t row_end,
                      const CsrDuOptions& opts, bool keep_values);

  index_t nrows_ = 0;
  index_t ncols_ = 0;
  usize_t nnz_ = 0;
  CsrDuOptions opts_;
  aligned_vector<std::uint8_t> ctl_;
  aligned_vector<value_t> values_;
  UnitHistogram hist_;
};

}  // namespace spc
