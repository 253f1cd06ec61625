// Column tiling (cache blocking) for the row-partitioned SpMV formats.
//
// The paper's compressed formats shrink the matrix streams, but for
// graph-class matrices the remaining cost is irregular gathers into x
// that miss every cache level (the bound analysis of Schubert et al.;
// the blocking approaches of Bergmans et al. — see PAPERS.md). Column
// tiling splits each execution block's rows into vertical stripes of
// ~L1d-sized column span and runs the stripes in ascending column
// order, so all x gathers of one stripe hit a cache-resident window.
//
// For CSR-DU the stripes are a double win: a unit's column deltas are
// bounded by the stripe width, so narrow stripes push units into the
// u8 delta class — compression and locality reinforce each other
// (bench/ablation_tiling measures both axes).
//
// Layout. The tiled store replaces the matrix's execution arrays:
//
//  * CSR / CSR-VI: the block's non-zeros are stably re-ordered
//    stripe-major (stripe, then original row-major order within the
//    stripe) and cut into *segments* — maximal per-(row, stripe) runs.
//    Executing the block's segments in order visits stripes ascending;
//    each segment accumulates into its row's y entry (y is pre-zeroed
//    per block), reproducing the untiled left-to-right per-row sum
//    exactly at the scalar tier.
//  * CSR-DU(-VI): each (block, stripe) tile is re-encoded as its own
//    ctl stream with block-local rows and *stripe-local* columns —
//    deltas restart small at every stripe boundary. The kernel gets
//    x + stripe base and y + block base.
//
// Stripes within a block execute on one worker in column order, so the
// partial-y accumulation needs no atomics; dynamic schedules move whole
// blocks (chunks), never single stripes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "spc/formats/csr_du.hpp"
#include "spc/mm/triplets.hpp"
#include "spc/support/aligned.hpp"
#include "spc/support/types.hpp"

namespace spc {

/// Tiling selection (InstanceOptions::tiling / SPC_TILE).
enum class TileMode : std::uint8_t {
  kAuto = 0,  ///< engage only when profitable (default; zero overhead off)
  kOff = 1,   ///< never tile
  kForced = 2 ///< always tile, stripe width from TileConfig::stripe_bytes
};

struct TileConfig {
  TileMode mode = TileMode::kAuto;
  /// Stripe width as bytes of x covered (kForced only; kAuto sizes from
  /// the discovered L1d). Rounded down to whole x elements, min one.
  std::size_t stripe_bytes = 0;
};

/// Canonical form: "auto", "off", or the byte count ("16384").
std::string tile_config_name(const TileConfig& cfg);

/// Parses "auto" | "off" | "<bytes>" (decimal, optional k/K/m/M suffix).
/// Returns false on unparseable input, leaving *out untouched.
bool parse_tile_config(const std::string& s, TileConfig* out);

/// `cfg` overridden by the SPC_TILE environment variable when set. An
/// unparseable value is diagnosed once to stderr and ignored.
TileConfig tile_config_from_env(const TileConfig& cfg);

/// The resolved tiling decision for one matrix.
struct TilePlan {
  bool active = false;
  index_t stripe_cols = 0;       ///< x elements per stripe (>= 1)
  index_t nstripes = 0;          ///< ceil(ncols / stripe_cols)
  std::size_t stripe_bytes = 0;  ///< stripe_cols * sizeof(value_t)
  /// Why the plan declined ("" when active): a short static string
  /// ("off", "x fits cache", "x band fits cache", ...), stable for
  /// record fields and ledger keys.
  const char* decline_reason = "";
  /// decline_reason with the measured sizes behind it, e.g. "x band fits
  /// cache: x band 22500 cols (352 KiB window) fits 2 MiB L2" — what
  /// SpmvInstance::decisions() reports.
  std::string decline_detail;
};

/// Decides whether and how to tile.
///
/// Forced widths always engage (even a single stripe — the caller asked
/// for the layout). Auto engages only when the stripes can pay for the
/// re-ordered storage. With cache = max(l2_bytes, 256 KiB):
///  * x must overflow the cache: ncols * sizeof(value_t) greater than
///    2 * cache — otherwise the gathers already hit. (Past this bound at
///    least three stripes result.)
///  * the rows' x band must overflow it too: 2 * x_band_cols *
///    sizeof(value_t) greater than cache. A row-ordered pass only reads x
///    inside [diag - B, diag + B] around the current row's diagonal, so
///    when that window is cache-resident (stencils, banded and
///    near-diagonal rows) the stripes buy no locality and only add
///    per-segment metadata and short DU units.
/// Auto stripe width: clamp(l1d_bytes / 2, 8 KiB, 256 KiB), defaulting
/// to 16 KiB when the topology exposes no L1d size. Half the L1d leaves
/// room for the y rows, the value stream, and the ctl/index stream that
/// compete for the same set.
TilePlan plan_tiles(const TileConfig& cfg, index_t nrows, index_t ncols,
                    usize_t nnz, index_t x_band_cols, std::size_t l1d_bytes,
                    std::size_t l2_bytes);

/// The x band B of `t` (0 when empty): the nnz-weighted 99th percentile
/// of |col - row * ncols / nrows|, each non-zero's column distance from
/// the diagonal (scaled to the rectangle). One O(nnz) scan over the
/// sorted triplets into a fixed log-linear histogram (exact below 16,
/// then 8 buckets per power of two), each bucket keeping the largest
/// distance it saw; B is that maximum for the percentile's bucket, so it
/// is exact when the bucket holds one distance (a stencil's offsets) and
/// at most 1/8 high otherwise.
index_t x_band_cols(const Triplets& t);

// ------------------------------------------------------------------------
// Tiled storage
// ------------------------------------------------------------------------

/// One (block, stripe) tile. CSR-family tiles are segment ranges into
/// TiledStore::seg_*; DU-family tiles are byte ranges into ctl.
struct StripeTile {
  index_t x_base = 0;      ///< stripe * stripe_cols (x offset, DU kernels)
  usize_t seg_begin = 0;   ///< CSR family: [seg_begin, seg_end) segments
  usize_t seg_end = 0;
  usize_t ctl_begin = 0;   ///< DU family: [ctl_begin, ctl_end) ctl bytes
  usize_t ctl_end = 0;
  usize_t val_begin = 0;   ///< first element in the tiled (stripe-major) order
  usize_t nnz = 0;
};

/// One execution block: a row range (a thread's partition range, or one
/// chunk under the dynamic schedules) and its tiles/segments/elements.
/// Blocks tile the row space in order, so a worker's blocks cover
/// contiguous segment/ctl/element ranges — the NUMA repack copies each
/// worker's spans into its first-touched arena block.
struct TileBlock {
  index_t row_begin = 0;
  index_t row_end = 0;
  usize_t tile_begin = 0;  ///< [tile_begin, tile_end) in TiledStore::tiles
  usize_t tile_end = 0;
  usize_t seg_begin = 0;   ///< CSR family: the block's whole segment range
  usize_t seg_end = 0;
  usize_t ctl_begin = 0;   ///< DU family: the block's ctl byte range
  usize_t ctl_end = 0;
  usize_t val_begin = 0;   ///< the block's element range in tiled order
  usize_t nnz = 0;
};

/// The stripe-major execution arrays. Only the family's arrays are
/// populated (seg_*/col for CSR-shaped, ctl for DU-shaped; val and vi
/// per the value representation).
struct TiledStore {
  std::vector<TileBlock> blocks;
  std::vector<StripeTile> tiles;
  // CSR family. seg_ptr[s] / seg_ptr[s+1] bound segment s's elements in
  // col/val/vi; seg_row[s] is its absolute row.
  aligned_vector<index_t> seg_ptr;        ///< nsegs + 1 entries
  aligned_vector<index_t> seg_row;
  aligned_vector<std::uint32_t> col;      ///< absolute columns, tiled order
  // DU family: concatenated per-tile ctl streams (block-local rows,
  // stripe-local columns).
  aligned_vector<std::uint8_t> ctl;
  // Values in tiled order (CSR, CSR-DU); empty for the VI variants.
  aligned_vector<value_t> val;
  // Value-index bytes in tiled order (CSR-VI, CSR-DU-VI).
  aligned_vector<std::uint8_t> vi;
  std::size_t vi_elem = 0;                ///< bytes per value index
  /// Aggregated unit histogram over the tile ctl streams (DU family):
  /// the stripe-local deltas this store actually decodes, which is what
  /// the SIMD-engagement gate and ablation_tiling should see.
  CsrDu::UnitHistogram du_hist;
  bool has_du_hist = false;

  usize_t nsegments() const {
    return seg_ptr.empty() ? 0 : seg_ptr.size() - 1;
  }

  /// Matrix-data footprint of the tiled arrays (compression reporting).
  usize_t bytes() const {
    return seg_ptr.size() * sizeof(index_t) +
           seg_row.size() * sizeof(index_t) +
           col.size() * sizeof(std::uint32_t) + ctl.size() +
           val.size() * sizeof(value_t) + vi.size();
  }
};

/// What build_tiled_store materializes.
struct TiledStoreSpec {
  bool du = false;             ///< DU ctl streams instead of segments
  CsrDuOptions du_opts;        ///< tile encoder knobs (du only)
  bool values = true;          ///< copy values into tiled order
  std::size_t vi_elem = 0;     ///< when > 0, permute vi bytes from vi_src
  const std::uint8_t* vi_src = nullptr;  ///< matrix val_ind stream
};

/// Builds the tiled store for sorted triplets `t` over the execution
/// blocks bounds[i]..bounds[i+1] (non-decreasing, covering [0, nrows)).
/// Element k of `t` corresponds to val_ind position k of the CSR-VI /
/// CSR-DU-VI encodings (both assign indices in row-major order), which
/// is what lets vi_src be permuted instead of re-encoded. O(nnz + blocks
/// * nstripes); runs once at instance setup, off the timed path.
TiledStore build_tiled_store(const Triplets& t,
                             const std::vector<index_t>& bounds,
                             const TilePlan& plan,
                             const TiledStoreSpec& spec);

}  // namespace spc
