#include "spc/spmv/tiling.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "spc/support/env.hpp"
#include "spc/support/error.hpp"
#include "spc/support/strutil.hpp"

namespace spc {

std::string tile_config_name(const TileConfig& cfg) {
  switch (cfg.mode) {
    case TileMode::kAuto:
      return "auto";
    case TileMode::kOff:
      return "off";
    case TileMode::kForced:
      return std::to_string(cfg.stripe_bytes);
  }
  return "?";
}

bool parse_tile_config(const std::string& s, TileConfig* out) {
  const std::string v = to_lower(s);
  if (v == "auto") {
    out->mode = TileMode::kAuto;
    out->stripe_bytes = 0;
    return true;
  }
  if (v == "off" || v == "0") {
    out->mode = TileMode::kOff;
    out->stripe_bytes = 0;
    return true;
  }
  if (v.empty()) {
    return false;
  }
  std::size_t bytes = 0;
  std::size_t i = 0;
  for (; i < v.size() && v[i] >= '0' && v[i] <= '9'; ++i) {
    bytes = bytes * 10 + static_cast<std::size_t>(v[i] - '0');
  }
  if (i == 0) {
    return false;
  }
  if (i < v.size()) {
    if (i + 1 != v.size()) {
      return false;
    }
    if (v[i] == 'k') {
      bytes <<= 10;
    } else if (v[i] == 'm') {
      bytes <<= 20;
    } else {
      return false;
    }
  }
  if (bytes == 0) {
    return false;
  }
  out->mode = TileMode::kForced;
  out->stripe_bytes = bytes;
  return true;
}

TileConfig tile_config_from_env(const TileConfig& cfg) {
  const auto env = env_str("SPC_TILE");
  if (!env) {
    return cfg;
  }
  TileConfig out = cfg;
  if (!parse_tile_config(*env, &out)) {
    env_warn_once("SPC_TILE", *env, "auto|off|<bytes>[k|m]");
  }
  return out;
}

namespace {

// "352 KiB" / "2 MiB": binary units, matching how caches are sized.
std::string binary_bytes(std::size_t bytes) {
  constexpr std::size_t kMiB = 1u << 20;
  if (bytes >= kMiB) {
    return fmt_fixed(static_cast<double>(bytes) / kMiB,
                     bytes % kMiB == 0 ? 0 : 1) +
           " MiB";
  }
  return std::to_string((bytes + 512) >> 10) + " KiB";
}

// x_band_cols histogram: distances below 16 get their own bucket, then
// each power of two [2^e, 2^(e+1)) splits into 8 linear sub-buckets.
constexpr std::size_t kBandExact = 16;
constexpr std::size_t kBandBuckets = kBandExact + (32 - 4) * 8;

std::size_t band_bucket(index_t d) {
  if (d < kBandExact) {
    return d;
  }
  const int e = std::bit_width(d) - 1;  // 4..31
  return kBandExact + static_cast<std::size_t>(e - 4) * 8 +
         ((d >> (e - 3)) & 7u);
}

}  // namespace

TilePlan plan_tiles(const TileConfig& cfg, index_t nrows, index_t ncols,
                    usize_t nnz, index_t x_band_cols, std::size_t l1d_bytes,
                    std::size_t l2_bytes) {
  constexpr std::size_t kMinStripeBytes = 8u << 10;
  constexpr std::size_t kMaxStripeBytes = 256u << 10;
  constexpr std::size_t kDefaultStripeBytes = 16u << 10;
  constexpr std::size_t kMinCacheBytes = 256u << 10;

  TilePlan p;
  const auto decline = [&p](const char* reason, std::string detail) {
    p.decline_reason = reason;
    p.decline_detail = std::move(detail);
    return p;
  };
  if (cfg.mode == TileMode::kOff) {
    return decline("off", "off");
  }
  if (nrows == 0 || ncols == 0 || nnz == 0) {
    return decline("empty matrix", "empty matrix");
  }
  std::size_t sb = cfg.stripe_bytes;
  if (cfg.mode == TileMode::kAuto) {
    sb = l1d_bytes != 0 ? l1d_bytes / 2 : kDefaultStripeBytes;
    sb = std::clamp(sb, kMinStripeBytes, kMaxStripeBytes);

    const std::size_t cache = std::max(l2_bytes, kMinCacheBytes);
    const std::string cache_name =
        binary_bytes(cache) + (l2_bytes >= kMinCacheBytes ? " L2" : " cache");
    const std::size_t x_bytes =
        static_cast<std::size_t>(ncols) * sizeof(value_t);
    if (x_bytes <= 2 * cache) {
      return decline("x fits cache", "x fits cache: x " +
                                         binary_bytes(x_bytes) +
                                         " fits 2x " + cache_name);
    }
    const std::size_t window_bytes =
        2 * static_cast<std::size_t>(x_band_cols) * sizeof(value_t);
    if (window_bytes <= cache) {
      return decline("x band fits cache",
                     "x band fits cache: x band " +
                         std::to_string(x_band_cols) + " cols (" +
                         binary_bytes(window_bytes) + " window) fits " +
                         cache_name);
    }
  }

  const index_t stripe_cols = static_cast<index_t>(
      std::max<std::size_t>(1, sb / sizeof(value_t)));
  p.active = true;
  p.stripe_cols = stripe_cols;
  p.nstripes = (ncols + stripe_cols - 1) / stripe_cols;
  p.stripe_bytes = static_cast<std::size_t>(stripe_cols) * sizeof(value_t);
  return p;
}

index_t x_band_cols(const Triplets& t) {
  const std::vector<Entry>& es = t.entries();
  if (es.empty()) {
    return 0;
  }
  struct Bucket {
    usize_t count = 0;
    index_t max_dist = 0;
  };
  std::array<Bucket, kBandBuckets> hist{};
  const std::uint64_t nrows = t.nrows();
  const std::uint64_t ncols = t.ncols();
  index_t row = es.front().row;
  std::uint64_t diag = row * ncols / nrows;
  for (const Entry& e : es) {
    if (e.row != row) {  // sorted: once per row, not per element
      row = e.row;
      diag = row * ncols / nrows;
    }
    const std::uint64_t c = e.col;
    const auto d = static_cast<index_t>(c > diag ? c - diag : diag - c);
    Bucket& b = hist[band_bucket(d)];
    ++b.count;
    b.max_dist = std::max(b.max_dist, d);
  }
  // The first bucket at which ceil(0.99 * nnz) elements are covered.
  const usize_t target = es.size() - es.size() / 100;
  usize_t seen = 0;
  for (const Bucket& b : hist) {
    seen += b.count;
    if (seen >= target) {
      return b.max_dist;
    }
  }
  return hist.back().max_dist;  // not reached: the buckets hold every element
}

namespace {

void accumulate_histogram(const CsrDu::UnitHistogram& h,
                          CsrDu::UnitHistogram* out) {
  out->units += h.units;
  for (int c = 0; c < 4; ++c) {
    out->units_per_class[c] += h.units_per_class[c];
    out->elems_per_class[c] += h.elems_per_class[c];
  }
  out->rle_units += h.rle_units;
  out->rle_elems += h.rle_elems;
  out->seq_units += h.seq_units;
  out->seq_elems += h.seq_elems;
  out->nnz += h.nnz;
}

}  // namespace

TiledStore build_tiled_store(const Triplets& t,
                             const std::vector<index_t>& bounds,
                             const TilePlan& plan,
                             const TiledStoreSpec& spec) {
  SPC_CHECK_MSG(plan.active && plan.stripe_cols >= 1,
                "build_tiled_store requires an active tile plan");
  SPC_CHECK_MSG(bounds.size() >= 2, "need at least one execution block");

  TiledStore st;
  st.vi_elem = spec.vi_elem;
  const std::vector<Entry>& es = t.entries();
  const usize_t nnz = es.size();
  const index_t scols = plan.stripe_cols;
  const std::size_t nstripes = plan.nstripes;
  const std::size_t nblocks = bounds.size() - 1;

  st.blocks.reserve(nblocks);
  if (!spec.du) {
    st.col.reserve(nnz);
  }
  if (spec.values) {
    st.val.reserve(nnz);
  }
  if (spec.vi_elem != 0) {
    st.vi.reserve(nnz * spec.vi_elem);
  }

  // Per-block scratch: stripe occupancy counts, prefix offsets, and the
  // stripe-major permutation of the block's elements (stable, so the
  // original row-major order is preserved within each stripe).
  std::vector<usize_t> stripe_off(nstripes + 1, 0);
  std::vector<usize_t> cursor(nstripes, 0);
  std::vector<usize_t> perm;

  usize_t elems = 0;  // elements appended so far, all blocks
  usize_t e0 = 0;     // first element of the current block
  for (std::size_t b = 0; b < nblocks; ++b) {
    TileBlock blk;
    blk.row_begin = bounds[b];
    blk.row_end = bounds[b + 1];
    blk.tile_begin = st.tiles.size();
    blk.seg_begin = st.seg_row.size();
    blk.ctl_begin = st.ctl.size();
    blk.val_begin = elems;

    usize_t e1 = e0;
    while (e1 < nnz && es[e1].row < blk.row_end) {
      ++e1;
    }
    blk.nnz = e1 - e0;

    if (e1 != e0) {
      std::fill(stripe_off.begin(), stripe_off.end(), 0);
      for (usize_t k = e0; k < e1; ++k) {
        ++stripe_off[es[k].col / scols + 1];
      }
      for (std::size_t s = 0; s < nstripes; ++s) {
        stripe_off[s + 1] += stripe_off[s];
        cursor[s] = stripe_off[s];
      }
      perm.resize(e1 - e0);
      for (usize_t k = e0; k < e1; ++k) {
        perm[cursor[es[k].col / scols]++] = k;
      }

      for (std::size_t s = 0; s < nstripes; ++s) {
        const usize_t tb = stripe_off[s];
        const usize_t te = stripe_off[s + 1];
        if (tb == te) {
          continue;  // empty stripe: no tile, zero bytes
        }
        StripeTile tile;
        tile.x_base = static_cast<index_t>(s) * scols;
        tile.val_begin = elems;
        tile.nnz = te - tb;

        if (spec.du) {
          tile.ctl_begin = st.ctl.size();
          const index_t width =
              std::min<index_t>(scols, t.ncols() - tile.x_base);
          Triplets local(blk.row_end - blk.row_begin, width);
          local.reserve(te - tb);
          for (usize_t k = tb; k < te; ++k) {
            const Entry& e = es[perm[k]];
            local.add(e.row - blk.row_begin, e.col - tile.x_base, e.val);
          }
          local.sort_and_combine();
          const CsrDu tm = CsrDu::from_triplets(local, spec.du_opts);
          st.ctl.insert(st.ctl.end(), tm.ctl().begin(), tm.ctl().end());
          tile.ctl_end = st.ctl.size();
          if (spec.values) {
            st.val.insert(st.val.end(), tm.values().begin(),
                          tm.values().end());
          }
          accumulate_histogram(tm.unit_histogram(), &st.du_hist);
          st.has_du_hist = true;
        } else {
          tile.seg_begin = st.seg_row.size();
          index_t prev_row = 0;
          bool open = false;
          for (usize_t k = tb; k < te; ++k) {
            const Entry& e = es[perm[k]];
            if (!open || e.row != prev_row) {
              st.seg_row.push_back(e.row);
              st.seg_ptr.push_back(
                  static_cast<index_t>(elems + (k - tb)));
              prev_row = e.row;
              open = true;
            }
            st.col.push_back(e.col);
            if (spec.values) {
              st.val.push_back(e.val);
            }
          }
          tile.seg_end = st.seg_row.size();
        }
        if (spec.vi_elem != 0) {
          for (usize_t k = tb; k < te; ++k) {
            const std::uint8_t* src =
                spec.vi_src + perm[k] * spec.vi_elem;
            st.vi.insert(st.vi.end(), src, src + spec.vi_elem);
          }
        }
        elems += tile.nnz;
        st.tiles.push_back(tile);
      }
    }

    blk.tile_end = st.tiles.size();
    blk.seg_end = st.seg_row.size();
    blk.ctl_end = st.ctl.size();
    st.blocks.push_back(blk);
    e0 = e1;
  }
  SPC_CHECK_MSG(elems == nnz, "tiled store lost elements");
  if (!spec.du) {
    // Close the final segment; seg_ptr now has nsegments + 1 entries.
    st.seg_ptr.push_back(static_cast<index_t>(elems));
  }
  return st;
}

}  // namespace spc
