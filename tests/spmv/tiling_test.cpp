// Column-tiling correctness: the tiled execution layer (spmv/tiling.hpp)
// re-orders each block's non-zeros stripe-major and accumulates partial
// y across stripes, but at the scalar tier it must reproduce the untiled
// left-to-right per-row accumulation order exactly — tiled and untiled
// results are held to bit-identity, not a tolerance. Vector tiers
// reassociate per-row sums into lane partials (tiled or not), so they
// get the usual relative-error bound.
//
// Also covers the config surface (SPC_TILE parsing, the auto planner's
// decline reasons) and the degenerate stripe shapes: one-column stripes,
// a matrix narrower than one stripe, and stripes with no non-zeros.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "spc/gen/generators.hpp"
#include "spc/spmv/dispatch.hpp"
#include "spc/spmv/instance.hpp"
#include "spc/spmv/tiling.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

constexpr double kVectorTol = 1e-12;

// Tests that drive tiling through InstanceOptions must not let an outer
// SPC_TILE (the CI matrix sets off / forced legs) override the option
// under test. Clears the variable for the test's scope.
class ScopedUnsetEnv {
 public:
  explicit ScopedUnsetEnv(const char* name) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    ::unsetenv(name);
  }
  ~ScopedUnsetEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    }
  }
  ScopedUnsetEnv(const ScopedUnsetEnv&) = delete;
  ScopedUnsetEnv& operator=(const ScopedUnsetEnv&) = delete;

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

// The dispatch_fuzz_test swarm shapes, re-seeded: dense-ish random,
// ragged, banded, rmat, fem blocks, long dense rows, degenerate.
Triplets fuzz_matrix(int seed) {
  Rng rng(7300 + seed);
  switch (seed % 7) {
    case 0:
      return test::random_triplets(
          1 + static_cast<index_t>(rng.next_below(300)),
          1 + static_cast<index_t>(rng.next_below(300)),
          rng.next_below(5000), rng,
          static_cast<std::uint32_t>(rng.next_below(200)));
    case 1:
      return gen_ragged(1 + static_cast<index_t>(rng.next_below(250)),
                        1 + static_cast<index_t>(rng.next_below(250)),
                        1 + static_cast<index_t>(rng.next_below(30)),
                        0.4 * rng.next_double(), rng,
                        ValueModel::pooled(12));
    case 2:
      return gen_banded(32 + static_cast<index_t>(rng.next_below(300)),
                        1 + static_cast<index_t>(rng.next_below(50)),
                        1 + static_cast<index_t>(rng.next_below(10)), rng,
                        ValueModel::random());
    case 3:
      return gen_rmat(6 + static_cast<std::uint32_t>(rng.next_below(4)),
                      400 + rng.next_below(3000), rng,
                      ValueModel::pooled(6));
    case 4:
      return gen_fem_blocks(
          4 + static_cast<index_t>(rng.next_below(30)),
          1 + static_cast<index_t>(rng.next_below(4)),
          1 + static_cast<index_t>(rng.next_below(5)), rng,
          ValueModel::random());
    case 5: {
      const index_t n = 4 + static_cast<index_t>(rng.next_below(8));
      Triplets t(n, 512);
      for (index_t r = 0; r < n; ++r) {
        for (index_t c = 0; c < 512; ++c) {
          t.add(r, c, rng.next_double(-2.0, 2.0));
        }
      }
      t.sort_and_combine();
      return t;
    }
    default: {
      switch (seed % 3) {
        case 0:
          return test::random_triplets(1, 97, 60, rng);
        case 1:
          return test::random_triplets(97, 1, 60, rng);
        default:
          return test::random_triplets(1, 1, 1, rng);
      }
    }
  }
}

const std::vector<Format>& tiled_formats() {
  static const std::vector<Format> kFormats = {
      Format::kCsr, Format::kCsrVi, Format::kCsrDu, Format::kCsrDuVi};
  return kFormats;
}

class TileFuzz : public ::testing::TestWithParam<int> {};

// Every tiled format, serial and multithreaded, across forced stripe
// widths (narrow enough that the fuzz matrices really split) and auto:
// bit-identical to the untiled run at SPC_ISA=scalar.
TEST_P(TileFuzz, TiledMatchesUntiledBitwiseAtScalar) {
  const Triplets t = fuzz_matrix(GetParam());
  if (t.nnz() == 0) {
    GTEST_SKIP() << "degenerate draw";
  }
  Rng xr(9300 + GetParam());
  const Vector x = random_vector(t.ncols(), xr);

  test::ScopedEnv isa("SPC_ISA", "scalar");
  InstanceOptions opts;
  opts.pin_threads = false;
  for (const Format f : tiled_formats()) {
    for (const std::size_t threads : {1u, 4u}) {
      Vector y_off(t.nrows(), 0.0);
      {
        test::ScopedEnv tile("SPC_TILE", "off");
        SpmvInstance inst(t, f, threads, opts);
        EXPECT_FALSE(inst.tiling_active());
        inst.run(x, y_off);
      }
      for (const char* width : {"256", "1k", "auto"}) {
        test::ScopedEnv tile("SPC_TILE", width);
        SpmvInstance inst(t, f, threads, opts);
        Vector y(t.nrows(), std::numeric_limits<double>::quiet_NaN());
        inst.run(x, y);
        EXPECT_EQ(max_abs_diff(y_off, y), 0.0)
            << format_name(f) << " x" << threads << " SPC_TILE=" << width
            << " seed " << GetParam();
      }
    }
  }
}

// The default test/CI invocation runs without SPC_TILE, where auto
// declines these small matrices — so the tiled *vector* kernels would
// only ever run under an SPC_TILE=... environment. Exercise them here:
// forced tiling across every tier this host has, against the untiled
// scalar result, with the usual reassociation tolerance.
TEST_P(TileFuzz, TiledVectorTiersStayWithinReassociationTolerance) {
  const Triplets t = fuzz_matrix(GetParam());
  if (t.nnz() == 0) {
    GTEST_SKIP() << "degenerate draw";
  }
  Rng xr(9400 + GetParam());
  const Vector x = random_vector(t.ncols(), xr);
  const Vector y_ref = test::reference_spmv(t, x);

  ScopedUnsetEnv tile("SPC_TILE");
  InstanceOptions opts;
  opts.pin_threads = false;
  opts.tiling = TileConfig{TileMode::kForced, 1u << 10};
  for (const IsaTier tier : available_isa_tiers()) {
    test::ScopedEnv isa("SPC_ISA", isa_tier_name(tier).c_str());
    for (const Format f : tiled_formats()) {
      for (const std::size_t threads : {1u, 4u}) {
        SpmvInstance inst(t, f, threads, opts);
        EXPECT_TRUE(inst.tiling_active()) << format_name(f);
        Vector y(t.nrows(), std::numeric_limits<double>::quiet_NaN());
        inst.run(x, y);
        const std::string what = format_name(f) + " @" +
                                 isa_tier_name(tier) + " x" +
                                 std::to_string(threads) + " seed " +
                                 std::to_string(GetParam());
        if (tier == IsaTier::kScalar) {
          EXPECT_EQ(max_abs_diff(y_ref, y), 0.0) << what;
        } else {
          EXPECT_LT(rel_error(y_ref, y), kVectorTol) << what;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Swarm, TileFuzz, ::testing::Range(0, 21));

// --- degenerate stripe shapes -------------------------------------------

void expect_tiled_matches_untiled(const Triplets& t, std::size_t stripe_bytes,
                                  const char* what) {
  Rng xr(424242);
  const Vector x = random_vector(t.ncols(), xr);
  test::ScopedEnv isa("SPC_ISA", "scalar");
  ScopedUnsetEnv tile("SPC_TILE");
  for (const Format f : tiled_formats()) {
    for (const std::size_t threads : {1u, 3u}) {
      InstanceOptions opts;
      opts.pin_threads = false;
      opts.tiling = TileConfig{TileMode::kOff, 0};
      Vector y_off(t.nrows(), 0.0);
      SpmvInstance off(t, f, threads, opts);
      off.run(x, y_off);

      opts.tiling = TileConfig{TileMode::kForced, stripe_bytes};
      SpmvInstance tiled(t, f, threads, opts);
      EXPECT_TRUE(tiled.tiling_active()) << what << " " << format_name(f);
      Vector y(t.nrows(), std::numeric_limits<double>::quiet_NaN());
      tiled.run(x, y);
      EXPECT_EQ(max_abs_diff(y_off, y), 0.0)
          << what << " " << format_name(f) << " x" << threads;
    }
  }
}

// stripe_bytes below sizeof(value_t) rounds to one column per stripe —
// every element is the first of its (row, stripe) run.
TEST(TilingEdge, SingleColumnStripes) {
  Rng rng(51);
  const Triplets t = test::random_triplets(40, 24, 300, rng, 8);
  expect_tiled_matches_untiled(t, 1, "1-col stripe");
}

// ncols far below one stripe: forced tiling engages with one stripe
// spanning the whole matrix (the caller asked for the layout).
TEST(TilingEdge, MatrixNarrowerThanOneStripe) {
  Rng rng(52);
  const Triplets t = test::random_triplets(200, 6, 800, rng);
  expect_tiled_matches_untiled(t, 64u << 10, "narrow matrix");
}

// Columns concentrated at the extremes: all interior stripes hold no
// non-zeros, and rows touch non-adjacent stripes.
TEST(TilingEdge, EmptyInteriorStripes) {
  Triplets t(64, 40000);
  Rng rng(53);
  for (index_t r = 0; r < 64; ++r) {
    for (int k = 0; k < 6; ++k) {
      t.add(r, static_cast<index_t>(rng.next_below(20)),
            rng.next_double(-2.0, 2.0));
      t.add(r, 39980 + static_cast<index_t>(rng.next_below(20)),
            rng.next_double(-2.0, 2.0));
    }
  }
  t.sort_and_combine();
  // 512-byte stripes -> 64 columns per stripe -> ~625 stripes, nearly
  // all empty.
  expect_tiled_matches_untiled(t, 512, "empty stripes");
}

// Empty rows inside a tiled block must stay exactly what the untiled
// kernel writes for them (zero), not skipped garbage.
TEST(TilingEdge, EmptyRows) {
  Triplets t(50, 2000);
  Rng rng(54);
  for (index_t r = 0; r < 50; r += 7) {
    for (int k = 0; k < 20; ++k) {
      t.add(r, static_cast<index_t>(rng.next_below(2000)),
            rng.next_double(-2.0, 2.0));
    }
  }
  t.sort_and_combine();
  expect_tiled_matches_untiled(t, 1u << 10, "empty rows");
}

// --- config / planner units ---------------------------------------------

TEST(TileConfigParse, AcceptsCanonicalForms) {
  TileConfig c;
  EXPECT_TRUE(parse_tile_config("auto", &c));
  EXPECT_EQ(c.mode, TileMode::kAuto);
  EXPECT_TRUE(parse_tile_config("off", &c));
  EXPECT_EQ(c.mode, TileMode::kOff);
  EXPECT_TRUE(parse_tile_config("0", &c));
  EXPECT_EQ(c.mode, TileMode::kOff);
  EXPECT_TRUE(parse_tile_config("16384", &c));
  EXPECT_EQ(c.mode, TileMode::kForced);
  EXPECT_EQ(c.stripe_bytes, 16384u);
  EXPECT_TRUE(parse_tile_config("16k", &c));
  EXPECT_EQ(c.stripe_bytes, 16u << 10);
  EXPECT_TRUE(parse_tile_config("2M", &c));
  EXPECT_EQ(c.stripe_bytes, 2u << 20);
}

TEST(TileConfigParse, RejectsGarbageLeavingOutputUntouched) {
  TileConfig c;
  c.mode = TileMode::kForced;
  c.stripe_bytes = 123;
  EXPECT_FALSE(parse_tile_config("", &c));
  EXPECT_FALSE(parse_tile_config("fast", &c));
  EXPECT_FALSE(parse_tile_config("-4k", &c));
  EXPECT_FALSE(parse_tile_config("4q", &c));
  EXPECT_EQ(c.mode, TileMode::kForced);
  EXPECT_EQ(c.stripe_bytes, 123u);
}

TEST(TileConfigParse, NameRoundTrips) {
  TileConfig c;
  ASSERT_TRUE(parse_tile_config("auto", &c));
  EXPECT_EQ(tile_config_name(c), "auto");
  ASSERT_TRUE(parse_tile_config("off", &c));
  EXPECT_EQ(tile_config_name(c), "off");
  ASSERT_TRUE(parse_tile_config("16384", &c));
  EXPECT_EQ(tile_config_name(c), "16384");
}

TEST(TilePlanner, ForcedAlwaysEngages) {
  const TileConfig cfg{TileMode::kForced, 8u << 10};
  const TilePlan p = plan_tiles(cfg, 100, 100, 500, /*x_band_cols=*/4,
                                /*l1d=*/32u << 10, /*l2=*/1u << 20);
  EXPECT_TRUE(p.active);
  EXPECT_EQ(p.stripe_cols, static_cast<index_t>((8u << 10) / sizeof(value_t)));
}

TEST(TilePlanner, AutoDeclinesWhenXFitsCache) {
  const TileConfig cfg{TileMode::kAuto, 0};
  // ncols * 8 well under 2 * l2.
  const TilePlan p = plan_tiles(cfg, 1u << 16, 1u << 14, 1u << 20,
                                /*x_band_cols=*/5000, 32u << 10, 1u << 20);
  EXPECT_FALSE(p.active);
  EXPECT_STREQ(p.decline_reason, "x fits cache");
  EXPECT_EQ(p.decline_detail, "x fits cache: x 128 KiB fits 2x 1 MiB L2");
}

// x overflows the cache, but the rows' band does not: declined exactly
// up to 2 * B * sizeof(value_t) == cache (B = 16384 at a 256 KiB L2).
TEST(TilePlanner, AutoDeclinesWhenXBandFitsCache) {
  const TileConfig cfg{TileMode::kAuto, 0};
  const TilePlan p = plan_tiles(cfg, 1u << 20, 1u << 20, 1u << 22,
                                /*x_band_cols=*/16384, 32u << 10,
                                256u << 10);
  EXPECT_FALSE(p.active);
  EXPECT_STREQ(p.decline_reason, "x band fits cache");
  EXPECT_EQ(p.decline_detail,
            "x band fits cache: x band 16384 cols (256 KiB window) fits "
            "256 KiB L2");
  const TilePlan wider = plan_tiles(cfg, 1u << 20, 1u << 20, 1u << 22,
                                    /*x_band_cols=*/16385, 32u << 10,
                                    256u << 10);
  EXPECT_TRUE(wider.active);
  // An unknown L2 falls back to the 256 KiB floor, named as such.
  const TilePlan no_l2 =
      plan_tiles(cfg, 1u << 20, 1u << 20, 1u << 22, 16, 32u << 10, 0);
  EXPECT_STREQ(no_l2.decline_reason, "x band fits cache");
  EXPECT_NE(no_l2.decline_detail.find("fits 256 KiB cache"),
            std::string::npos)
      << no_l2.decline_detail;
}

TEST(TilePlanner, AutoEngagesOnWideIrregularMatrices) {
  const TileConfig cfg{TileMode::kAuto, 0};
  const TilePlan p = plan_tiles(cfg, 1u << 20, 1u << 20, 1u << 22,
                                /*x_band_cols=*/500000, 32u << 10,
                                256u << 10);
  EXPECT_TRUE(p.active);
  EXPECT_STREQ(p.decline_reason, "");
  EXPECT_GE(p.nstripes, 2u);
  // clamp(l1d/2, 8k, 256k) with l1d = 32 KiB -> 16 KiB stripes.
  EXPECT_EQ(p.stripe_bytes, 16u << 10);
}

// Machine-independent: the band is measured on generator output and the
// caches are passed explicitly. The 7-point Laplacian's band is its
// plane offset nx * ny, a window far inside L2 although its mean row
// span (2 * nx * ny + 1) is many stripes wide; R-MAT scatters columns
// over the whole row space.
TEST(TilePlanner, BandDeclinesLaplacianAndEngagesRmat) {
  constexpr std::size_t kL1d = 48u << 10;
  constexpr std::size_t kL2 = 256u << 10;
  const TileConfig cfg{TileMode::kAuto, 0};

  const Triplets lap = gen_laplacian_3d(48, 48, 48);  // x = 864 KiB
  const index_t lap_band = x_band_cols(lap);
  EXPECT_EQ(lap_band, 48u * 48u);
  const TilePlan lp = plan_tiles(cfg, lap.nrows(), lap.ncols(), lap.nnz(),
                                 lap_band, kL1d, kL2);
  EXPECT_FALSE(lp.active);
  EXPECT_STREQ(lp.decline_reason, "x band fits cache");
  EXPECT_EQ(lp.decline_detail,
            "x band fits cache: x band 2304 cols (36 KiB window) fits "
            "256 KiB L2");

  Rng rng(61);
  const Triplets rmat = gen_rmat(17, 600000, rng, ValueModel::pooled(8));
  const index_t rmat_band = x_band_cols(rmat);
  EXPECT_GT(rmat_band, rmat.ncols() / 4);
  const TilePlan rp = plan_tiles(cfg, rmat.nrows(), rmat.ncols(),
                                 rmat.nnz(), rmat_band, kL1d, kL2);
  EXPECT_TRUE(rp.active) << rp.decline_detail;
  EXPECT_EQ(rp.stripe_bytes, kL1d / 2);
}

// The diagonal is scaled to the rectangle: row r of a 4x-wide matrix
// sits around column 4r, so rows following that diagonal have a narrow
// band although |col - row| reaches 3 * nrows.
TEST(TilePlanner, BandFollowsTheScaledDiagonalOfRectangles) {
  constexpr index_t kRows = 20000;
  Triplets t(kRows, 4 * kRows);  // x = 625 KiB
  for (index_t r = 0; r < kRows; ++r) {
    for (index_t k = 0; k < 4; ++k) {
      t.add(r, 4 * r + k, 1.0 + k);
    }
    if (r >= 2) {
      t.add(r, 4 * r - 8, -1.0);
    }
  }
  t.sort_and_combine();
  EXPECT_EQ(x_band_cols(t), 8u);
  const TilePlan p =
      plan_tiles(TileConfig{TileMode::kAuto, 0}, t.nrows(), t.ncols(),
                 t.nnz(), x_band_cols(t), 32u << 10, 256u << 10);
  EXPECT_FALSE(p.active);
  EXPECT_STREQ(p.decline_reason, "x band fits cache");

  // Tall: 4 rows per column, diagonal at row / 4.
  Triplets tall(4 * kRows, kRows);
  for (index_t r = 0; r < 4 * kRows; ++r) {
    tall.add(r, r / 4, 1.0);
  }
  tall.sort_and_combine();
  EXPECT_EQ(x_band_cols(tall), 0u);
}

// B is the nnz-weighted 99th percentile, not the maximum: 1% of far
// entries set it, fewer do not.
TEST(TilePlanner, BandIsTheNinetyNinthPercentile) {
  const auto band_with_far = [](index_t far_rows) {
    Triplets t(1000, 1000);
    for (index_t r = 0; r < 1000; ++r) {
      t.add(r, r, 1.0);
      if (r < far_rows) {
        t.add(r, r + 500, 1.0);
      }
    }
    t.sort_and_combine();
    return x_band_cols(t);
  };
  EXPECT_EQ(band_with_far(0), 0u);
  EXPECT_EQ(band_with_far(9), 0u);     // 9 of 1009 entries: under 1%
  EXPECT_EQ(band_with_far(20), 500u);  // 20 of 1020: over 1%
  EXPECT_EQ(x_band_cols(Triplets(5, 5)), 0u);
}

// Against the exact percentile of random distances: never below it, and
// at most one sub-bucket (1/8) above.
TEST(TilePlanner, BandBoundsTheExactPercentile) {
  for (int seed = 0; seed < 8; ++seed) {
    Rng rng(6200 + seed);
    const index_t n = 200 + static_cast<index_t>(rng.next_below(50000));
    const Triplets t = test::random_triplets(n, n, 4 * n, rng);
    std::vector<index_t> dist;
    for (const Entry& e : t.entries()) {
      dist.push_back(e.col > e.row ? e.col - e.row : e.row - e.col);
    }
    std::sort(dist.begin(), dist.end());
    const index_t exact = dist[dist.size() - dist.size() / 100 - 1];
    const index_t band = x_band_cols(t);
    EXPECT_GE(band, exact) << "seed " << seed;
    EXPECT_LE(band, exact + exact / 8) << "seed " << seed;
  }
}

// The tiled store swaps the execution arrays but must still represent
// the same matrix bytes-wise in the compression report: a forced-tiled
// CSR instance reports the segment arrays, which can exceed plain CSR
// (extra seg_ptr/seg_row entries) but never lose elements.
TEST(TilingEdge, MatrixBytesCoverTiledArrays) {
  Rng rng(55);
  const Triplets t = test::random_triplets(300, 3000, 6000, rng, 16);
  ScopedUnsetEnv tile("SPC_TILE");
  InstanceOptions opts;
  opts.pin_threads = false;
  opts.tiling = TileConfig{TileMode::kForced, 1u << 10};
  SpmvInstance tiled(t, Format::kCsr, 1, opts);
  ASSERT_TRUE(tiled.tiling_active());
  // At minimum the elements themselves: nnz * (col + val).
  EXPECT_GE(tiled.matrix_bytes(), t.nnz() * (sizeof(std::uint32_t) +
                                             sizeof(value_t)));
  EXPECT_GE(tiled.tile_stripes(), 2u);
  EXPECT_EQ(tiled.tile_stripe_bytes(), 1u << 10);
}

}  // namespace
}  // namespace spc
