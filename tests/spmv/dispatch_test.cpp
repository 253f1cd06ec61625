// Unit tests for the ISA dispatch layer: tier naming/parsing, the
// SPC_ISA override (clamp-down-only), kernel-table completeness, the
// per-instance prepare()/rebind path, and the DU unit histogram that
// drives the decode-strategy choice.
#include "spc/spmv/dispatch.hpp"

#include <gtest/gtest.h>

#include "spc/gen/generators.hpp"
#include "spc/spmv/instance.hpp"
#include "test_util.hpp"

namespace spc {
namespace {

TEST(IsaTierNames, RoundTrip) {
  for (const IsaTier t :
       {IsaTier::kScalar, IsaTier::kSse42, IsaTier::kAvx2}) {
    IsaTier parsed{};
    ASSERT_TRUE(parse_isa_tier(isa_tier_name(t), &parsed));
    EXPECT_EQ(parsed, t);
  }
}

TEST(IsaTierNames, AcceptsAliasesAndCase) {
  IsaTier t{};
  EXPECT_TRUE(parse_isa_tier("sse4.2", &t));
  EXPECT_EQ(t, IsaTier::kSse42);
  EXPECT_TRUE(parse_isa_tier("AVX2", &t));
  EXPECT_EQ(t, IsaTier::kAvx2);
}

TEST(IsaTierNames, RejectsUnknownLeavingOutputUntouched) {
  IsaTier t = IsaTier::kSse42;
  EXPECT_FALSE(parse_isa_tier("avx512", &t));
  EXPECT_FALSE(parse_isa_tier("", &t));
  EXPECT_EQ(t, IsaTier::kSse42);
}

TEST(IsaDetection, TiersAreOrderedAndBounded) {
  EXPECT_LE(detect_isa_tier(), max_compiled_tier());
  const std::vector<IsaTier> avail = available_isa_tiers();
  ASSERT_FALSE(avail.empty());
  EXPECT_EQ(avail.front(), IsaTier::kScalar);
  for (std::size_t i = 1; i < avail.size(); ++i) {
    EXPECT_LT(avail[i - 1], avail[i]);
  }
  EXPECT_EQ(avail.back(), detect_isa_tier());
}

TEST(IsaDetection, OverrideClampsDownOnly) {
  {
    test::ScopedEnv isa("SPC_ISA", "scalar");
    EXPECT_EQ(active_isa_tier(), IsaTier::kScalar);
  }
  {
    // Requesting a wider ISA than the host has must clamp, not fault.
    test::ScopedEnv isa("SPC_ISA", "avx2");
    EXPECT_LE(active_isa_tier(), detect_isa_tier());
  }
  {
    // Unknown values are diagnosed (once) and ignored.
    test::ScopedEnv isa("SPC_ISA", "bogus");
    EXPECT_EQ(active_isa_tier(), detect_isa_tier());
  }
}

TEST(KernelTables, EveryEntryNonNullAtEveryTier) {
  for (const IsaTier t :
       {IsaTier::kScalar, IsaTier::kSse42, IsaTier::kAvx2}) {
    const KernelTable& kt = kernel_table(t);
    EXPECT_LE(kt.tier, t);  // clamped to host/build support
    EXPECT_NE(kt.csr, nullptr);
    EXPECT_NE(kt.csr16, nullptr);
    EXPECT_NE(kt.csr_vi.get<std::uint8_t>(), nullptr);
    EXPECT_NE(kt.csr_vi.get<std::uint16_t>(), nullptr);
    EXPECT_NE(kt.csr_vi.get<std::uint32_t>(), nullptr);
    EXPECT_NE(kt.sym_csr, nullptr);
    EXPECT_NE(kt.sym_csr_vi.get<std::uint8_t>(), nullptr);
    EXPECT_NE(kt.sym_csr_vi.get<std::uint16_t>(), nullptr);
    EXPECT_NE(kt.sym_csr_vi.get<std::uint32_t>(), nullptr);
  }
}

TEST(InstanceDispatch, ReportsActiveTierAndRebindsOnPrepare) {
  Rng rng(11);
  const Triplets t = test::random_triplets(64, 64, 800, rng);
  Rng xr(12);
  const Vector x = random_vector(t.ncols(), xr);
  const Vector y_ref = test::reference_spmv(t, x);

  SpmvInstance inst(t, Format::kCsr);
  EXPECT_EQ(inst.isa_tier(), active_isa_tier());

  // Rebinding under a changed override must take effect and still give
  // the scalar tier's exact accumulation order.
  test::ScopedEnv isa("SPC_ISA", "scalar");
  inst.prepare();
  EXPECT_EQ(inst.isa_tier(), IsaTier::kScalar);
  Vector y(t.nrows(), 0.0);
  inst.run(x, y);
  EXPECT_EQ(max_abs_diff(y_ref, y), 0.0);
}

TEST(InstanceDispatch, HugeColumnCountClampsToScalar) {
  // The vector tiers gather through signed 32-bit index lanes, so a
  // matrix whose columns could reach 2^31 must stay scalar. Only the
  // tier is checked — running would need a 16 GiB x vector.
  Triplets t(2, (index_t{1} << 31) + 5);
  t.add(0, 3, 1.0);
  t.add(1, (index_t{1} << 31), 2.0);
  t.sort_and_combine();
  const SpmvInstance inst(t, Format::kCsr);
  EXPECT_EQ(inst.isa_tier(), IsaTier::kScalar);
}

TEST(InstanceDispatch, DuHistogramOnlyForDuFormats) {
  const Triplets t = test::paper_matrix();
  for (const Format f : {Format::kCsrDu, Format::kCsrDuVi}) {
    const SpmvInstance inst(t, f);
    const CsrDu::UnitHistogram* h = inst.du_histogram();
    ASSERT_NE(h, nullptr) << format_name(f);
    EXPECT_EQ(h->nnz, t.nnz());
    EXPECT_GT(h->units, 0u);
    EXPECT_GT(h->avg_unit_elems(), 0.0);
  }
  for (const Format f : {Format::kCsr, Format::kCsr16, Format::kCsrVi}) {
    const SpmvInstance inst(t, f);
    EXPECT_EQ(inst.du_histogram(), nullptr) << format_name(f);
  }
}

TEST(UnitHistogram, CountsClassesAndRuns) {
  // A banded matrix encoded with RLE on: the histogram must agree with
  // the encoder's own unit statistics and classify every element.
  Rng rng(21);
  const Triplets t =
      gen_banded(256, 9, 1, rng, ValueModel::random());
  CsrDuOptions opts;
  opts.enable_rle = true;
  opts.rle_min_run = 8;
  const CsrDu du = CsrDu::from_triplets(t, opts);
  const CsrDu::UnitHistogram h = du.unit_histogram();
  EXPECT_EQ(h.units, du.unit_count());
  EXPECT_EQ(h.rle_units, du.rle_unit_count());
  EXPECT_EQ(h.nnz, du.nnz());
  usize_t class_units = 0;
  usize_t class_elems = 0;
  for (int c = 0; c < 4; ++c) {
    class_units += h.units_per_class[c];
    class_elems += h.elems_per_class[c];
  }
  EXPECT_EQ(class_units, h.units);
  EXPECT_EQ(class_elems, h.nnz);
  EXPECT_LE(h.seq_units, h.rle_units);
  EXPECT_LE(h.seq_elems, h.rle_elems);
}

}  // namespace
}  // namespace spc
