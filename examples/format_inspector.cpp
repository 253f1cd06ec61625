// Inspects a sparse matrix: structural statistics, the §II-B working-set
// model, compressibility predictors (delta classes, ttu) and the actual
// encoded size of every format, with the paper's applicability rules
// annotated. The DU formats show both layouts: the instance's offset
// units (execution) and the paper's ctl stream (storage).
//
// Usage:
//   format_inspector <file.mtx>        inspect a Matrix Market file
//   format_inspector corpus:<name>     inspect a corpus recipe
//                                      (scale via SPC_SCALE, default small)
#include <cstdio>
#include <cstring>
#include <string>

#include "spc/bench/harness.hpp"
#include "spc/formats/bcsr.hpp"
#include "spc/formats/coo.hpp"
#include "spc/formats/csc.hpp"
#include "spc/formats/csr_du_vi.hpp"
#include "spc/formats/csr_vi.hpp"
#include "spc/formats/dcsr.hpp"
#include "spc/formats/dia.hpp"
#include "spc/formats/ell.hpp"
#include "spc/formats/jds.hpp"
#include "spc/gen/corpus.hpp"
#include "spc/mm/mtx.hpp"
#include "spc/mm/stats.hpp"
#include "spc/spmv/instance.hpp"
#include "spc/support/strutil.hpp"

using namespace spc;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <file.mtx> | corpus:<name>\n"
                 "corpus names: ",
                 argv[0]);
    for (const auto& s : corpus_specs(CorpusScale::kSmall)) {
      std::fprintf(stderr, "%s ", s.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  const std::string arg = argv[1];
  Triplets t;
  if (arg.rfind("corpus:", 0) == 0) {
    const BenchConfig cfg = BenchConfig::from_env();
    t = corpus_spec(arg.substr(7), cfg.scale).build();
  } else {
    t = read_matrix_market_file(arg);
  }

  const MatrixStats s = compute_stats(t);
  std::printf("matrix: %s\n", arg.c_str());
  std::printf("  dims: %u x %u, nnz %llu, empty rows %u\n", s.nrows,
              s.ncols, static_cast<unsigned long long>(s.nnz),
              s.empty_rows);
  std::printf("  row length: mean %.1f, stddev %.1f, min %u, max %u\n",
              s.row_len_mean, s.row_len_stddev, s.row_len_min,
              s.row_len_max);
  std::printf("  bandwidth: %llu\n",
              static_cast<unsigned long long>(s.bandwidth));
  std::printf("  working set (paper formula): %s  [csr arrays %s + "
              "vectors]\n",
              human_bytes(s.working_set_bytes()).c_str(),
              human_bytes(s.csr_bytes()).c_str());

  std::printf("  column delta classes: ");
  const char* cls_names[4] = {"u8", "u16", "u32", "u64"};
  std::uint64_t total_deltas = 0;
  for (const auto c : s.delta_class_count) {
    total_deltas += c;
  }
  for (int c = 0; c < 4; ++c) {
    if (s.delta_class_count[c] > 0) {
      std::printf("%s %.1f%%  ", cls_names[c],
                  100.0 * static_cast<double>(s.delta_class_count[c]) /
                      static_cast<double>(total_deltas));
    }
  }
  std::printf("\n  unique values: %llu (ttu %.2f) — CSR-VI %s (paper rule "
              "ttu > 5)\n\n",
              static_cast<unsigned long long>(s.unique_values), s.ttu,
              s.ttu > kViTtuThreshold ? "APPLICABLE" : "not applicable");

  std::printf("%-14s %12s %9s\n", "format", "bytes", "vs csr");
  SpmvInstance csr(t, Format::kCsr);
  const double csr_b = static_cast<double>(csr.matrix_bytes());
  const auto row = [&](const std::string& name, const auto& bytes_of) {
    try {
      const usize_t b = bytes_of();
      std::printf("%-14s %12llu %9.3f\n", name.c_str(),
                  static_cast<unsigned long long>(b),
                  static_cast<double>(b) / csr_b);
    } catch (const Error&) {
      std::printf("%-14s %12s %9s\n", name.c_str(), "-", "n/a");
    }
  };
  for (const Format f : all_formats()) {
    row(format_name(f), [&] { return SpmvInstance(t, f).matrix_bytes(); });
  }
  // The DU instances above run offset units; the paper's ctl stream is
  // the DU storage format (.spcm files, the paper's byte counts).
  row("csr-du ctl", [&] { return CsrDu::from_triplets(t).bytes(); });
  row("csr-du-vi ctl", [&] { return CsrDuVi::from_triplets(t).bytes(); });
  // The §III-A/B comparators are format classes only. The padded formats
  // (ELL, DIA) are guarded against pathological blowup: the refusal is
  // reported instead of allocating gigabytes.
  row("bcsr", [&] { return Bcsr::from_triplets(t, 2, 2).bytes(); });
  row("ell", [&] { return Ell::from_triplets(t, 24.0).bytes(); });
  row("coo", [&] { return Coo::from_triplets(t).bytes(); });
  row("csc", [&] { return Csc::from_triplets(t).bytes(); });
  row("dia", [&] { return Dia::from_triplets(t, 2048).bytes(); });
  row("jds", [&] { return Jds::from_triplets(t).bytes(); });
  row("dcsr", [&] { return Dcsr::from_triplets(t).bytes(); });
  return 0;
}
