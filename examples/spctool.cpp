// spctool — command-line front end to the library.
//
//   spctool inspect  <matrix>
//       print statistics, the §II-B working-set model and per-format sizes
//   spctool convert  <matrix> <out.spcm> [--format csr|csr-du|csr-vi] [--rcm]
//       encode (optionally RCM-reordered) and write an .spcm container
//   spctool spmv     <matrix> [--format F|auto] [--threads N] [--iters K]
//       time y = A*x (the paper's measurement protocol); --format auto
//       (or SPC_TUNE=1 with no --format) runs the spc::tune autotuner
//   spctool reorder  <in> <out.mtx>
//       write the RCM-reordered matrix in Matrix Market form
//
// <matrix> is a .mtx file, an .spcm container (csr/csr-du/csr-vi), or
// corpus:<name> (scale via SPC_SCALE).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "spc/bench/harness.hpp"
#include "spc/formats/bcsr.hpp"
#include "spc/formats/csr_du_vi.hpp"
#include "spc/formats/dcsr.hpp"
#include "spc/formats/ell.hpp"
#include "spc/formats/serialize.hpp"
#include "spc/gen/corpus.hpp"
#include "spc/mm/mtx.hpp"
#include "spc/mm/reorder.hpp"
#include "spc/mm/stats.hpp"
#include "spc/spmv/instance.hpp"
#include "spc/support/env.hpp"
#include "spc/support/strutil.hpp"
#include "spc/support/timing.hpp"
#include "spc/tune/tuner.hpp"

using namespace spc;

namespace {

Triplets load_any(const std::string& arg) {
  if (arg.rfind("corpus:", 0) == 0) {
    return corpus_spec(arg.substr(7), BenchConfig::from_env().scale)
        .build();
  }
  if (arg.size() > 5 && arg.substr(arg.size() - 5) == ".spcm") {
    std::ifstream f(arg, std::ios::binary);
    if (!f) {
      throw Error("cannot open: " + arg);
    }
    index_t nrows = 0, ncols = 0;
    const SpcmTag tag = read_spcm_header(f, &nrows, &ncols);
    f.seekg(0);
    switch (tag) {
      case SpcmTag::kCsr:
        return load_csr(f).to_triplets();
      case SpcmTag::kCsrDu:
        return load_csr_du(f).to_triplets();
      case SpcmTag::kCsrVi:
        return load_csr_vi(f).to_triplets();
      case SpcmTag::kCsrDuVi:
        return load_csr_du_vi(f).to_triplets();
    }
    throw ParseError("unknown container tag");
  }
  return read_matrix_market_file(arg);
}

std::string flag_value(std::vector<std::string>& args,
                       const std::string& name,
                       const std::string& fallback) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == name) {
      std::string v = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      return v;
    }
  }
  return fallback;
}

bool flag_present(std::vector<std::string>& args, const std::string& name) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == name) {
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
      return true;
    }
  }
  return false;
}

int cmd_inspect(std::vector<std::string> args) {
  if (args.empty()) {
    std::fprintf(stderr, "usage: spctool inspect <matrix>\n");
    return 2;
  }
  const Triplets t = load_any(args[0]);
  const MatrixStats s = compute_stats(t);
  std::printf("%s: %u x %u, %llu nnz\n", args[0].c_str(), s.nrows, s.ncols,
              static_cast<unsigned long long>(s.nnz));
  std::printf("  rows: mean %.1f / min %u / max %u / empty %u, bandwidth "
              "%llu\n",
              s.row_len_mean, s.row_len_min, s.row_len_max, s.empty_rows,
              static_cast<unsigned long long>(s.bandwidth));
  std::printf("  working set %s, unique values %llu (ttu %.1f), u8 "
              "deltas %.1f%%\n",
              human_bytes(s.working_set_bytes()).c_str(),
              static_cast<unsigned long long>(s.unique_values), s.ttu,
              100.0 * s.u8_delta_fraction());
  SpmvInstance csr(t, Format::kCsr);
  const auto row = [&](const std::string& name, usize_t bytes) {
    std::printf("  %-13s %10s (%.3f of csr)\n", name.c_str(),
                human_bytes(bytes).c_str(),
                static_cast<double>(bytes) /
                    static_cast<double>(csr.matrix_bytes()));
  };
  for (const Format f :
       {Format::kCsr, Format::kCsrDu, Format::kCsrVi, Format::kCsrDuVi}) {
    row(format_name(f), SpmvInstance(t, f).matrix_bytes());
  }
  // The DU instances above run offset units; the paper's ctl stream is
  // the DU storage format (what `convert` writes).
  row("csr-du ctl", CsrDu::from_triplets(t).bytes());
  row("csr-du-vi ctl", CsrDuVi::from_triplets(t).bytes());
  // The §III-A/B comparators are format classes only; ELL keeps its
  // width guard so a skewed matrix reports a refusal, not gigabytes.
  row("bcsr", Bcsr::from_triplets(t, 2, 2).bytes());
  try {
    row("ell", Ell::from_triplets(t, 24.0).bytes());
  } catch (const InvalidArgument&) {
    std::printf("  %-13s %10s\n", "ell", "n/a");
  }
  row("dcsr", Dcsr::from_triplets(t).bytes());
  return 0;
}

int cmd_convert(std::vector<std::string> args) {
  const std::string fmt = flag_value(args, "--format", "csr-du");
  const bool rcm = flag_present(args, "--rcm");
  if (args.size() < 2) {
    std::fprintf(stderr,
                 "usage: spctool convert <matrix> <out.spcm> "
                 "[--format csr|csr-du|csr-vi] [--rcm]\n");
    return 2;
  }
  Triplets t = load_any(args[0]);
  if (rcm) {
    const Permutation p = rcm_ordering(t);
    t = permute_symmetric(t, p);
    std::printf("applied RCM: bandwidth now %llu\n",
                static_cast<unsigned long long>(pattern_bandwidth(t)));
  }
  const Format f = parse_format(fmt);
  usize_t bytes = 0;
  if (f == Format::kCsr) {
    const Csr m = Csr::from_triplets(t);
    save_file(m, args[1]);
    bytes = m.bytes();
  } else if (f == Format::kCsrDu) {
    const CsrDu m = CsrDu::from_triplets(t);
    save_file(m, args[1]);
    bytes = m.bytes();
  } else if (f == Format::kCsrVi) {
    const CsrVi m = CsrVi::from_triplets(t);
    save_file(m, args[1]);
    bytes = m.bytes();
  } else if (f == Format::kCsrDuVi) {
    const CsrDuVi m = CsrDuVi::from_triplets(t);
    save_file(m, args[1]);
    bytes = m.bytes();
  } else {
    std::fprintf(stderr,
                 "convert supports csr, csr-du, csr-vi, csr-du-vi\n");
    return 2;
  }
  std::printf("wrote %s: %s as %s\n", args[1].c_str(),
              human_bytes(bytes).c_str(), fmt.c_str());
  return 0;
}

int cmd_spmv(std::vector<std::string> args) {
  // No explicit --format defers to SPC_TUNE; an explicit hand-picked
  // format is always honored as written.
  std::string fmt = flag_value(args, "--format", "");
  if (fmt.empty()) {
    fmt = tune::tune_enabled() ? "auto" : "csr";
  }
  const std::size_t threads =
      std::stoull(flag_value(args, "--threads", "1"));
  const std::size_t iters = std::stoull(flag_value(args, "--iters", "128"));
  if (args.empty()) {
    std::fprintf(stderr,
                 "usage: spctool spmv <matrix> [--format F|auto] "
                 "[--threads N] [--iters K]\n");
    return 2;
  }
  const Triplets t = load_any(args[0]);
  InstanceOptions opts;
  opts.pin_threads = false;
  const bool auto_fmt = fmt == "auto";
  tune::TuneReport rep;
  SpmvInstance inst =
      auto_fmt ? tune::auto_instance(t, threads, opts, {}, &rep)
               : SpmvInstance(t, parse_format(fmt), threads, opts);
  if (auto_fmt) {
    fmt = "auto:" + format_name(inst.format());
    std::printf("autotuner chose %s (%s%s, %.1f ms tuning)\n",
                format_name(inst.format()).c_str(), rep.source.c_str(),
                rep.cache_hit ? ", cache hit" : "",
                static_cast<double>(rep.probe_ns) * 1e-6);
  }
  const double secs = time_spmv(inst, iters, 2);
  std::printf("%s  %s  x%zu: %zu ops in %.3fs — %.1f MFLOPS, %.3f ms/op, "
              "matrix %s\n",
              args[0].c_str(), fmt.c_str(), threads, iters, secs,
              mflops(t.nnz(), iters, secs),
              secs * 1e3 / static_cast<double>(iters),
              human_bytes(inst.matrix_bytes()).c_str());
  return 0;
}

int cmd_reorder(std::vector<std::string> args) {
  if (args.size() < 2) {
    std::fprintf(stderr, "usage: spctool reorder <in> <out.mtx>\n");
    return 2;
  }
  Triplets t = load_any(args[0]);
  const usize_t before = pattern_bandwidth(t);
  t = permute_symmetric(t, rcm_ordering(t));
  write_matrix_market_file(t, args[1]);
  std::printf("bandwidth %llu -> %llu, wrote %s\n",
              static_cast<unsigned long long>(before),
              static_cast<unsigned long long>(pattern_bandwidth(t)),
              args[1].c_str());
  return 0;
}

// Prints the SPC_* environment-variable table exactly as docs/API.md
// embeds it — regenerate the doc by pasting this output between its
// generated-table markers (api_surface_test enforces the match).
int cmd_env_table() {
  std::fputs(env_registry_markdown().c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: spctool <inspect|convert|spmv|reorder|env-table> "
                 "...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "env-table") {
      return cmd_env_table();
    }
    if (cmd == "inspect") {
      return cmd_inspect(std::move(args));
    }
    if (cmd == "convert") {
      return cmd_convert(std::move(args));
    }
    if (cmd == "spmv") {
      return cmd_spmv(std::move(args));
    }
    if (cmd == "reorder") {
      return cmd_reorder(std::move(args));
    }
    std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
