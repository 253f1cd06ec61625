#include "spc/bench/experiments.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <ostream>

#include "spc/formats/dcsr.hpp"
#include "spc/support/strutil.hpp"
#include "spc/tune/cost.hpp"

namespace spc {

namespace {

const char* set_name(SetClass c) {
  switch (c) {
    case SetClass::kRejected:
      return "rej";
    case SetClass::kSmall:
      return "MS";
    case SetClass::kLarge:
      return "ML";
  }
  return "?";
}

InstanceOptions instance_opts(const BenchConfig& cfg) {
  InstanceOptions opts;
  opts.pin_threads = cfg.pin_threads;
  return opts;
}

std::string f2(double v) { return fmt_fixed(v, 2); }
std::string f1(double v) { return fmt_fixed(v, 1); }

/// Bench label for JSONL records: the CSV name without its extension.
std::string bench_label(const std::string& csv_name) {
  const std::size_t dot = csv_name.rfind('.');
  return dot == std::string::npos ? csv_name : csv_name.substr(0, dot);
}

}  // namespace

void run_table2_csr_scaling(const BenchConfig& cfg, std::ostream& os) {
  os << "=== Table II: CSR SpMxV performance (serial MFLOPS, MT speedup) ==="
     << "\n[" << cfg.describe() << "]\n";

  // Row keys: thread configurations in paper order.
  struct Config {
    std::string label;
    std::size_t threads;
    Placement placement;
  };
  std::vector<Config> configs;
  for (const std::size_t n : cfg.threads) {
    if (n == 1) {
      continue;  // serial is the baseline row
    }
    if (n == 2) {
      configs.push_back({"2 (1xL2)", 2, Placement::kCloseFirst});
      configs.push_back({"2 (2xL2)", 2, Placement::kSpreadCaches});
    } else {
      configs.push_back({std::to_string(n), n, Placement::kCloseFirst});
    }
  }

  // Aggregates: per set class and per config.
  std::map<std::string, OnlineStats> serial_mflops;  // set -> stats
  std::map<std::string, std::map<std::string, OnlineStats>> speedups;

  std::vector<std::vector<std::string>> csv_rows;
  for_each_matrix(cfg, [&](MatrixCase& mc) {
    SpmvInstance serial(mc.mat, Format::kCsr, 1, instance_opts(cfg));
    const RunMetrics m1 =
        time_spmv_metrics(serial, cfg.iterations, cfg.warmup);
    emit_metrics_record("table2_csr_scaling", mc, serial, m1);
    const double t1 = m1.seconds;
    const double mf = m1.mflops;
    const std::string set = set_name(mc.set_class);
    serial_mflops[set].add(mf);
    serial_mflops["M0"].add(mf);

    std::vector<std::string> row = {mc.name, set, f1(mf)};
    for (const Config& c : configs) {
      InstanceOptions opts = instance_opts(cfg);
      opts.placement = c.placement;
      SpmvInstance mt(mc.mat, Format::kCsr, c.threads, opts);
      const RunMetrics mn = time_spmv_metrics(mt, cfg.iterations, cfg.warmup);
      const double tn = mn.seconds;
      const double sp = tn > 0.0 ? t1 / tn : 0.0;
      emit_metrics_record("table2_csr_scaling", mc, mt, mn, sp);
      speedups[set][c.label].add(sp);
      speedups["M0"][c.label].add(sp);
      row.push_back(f2(sp));
    }
    csv_rows.push_back(std::move(row));
  });

  TextTable table({"core(s)", "MS avg", "MS max", "MS min", "ML avg",
                   "ML max", "ML min", "M0 avg"});
  {
    std::vector<std::string> row = {"1 (MFLOPS)"};
    for (const char* set : {"MS", "ML"}) {
      const OnlineStats& s = serial_mflops[set];
      row.push_back(f1(s.mean()));
      row.push_back(f1(s.max()));
      row.push_back(f1(s.min()));
    }
    row.push_back(f1(serial_mflops["M0"].mean()));
    table.add_row(std::move(row));
  }
  for (const Config& c : configs) {
    std::vector<std::string> row = {c.label};
    for (const char* set : {"MS", "ML"}) {
      const OnlineStats& s = speedups[set][c.label];
      row.push_back(f2(s.mean()));
      row.push_back(f2(s.max()));
      row.push_back(f2(s.min()));
    }
    row.push_back(f2(speedups["M0"][c.label].mean()));
    table.add_row(std::move(row));
  }
  os << "(sets: MS " << serial_mflops["MS"].count() << " matrices, ML "
     << serial_mflops["ML"].count() << " matrices)\n";
  table.print(os);

  std::vector<std::string> header = {"matrix", "set", "serial_mflops"};
  for (const Config& c : configs) {
    header.push_back("speedup_" + c.label);
  }
  write_csv("table2_csr_scaling.csv", header, csv_rows);
  os << "per-matrix data: table2_csr_scaling.csv\n\n";
}

void run_compare_table(const BenchConfig& cfg, Format compressed,
                       bool vi_subset, const std::string& csv_name,
                       std::ostream& os) {
  const std::string fname = format_name(compressed);
  os << "=== " << fname << " vs CSR at equal thread count"
     << (vi_subset ? " (ttu>5 subset)" : "") << " ===\n[" << cfg.describe()
     << "]\n";

  std::map<std::string, std::map<std::size_t, SpeedupAgg>> agg;
  std::vector<std::vector<std::string>> csv_rows;
  std::size_t used = 0;

  for_each_matrix(cfg, [&](MatrixCase& mc) {
    if (vi_subset && mc.stats.ttu <= kViTtuThreshold) {
      return;
    }
    ++used;
    const std::string set = set_name(mc.set_class);
    SpmvInstance csr_ref(mc.mat, Format::kCsr, 1, instance_opts(cfg));
    SpmvInstance comp_ref(mc.mat, compressed, 1, instance_opts(cfg));
    const double size_red =
        100.0 * (1.0 - static_cast<double>(comp_ref.matrix_bytes()) /
                           static_cast<double>(csr_ref.matrix_bytes()));
    const std::string bench = bench_label(csv_name);
    for (const std::size_t n : cfg.threads) {
      double t_csr, t_comp;
      if (n == 1) {
        const RunMetrics m_csr =
            time_spmv_metrics(csr_ref, cfg.iterations, cfg.warmup);
        const RunMetrics m_comp =
            time_spmv_metrics(comp_ref, cfg.iterations, cfg.warmup);
        t_csr = m_csr.seconds;
        t_comp = m_comp.seconds;
        emit_metrics_record(bench, mc, csr_ref, m_csr, 1.0);
        emit_metrics_record(bench, mc, comp_ref, m_comp,
                            t_comp > 0.0 ? t_csr / t_comp : 0.0);
      } else {
        SpmvInstance csr_mt(mc.mat, Format::kCsr, n, instance_opts(cfg));
        SpmvInstance comp_mt(mc.mat, compressed, n, instance_opts(cfg));
        const RunMetrics m_csr =
            time_spmv_metrics(csr_mt, cfg.iterations, cfg.warmup);
        const RunMetrics m_comp =
            time_spmv_metrics(comp_mt, cfg.iterations, cfg.warmup);
        t_csr = m_csr.seconds;
        t_comp = m_comp.seconds;
        emit_metrics_record(bench, mc, csr_mt, m_csr, 1.0);
        emit_metrics_record(bench, mc, comp_mt, m_comp,
                            t_comp > 0.0 ? t_csr / t_comp : 0.0);
      }
      const double sp = t_comp > 0.0 ? t_csr / t_comp : 0.0;
      agg[set][n].add(sp);
      agg["M0"][n].add(sp);
      csv_rows.push_back({mc.name, set, std::to_string(n), f2(sp),
                          f1(size_red)});
    }
  });

  TextTable table({"core(s)", "MS avg", "MS max", "MS min", "MS <0.98",
                   "ML avg", "ML max", "ML min", "ML <0.98", "M0 avg"});
  for (const std::size_t n : cfg.threads) {
    std::vector<std::string> row = {std::to_string(n)};
    for (const char* set : {"MS", "ML"}) {
      SpeedupAgg& a = agg[set][n];
      row.push_back(f2(a.avg()));
      row.push_back(f2(a.max()));
      row.push_back(f2(a.min()));
      row.push_back(std::to_string(a.slowdowns()));
    }
    row.push_back(f2(agg["M0"][n].avg()));
    table.add_row(std::move(row));
  }
  os << "(matrices used: " << used << ", MS "
     << (agg.count("MS") ? agg["MS"].begin()->second.count() : 0) << ", ML "
     << (agg.count("ML") ? agg["ML"].begin()->second.count() : 0) << ")\n";
  table.print(os);
  write_csv(csv_name,
            {"matrix", "set", "threads", "speedup_vs_csr",
             "size_reduction_pct"},
            csv_rows);
  os << "per-matrix data: " << csv_name << "\n\n";
}

void run_detail_figure(const BenchConfig& cfg, Format compressed,
                       bool vi_subset, const std::string& csv_name,
                       std::ostream& os) {
  const std::string fname = format_name(compressed);
  os << "=== Per-matrix detail: " << fname
     << " speedup vs serial CSR (bars), CSR MT speedup (squares), size "
        "reduction (labels) ===\n[" << cfg.describe() << "]\n";

  struct Row {
    std::string name;
    std::string set;
    double csr_mt_speedup;
    std::vector<double> comp_speedups;  // one per thread count
    double size_reduction_pct;
  };
  std::vector<Row> rows;
  const std::size_t max_threads =
      *std::max_element(cfg.threads.begin(), cfg.threads.end());

  for_each_matrix(cfg, [&](MatrixCase& mc) {
    if (vi_subset && mc.stats.ttu <= kViTtuThreshold) {
      return;
    }
    Row r;
    r.name = mc.name;
    r.set = set_name(mc.set_class);
    const std::string bench = bench_label(csv_name);
    SpmvInstance csr_serial(mc.mat, Format::kCsr, 1, instance_opts(cfg));
    const RunMetrics m1 =
        time_spmv_metrics(csr_serial, cfg.iterations, cfg.warmup);
    emit_metrics_record(bench, mc, csr_serial, m1, 1.0);
    const double t1 = m1.seconds;

    SpmvInstance comp_serial(mc.mat, compressed, 1, instance_opts(cfg));
    r.size_reduction_pct =
        100.0 * (1.0 - static_cast<double>(comp_serial.matrix_bytes()) /
                           static_cast<double>(csr_serial.matrix_bytes()));

    SpmvInstance csr_mt(mc.mat, Format::kCsr, max_threads,
                        instance_opts(cfg));
    const RunMetrics m_mt =
        time_spmv_metrics(csr_mt, cfg.iterations, cfg.warmup);
    const double t_mt = m_mt.seconds;
    r.csr_mt_speedup = t_mt > 0.0 ? t1 / t_mt : 0.0;
    emit_metrics_record(bench, mc, csr_mt, m_mt, r.csr_mt_speedup);

    for (const std::size_t n : cfg.threads) {
      double tn;
      if (n == 1) {
        const RunMetrics mn =
            time_spmv_metrics(comp_serial, cfg.iterations, cfg.warmup);
        tn = mn.seconds;
        emit_metrics_record(bench, mc, comp_serial, mn,
                            tn > 0.0 ? t1 / tn : 0.0);
      } else {
        SpmvInstance comp_mt(mc.mat, compressed, n, instance_opts(cfg));
        const RunMetrics mn =
            time_spmv_metrics(comp_mt, cfg.iterations, cfg.warmup);
        tn = mn.seconds;
        emit_metrics_record(bench, mc, comp_mt, mn,
                            tn > 0.0 ? t1 / tn : 0.0);
      }
      r.comp_speedups.push_back(tn > 0.0 ? t1 / tn : 0.0);
    }
    rows.push_back(std::move(r));
  });

  // The paper sorts matrices by speedup.
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.comp_speedups.back() < b.comp_speedups.back();
  });

  std::vector<std::string> header = {"matrix", "set"};
  for (const std::size_t n : cfg.threads) {
    header.push_back(fname + "_x" + std::to_string(n));
  }
  header.push_back("csr_x" + std::to_string(max_threads));
  header.push_back("size_red_%");
  TextTable table(header);
  std::vector<std::vector<std::string>> csv_rows;
  for (const Row& r : rows) {
    std::vector<std::string> cells = {r.name, r.set};
    for (const double s : r.comp_speedups) {
      cells.push_back(f2(s));
    }
    cells.push_back(f2(r.csr_mt_speedup));
    cells.push_back(f1(r.size_reduction_pct));
    table.add_row(cells);
    csv_rows.push_back(cells);
  }
  table.print(os);
  write_csv(csv_name, header, csv_rows);
  os << "figure series: " << csv_name << "\n\n";
}

void run_working_set_report(const BenchConfig& cfg, std::ostream& os) {
  os << "=== Working-set model (the paper's §II-B formula) and encoded "
        "format sizes ===\n[" << cfg.describe() << "]\n";
  TextTable table({"matrix", "set", "nrows", "nnz", "ws", "ttu",
                   "u8-delta%", "csr", "csr-du", "csr-vi", "csr-du-vi",
                   "dcsr", "pick", "pred-B/nnz", "meas-B/nnz", "err%"});
  std::vector<std::vector<std::string>> csv_rows;
  for_each_matrix(
      cfg,
      [&](MatrixCase& mc) {
        SpmvInstance csr(mc.mat, Format::kCsr);
        const double csr_b = static_cast<double>(csr.matrix_bytes());
        const auto rel = [&](Format f) {
          SpmvInstance inst(mc.mat, f);
          return f2(static_cast<double>(inst.matrix_bytes()) / csr_b);
        };
        std::vector<std::string> row = {
            mc.name,
            set_name(mc.set_class),
            std::to_string(mc.stats.nrows),
            std::to_string(mc.stats.nnz),
            human_bytes(mc.ws),
            f1(mc.stats.ttu),
            f1(100.0 * mc.stats.u8_delta_fraction())};
        const Dcsr dcsr = Dcsr::from_triplets(mc.mat);
        row.insert(row.end(), {human_bytes(csr.matrix_bytes()),
                               rel(Format::kCsrDu),
                               rel(Format::kCsrVi),
                               rel(Format::kCsrDuVi),
                               f2(static_cast<double>(dcsr.bytes()) / csr_b)});
        // Cost-model check (§II-B): the tuner's predicted streamed
        // bytes/nnz for its top pick, next to the same figure recomputed
        // from the actually-encoded instance. A drifting err% means the
        // closed-form model has fallen out of sync with the encoders.
        const tune::TuneFeatures feats = tune::extract_features(mc.mat);
        Format pick = Format::kCsr;
        double pred_streamed = std::numeric_limits<double>::infinity();
        for (const tune::CandidatePrediction& c :
             tune::predict_candidates(feats)) {
          if (c.applicable && c.streamed_bytes_per_nnz < pred_streamed) {
            pred_streamed = c.streamed_bytes_per_nnz;
            pick = c.format;
          }
        }
        SpmvInstance pick_inst(mc.mat, pick);
        const double nnz_d =
            static_cast<double>(std::max<std::uint64_t>(1, mc.stats.nnz));
        const double vec_b = static_cast<double>(sizeof(value_t)) *
                             static_cast<double>(mc.stats.nrows +
                                                 mc.stats.ncols) /
                             nnz_d;
        const double meas_streamed =
            static_cast<double>(pick_inst.matrix_bytes()) / nnz_d + vec_b;
        const double err_pct =
            meas_streamed > 0.0
                ? 100.0 * (pred_streamed - meas_streamed) / meas_streamed
                : 0.0;
        row.insert(row.end(), {format_name(pick), f2(pred_streamed),
                               f2(meas_streamed), f1(err_pct)});
        table.add_row(row);
        csv_rows.push_back(std::move(row));
      },
      /*apply_rejection=*/false);
  table.print(os);
  write_csv("working_set_report.csv",
            {"matrix", "set", "nrows", "nnz", "ws", "ttu", "u8_delta_pct",
             "csr_bytes", "du_rel", "vi_rel", "duvi_rel", "dcsr_rel", "pick",
             "pred_b_nnz", "meas_b_nnz", "err_pct"},
            csv_rows);
  os << "data: working_set_report.csv\n\n";
}

}  // namespace spc
