// Quickstart: the library's public API through its facade header, on the
// paper's own 6x6 example matrix (Fig 1).
//
//  1. build a sparse matrix from triplets,
//  2. inspect its CSR / CSR-DU / CSR-VI encodings (Fig 1, Table I, Fig 4),
//  3. run y = A*x directly through SpmvInstance in every format,
//  4. serve the same matrix (and a generated second tenant) through
//     spc::engine::Engine — register, submit, await futures, read stats.
#include <cstdio>
#include <cstdlib>

#include "spc/spc.hpp"

using namespace spc;

int main() {
  // The matrix of Fig 1 in the paper.
  Triplets t(6, 6);
  const double rows[6][6] = {
      {5.4, 1.1, 0, 0, 0, 0},   {0, 6.3, 0, 7.7, 0, 8.8},
      {0, 0, 1.1, 0, 0, 0},     {0, 0, 2.9, 0, 3.7, 2.9},
      {9.0, 0, 0, 1.1, 4.5, 0}, {1.1, 0, 2.9, 3.7, 0, 1.1}};
  for (index_t r = 0; r < 6; ++r) {
    for (index_t c = 0; c < 6; ++c) {
      if (rows[r][c] != 0.0) {
        t.add(r, c, rows[r][c]);
      }
    }
  }
  t.sort_and_combine();

  // --- CSR (Fig 1) ---
  const Csr csr = Csr::from_triplets(t);
  std::printf("CSR row_ptr: ");
  for (const auto v : csr.row_ptr()) {
    std::printf("%u ", v);
  }
  std::printf("\nCSR col_ind: ");
  for (const auto v : csr.col_ind()) {
    std::printf("%u ", v);
  }
  std::printf("\nCSR bytes: %llu\n\n",
              static_cast<unsigned long long>(csr.bytes()));

  // --- CSR-DU units (Table I) ---
  const CsrDu du = CsrDu::from_triplets(t);
  std::printf("CSR-DU: %llu units, ctl %llu bytes (col_ind was %llu)\n",
              static_cast<unsigned long long>(du.unit_count()),
              static_cast<unsigned long long>(du.ctl_bytes()),
              static_cast<unsigned long long>(csr.nnz() * 4));

  // --- CSR-VI value indirection (Fig 4) ---
  const CsrVi vi = CsrVi::from_triplets(t);
  std::printf("CSR-VI: %llu unique values (ttu %.2f), index width %u "
              "byte(s)\n\n",
              static_cast<unsigned long long>(vi.value_index().table().size()),
              vi.ttu(), static_cast<unsigned>(vi.value_index().width()));

  // --- Direct execution: SpmvInstance in every format ---
  Vector x = {1, 2, 3, 4, 5, 6};
  for (const Format f : all_formats()) {
    if (format_requires_symmetry(f) && !SymCsr::applicable(t)) {
      std::printf("%-10s skipped: matrix is not symmetric\n",
                  format_name(f).c_str());
      continue;
    }
    InstanceOptions opts;
    opts.pin_threads = false;
    const Status vst = opts.validate();
    if (!vst.ok()) {
      std::printf("bad options: %s\n", vst.to_string().c_str());
      return 1;
    }
    SpmvInstance inst(t, f, 2, opts);
    Vector y(6, 0.0);
    inst.run(x, y);
    std::printf("%-10s x2: y = [", format_name(f).c_str());
    for (const auto v : y) {
      std::printf(" %6.2f", v);
    }
    std::printf(" ]  (matrix %llu bytes)\n",
                static_cast<unsigned long long>(inst.matrix_bytes()));
  }

  // --- Serving: one engine, one shared pool, many matrices ---
  engine::EngineOptions eopts;
  eopts.pool_threads = 2;
  eopts.pin_threads = false;  // example must run inside restricted cpusets
  engine::Engine eng(eopts);

  Status st = eng.register_matrix("fig1", t);
  if (!st.ok()) {
    std::printf("register fig1: %s\n", st.to_string().c_str());
    return 1;
  }
  // A second tenant from the generator suite, autotuned: the engine asks
  // the tuner for the format, then prepares it against the shared pool.
  engine::RegisterOptions ropts;
  ropts.auto_format = true;
  ropts.warm_runs = 1;
  st = eng.register_matrix("lap2d", gen_laplacian_2d(16, 16), ropts);
  if (!st.ok()) {
    std::printf("register lap2d: %s\n", st.to_string().c_str());
    return 1;
  }

  // Async: submit returns a Future immediately.
  engine::Future f1 = eng.submit("fig1", x);
  engine::Future f2 = eng.submit("lap2d", const_vector(16 * 16, 1.0));
  std::printf("\nengine fig1: status=%s y = [", f1.status().to_string().c_str());
  for (const auto v : f1.value()) {
    std::printf(" %6.2f", v);
  }
  std::printf(" ]\n");
  std::printf("engine lap2d: status=%s (%zu elements, queued %llu ns)\n",
              f2.status().to_string().c_str(), f2.value().size(),
              static_cast<unsigned long long>(f2.queue_ns()));

  // Sync convenience + error surfacing as Status, not exceptions.
  Vector y;
  st = eng.run_sync("fig1", x, &y);
  std::printf("run_sync fig1: %s\n", st.to_string().c_str());
  st = eng.run_sync("nope", x, &y);
  std::printf("run_sync nope: %s\n", st.to_string().c_str());

  engine::Engine::MatrixInfo info;
  if (eng.matrix_info("lap2d", &info).ok()) {
    std::printf("lap2d resolved to %s (tuned=%d source=%s), %llu runs\n",
                format_name(info.format).c_str(), info.tuned ? 1 : 0,
                info.tune_source.c_str(),
                static_cast<unsigned long long>(info.runs));
  }

  eng.drain();
  const engine::Engine::Stats stats = eng.stats();
  std::printf("engine stats: submitted=%llu completed=%llu rejected=%llu\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.rejected));
  eng.shutdown();
  return 0;
}
