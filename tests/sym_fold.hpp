// The bit-level reference for pooled symmetric instances, shared by the
// symmetric suites: at SPC_ISA=scalar a pooled run must equal this fold
// bit for bit.
#pragma once

#include <cstring>
#include <vector>

#include "spc/formats/sym_csr.hpp"
#include "spc/formats/sym_csr_vi.hpp"
#include "spc/mm/triplets.hpp"
#include "spc/mm/vector.hpp"
#include "spc/spmv/instance.hpp"
#include "spc/spmv/kernels.hpp"

namespace spc::test {

/// The fold for `inst`: worker w's rows of inst.partition() run through
/// the public window kernel over the whole-matrix encoding, into a
/// zeroed full-length vector with direct_begin 0 and no window (the
/// private-y parameterization); the vectors are then summed in
/// ascending worker order.
inline Vector sym_worker_fold(const Triplets& t, const SpmvInstance& inst,
                              const Vector& x) {
  const RowPartition& part = inst.partition();
  std::vector<Vector> parts(part.nthreads(), Vector(t.nrows(), 0.0));
  if (inst.format() == Format::kSymCsr) {
    const SymCsr m = SymCsr::from_triplets(t);
    for (std::size_t w = 0; w < part.nthreads(); ++w) {
      spmv_sym_csr_win(m.row_ptr().data(), m.col_ind().data(),
                       m.values().data(), m.diag().data(), x.data(),
                       parts[w].data(), nullptr, 0, 0, part.row_begin(w),
                       part.row_end(w));
    }
  } else {
    const SymCsrVi m = SymCsrVi::from_triplets(t);
    m.value_index().visit(
        [&]<typename T>(const T* ind, const T* diag_ind) {
          for (std::size_t w = 0; w < part.nthreads(); ++w) {
            spmv_sym_csr_vi_win(m.row_ptr().data(), m.col_ind().data(), ind,
                                diag_ind, m.value_index().table().data(),
                                x.data(), parts[w].data(), nullptr, 0, 0,
                                part.row_begin(w), part.row_end(w));
          }
        },
        m.diag_index());
  }
  Vector y(t.nrows(), 0.0);
  for (const Vector& p : parts) {
    for (index_t r = 0; r < t.nrows(); ++r) {
      y[r] += p[r];
    }
  }
  return y;
}

/// Byte equality, so -0.0 differs from +0.0 and NaN payloads count.
inline bool same_bits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(value_t)) == 0;
}

}  // namespace spc::test
