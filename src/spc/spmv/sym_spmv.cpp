#include "spc/spmv/sym_spmv.hpp"

#include <algorithm>

#include "spc/support/env.hpp"

namespace spc {

const char* sym_reduce_name(SymReduce r) {
  switch (r) {
    case SymReduce::kAuto:
      return "auto";
    case SymReduce::kWindow:
      return "window";
    case SymReduce::kPrivate:
      return "private";
  }
  return "auto";
}

bool parse_sym_reduce(const std::string& name, SymReduce* out) {
  if (name == "auto") {
    *out = SymReduce::kAuto;
    return true;
  }
  if (name == "window") {
    *out = SymReduce::kWindow;
    return true;
  }
  if (name == "private") {
    *out = SymReduce::kPrivate;
    return true;
  }
  return false;
}

SymReduce sym_reduce_from_env(SymReduce requested) {
  const auto v = env_str("SPC_SYM_REDUCE");
  if (!v) {
    return requested;
  }
  SymReduce r;
  if (parse_sym_reduce(*v, &r)) {
    return r;
  }
  env_warn_once("SPC_SYM_REDUCE", *v, "auto|window|private");
  return requested;
}

SymWindowPlan plan_sym_windows(const index_t* row_ptr,
                               const index_t* col_ind,
                               const RowPartition& partition,
                               std::size_t nthreads, index_t nrows,
                               SymReduce requested) {
  SymWindowPlan plan;
  plan.win_begin.resize(nthreads);
  for (std::size_t t = 0; t < nthreads; ++t) {
    const index_t b = partition.row_begin(t);
    const index_t e = partition.row_end(t);
    index_t wb = b;
    for (index_t r = b; r < e; ++r) {
      if (row_ptr[r] < row_ptr[r + 1]) {
        wb = std::min(wb, col_ind[row_ptr[r]]);
      }
    }
    plan.win_begin[t] = wb;
    plan.total_rows += static_cast<usize_t>(b - wb);
  }
  switch (requested) {
    case SymReduce::kWindow:
      plan.use_window = true;
      break;
    case SymReduce::kPrivate:
      plan.use_window = false;
      break;
    case SymReduce::kAuto:
      // The private sweep moves ~(2*nthreads+1)*nrows values per run
      // (zero + read each copy, write y); the windows move ~4x their
      // total span (zero, scatter, read, add). Cross over at half the
      // private figure so a borderline plan keeps a 2x margin.
      plan.use_window =
          plan.total_rows <=
          static_cast<usize_t>(nthreads) * static_cast<usize_t>(nrows) / 2;
      break;
  }
  return plan;
}

}  // namespace spc
