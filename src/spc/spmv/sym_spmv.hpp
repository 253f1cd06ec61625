// Conflict reduction for the symmetric formats (§III-C).
//
// The implicit upper triangle makes the kernel scatter into y[col], so
// row ranges no longer write disjoint y. Instead of the classic fix — a
// full private y copy per thread plus an O(nthreads x nrows) reduction —
// SpmvInstance's pooled symmetric runs use a *bounded conflict window*
// (Batista et al., arXiv:1003.0952): each thread writes its own row
// range directly into the shared y and scatters only into a compact
// buffer covering [win_begin, row_begin), the span its rows actually
// reach below its partition. The reduction then touches only the window
// rows, shrinking the reduction traffic from O(nthreads x nrows) to the
// conflict span — near zero on banded matrices. When windows degenerate
// toward ~nrows (e.g. a dense first column), the private-y path is still
// the cheaper one and remains as fallback. This header holds the
// strategy selection and the window planner.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spc/parallel/partition.hpp"

namespace spc {

/// Reduction strategy for the symmetric scatter conflicts.
enum class SymReduce : std::uint8_t {
  kAuto = 0,     ///< window unless the plan degenerates (see below)
  kWindow = 1,   ///< force the conflict-window path
  kPrivate = 2,  ///< force the full private-y path
};

/// Canonical lower-case name ("auto", "window", "private").
const char* sym_reduce_name(SymReduce r);

/// Parses a strategy name; returns false on unknown names, leaving *out
/// untouched.
bool parse_sym_reduce(const std::string& name, SymReduce* out);

/// `requested` overridden by SPC_SYM_REDUCE when set (an unparseable
/// value is diagnosed once to stderr and ignored).
SymReduce sym_reduce_from_env(SymReduce requested);

/// The per-thread conflict-window plan: thread t's scatters outside its
/// own rows all land in [win_begin[t], row_begin(t)).
struct SymWindowPlan {
  std::vector<index_t> win_begin;  ///< per thread; == row_begin when empty
  usize_t total_rows = 0;          ///< sum of window extents
  bool use_window = true;          ///< resolved mode after degeneracy check
};

/// Completes the plan from each thread's window start — the minimum
/// first column over its rows (columns ascend within a row, so a row's
/// first entry is its lowest scatter target), clamped to its row_begin.
/// `requested` must already be env-resolved; kAuto picks the window path
/// unless the total window span exceeds nthreads*nrows/2 — the point
/// where the windows' zero+write+read traffic stops undercutting the
/// private-y sweep's by a safe margin.
SymWindowPlan plan_sym_windows(std::vector<index_t> win_begin,
                               const RowPartition& partition, index_t nrows,
                               SymReduce requested);

}  // namespace spc
