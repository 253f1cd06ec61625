// Runtime ISA dispatch for the SpMV hot-path kernels.
//
// The paper's compressed formats shrink the working set; what remains is
// compute on the decode/multiply loops. This layer provides vectorized
// implementations of those loops in per-ISA translation units (compiled
// with per-file -march flags, see src/spc/spmv/CMakeLists.txt) and picks
// the widest one the *running* CPU supports, so a single binary runs
// everywhere and uses AVX2+FMA where it exists.
//
// Tiers:
//   scalar — the portable kernels from kernels.hpp, compiled with the
//            project's base flags. Always available; forcing this tier
//            (SPC_ISA=scalar) reproduces pre-dispatch results bit-for-bit
//            because the arithmetic order is untouched.
//   sse42  — 128-bit (2-wide) mul/add kernels for CSR / CSR-16 / CSR-VI.
//   avx2   — 256-bit (4-wide) FMA kernels with vgatherdpd x-gathers for
//            CSR / CSR-16 / CSR-VI. Vector accumulation reassociates the
//            per-row sum (one vector lane partial each), so results can
//            differ from scalar by normal FP reassociation error.
//
// The vector tiers have no DU decoder: SpmvInstance runs CSR-DU and
// CSR-DU-VI as offset units (formats/offset_units.hpp), whose one scalar
// kernel (spmv_offset_units) is bound at every tier and stays
// bit-identical to scalar CSR.
//
// Selection: active_isa_tier() = min(detected tier, SPC_ISA override).
// The override can only lower the tier — requesting a wider ISA than the
// host supports clamps down, never faults.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "spc/support/types.hpp"

namespace spc {

/// Instruction-set tiers, ordered: a higher tier strictly implies the
/// lower ones.
enum class IsaTier : std::uint8_t { kScalar = 0, kSse42 = 1, kAvx2 = 2 };

/// Canonical lower-case name ("scalar", "sse42", "avx2").
std::string isa_tier_name(IsaTier t);

/// Parses a tier name (also accepts "sse4.2"); returns false on unknown
/// names, leaving *out untouched.
bool parse_isa_tier(const std::string& name, IsaTier* out);

/// The widest tier whose translation unit was compiled into this binary
/// (build-machine property: non-x86 targets compile only scalar).
IsaTier max_compiled_tier();

/// The widest compiled tier the running CPU (and OS) supports. Detected
/// once via CPUID; never changes during the process lifetime.
IsaTier detect_isa_tier();

/// detect_isa_tier() clamped by the SPC_ISA environment override. Reads
/// the environment on every call so tests can rebind after setenv(); an
/// unparseable value is diagnosed once to stderr and ignored.
IsaTier active_isa_tier();

/// All tiers usable on this host, ascending (always starts with scalar).
/// The dispatch fuzz test runs every format through every entry.
std::vector<IsaTier> available_isa_tiers();

// ------------------------------------------------------------------------
// The kernel table: one function pointer per dispatch-routed kernel.
// Raw-pointer signatures so per-ISA TUs need no format-object plumbing.
// ------------------------------------------------------------------------

/// CSR row-range kernel over raw arrays (ColT = uint32_t or uint16_t).
using CsrKernelFn = void (*)(const index_t* row_ptr,
                             const std::uint32_t* col_ind,
                             const value_t* values, const value_t* x,
                             value_t* y, index_t row_begin, index_t row_end);
using Csr16KernelFn = void (*)(const index_t* row_ptr,
                               const std::uint16_t* col_ind,
                               const value_t* values, const value_t* x,
                               value_t* y, index_t row_begin,
                               index_t row_end);

/// CSR-VI row-range kernel, one per value-index width.
template <typename IndT>
using CsrViKernelFn = void (*)(const index_t* row_ptr,
                               const std::uint32_t* col_ind,
                               const IndT* val_ind,
                               const value_t* vals_unique, const value_t* x,
                               value_t* y, index_t row_begin,
                               index_t row_end);

/// Symmetric (SSS) row-range kernel with the conflict-window scatter
/// split (spmv/kernels.hpp): columns >= direct_begin update the shared
/// y, the rest land in win[c - win_begin]. direct_begin == 0 with a
/// private/serial y reproduces the classic paths.
using SymKernelFn = void (*)(const index_t* row_ptr,
                             const index_t* col_ind, const value_t* values,
                             const value_t* diag, const value_t* x,
                             value_t* y, value_t* win, index_t win_begin,
                             index_t direct_begin, index_t row_begin,
                             index_t row_end);

/// Symmetric CSR-VI kernel, one per value-index width; diagonal and
/// lower-triangle values resolve through one shared table.
template <typename IndT>
using SymViKernelFn = void (*)(const index_t* row_ptr,
                               const index_t* col_ind, const IndT* val_ind,
                               const IndT* diag_ind,
                               const value_t* vals_unique, const value_t* x,
                               value_t* y, value_t* win, index_t win_begin,
                               index_t direct_begin, index_t row_begin,
                               index_t row_end);

/// One kernel per value-index width, listed u8, u16, u32. get<T>() is
/// the kernel for index type T, so a ValueIndex::visit() lambda picks
/// its kernel by the type it is handed.
template <template <typename> class Fn>
struct PerIndexWidth {
  Fn<std::uint8_t> u8 = nullptr;
  Fn<std::uint16_t> u16 = nullptr;
  Fn<std::uint32_t> u32 = nullptr;

  template <typename T>
  Fn<T> get() const {
    if constexpr (std::is_same_v<T, std::uint8_t>) {
      return u8;
    } else if constexpr (std::is_same_v<T, std::uint16_t>) {
      return u16;
    } else {
      static_assert(std::is_same_v<T, std::uint32_t>);
      return u32;
    }
  }
};

struct KernelTable {
  IsaTier tier = IsaTier::kScalar;
  CsrKernelFn csr = nullptr;
  Csr16KernelFn csr16 = nullptr;
  PerIndexWidth<CsrViKernelFn> csr_vi;
  // Symmetric formats. The vector tiers vectorize the dot-product side
  // (the lower-triangle row gather); the scatter side stays scalar —
  // it is bounded by the window/store dependences, not by arithmetic.
  SymKernelFn sym_csr = nullptr;
  PerIndexWidth<SymViKernelFn> sym_csr_vi;
};

/// The kernel table for a tier, clamped to what this binary compiled and
/// this CPU supports. Every entry is non-null.
const KernelTable& kernel_table(IsaTier tier);

}  // namespace spc
