// Scalar dispatch tier: the portable kernels from kernels.hpp, compiled
// with the project's base flags. This table is the floor every other tier
// falls back to, and the oracle for the dispatch fuzz test — its entries
// keep the exact arithmetic order of the pre-dispatch code, so forcing
// SPC_ISA=scalar reproduces those results bit-for-bit. No table carries a
// DU kernel: the DU formats run as offset units through one scalar kernel
// (spmv_offset_units) that SpmvInstance binds at every tier.
#include "spc/spmv/dispatch_tables.hpp"
#include "spc/spmv/kernels.hpp"

namespace spc::detail {

const KernelTable& scalar_table() {
  static const KernelTable table = [] {
    KernelTable t;
    t.tier = IsaTier::kScalar;
    t.csr = &spmv_csr_raw<std::uint32_t>;
    t.csr16 = &spmv_csr_raw<std::uint16_t>;
    t.csr_vi = {&spmv_csr_vi_range<std::uint8_t>,
                &spmv_csr_vi_range<std::uint16_t>,
                &spmv_csr_vi_range<std::uint32_t>};
    t.sym_csr = &spmv_sym_csr_win;
    t.sym_csr_vi = {&spmv_sym_csr_vi_win<std::uint8_t>,
                    &spmv_sym_csr_vi_win<std::uint16_t>,
                    &spmv_sym_csr_vi_win<std::uint32_t>};
    return t;
  }();
  return table;
}

}  // namespace spc::detail
