// The benchmark's workloads and the inputs each one generates.
//
// Every workload is a set of resident matrices plus a request mix. The
// kernel phase runs each format over all of the workload's matrices;
// the serving phases submit requests for them to one Engine at fixed
// absolute Poisson rates; every workload also registers a stream of
// fresh matrices with auto_format and a cold tune cache.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spc/mm/triplets.hpp"
#include "spc/mm/vector.hpp"
#include "spc/spmv/instance.hpp"

namespace e2e {

/// The formats of the kernel phase (4 threads) and of its single-thread
/// baseline.
inline constexpr spc::Format kFormats[] = {spc::Format::kCsr,
                                           spc::Format::kCsrDu,
                                           spc::Format::kCsrVi,
                                           spc::Format::kCsrDuVi};
inline constexpr std::size_t kNumFormats = std::size(kFormats);
inline constexpr std::size_t kNumSerialFormats = 3;  ///< csr, csr-du, csr-vi

/// Names of kFormats in metric and span names. The benchmark's own, so
/// a renamed library format cannot rename a metric.
inline constexpr const char* kFormatNames[kNumFormats] = {"csr", "csr-du", "csr-vi",
                                                          "csr-du-vi"};

/// Serial long-double reference for one (matrix, x): y_ref and the
/// per-row tolerance 64*eps*sum|a_ij*x_j|.
struct Reference {
  std::vector<double> y;
  std::vector<double> bound;
};
Reference reference(const spc::Triplets& t, const spc::Vector& x);

/// Rows of `y` outside the reference tolerance (NaN counts as outside).
std::size_t bad_rows(const Reference& ref, const spc::Vector& y);

struct Matrix {
  std::string id;
  spc::Triplets t;
  double weight = 1.0;  ///< share of the request mix (normalised)
  std::vector<spc::Vector> x;  ///< seeded input variants
  std::vector<Reference> ref;  ///< one per variant
};

struct WorkloadSpec {
  std::string name;
  /// Fixed absolute request rates (req/s): about 30-40% and 50-60% of
  /// the overload goodput the engine showed on the reference machine,
  /// and 1.6-2.4x of it for the overload phase. Fixed, so a faster
  /// engine meets the same traffic rather than more of it.
  double r_ref = 0.0;
  double r_high = 0.0;
  double r_over = 0.0;
  /// A writer thread registers the stream beside the R_ref phase
  /// instead of after the serving phases.
  bool churn = false;
};

const std::vector<WorkloadSpec>& workloads();
/// Throws spc::InvalidArgument for an unknown name.
const WorkloadSpec& find_workload(const std::string& name);

struct Inputs {
  std::vector<Matrix> mats;
  std::vector<spc::Triplets> stream;  ///< registered with auto_format
};

/// Builds every input of `w` from `seed`: the same seed gives the same
/// matrices, x vectors and references.
Inputs make_inputs(const WorkloadSpec& w, std::uint64_t seed);

/// Variants of x per matrix (requests pick one at random; the kernel
/// phase uses variant 0).
inline constexpr std::size_t kVariants = 4;

}  // namespace e2e
