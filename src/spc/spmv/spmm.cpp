#include "spc/spmv/spmm.hpp"

#include <variant>

#include "spc/parallel/partition.hpp"
#include "spc/parallel/thread_pool.hpp"
#include "spc/support/error.hpp"
#include "spc/support/topology.hpp"

namespace spc {

namespace {

// Fixed-width inner kernel: K accumulators live in registers.
template <index_t K, typename ValueAt>
void spmm_rows_fixed(const aligned_vector<index_t>& row_ptr,
                     const aligned_vector<std::uint32_t>& col_ind,
                     ValueAt value_at, const value_t* __restrict X,
                     value_t* __restrict Y, index_t row_begin,
                     index_t row_end) {
  for (index_t i = row_begin; i < row_end; ++i) {
    value_t acc[K] = {};
    const index_t end = row_ptr[i + 1];
    for (index_t j = row_ptr[i]; j < end; ++j) {
      const value_t v = value_at(j);
      const value_t* const xrow = X + static_cast<usize_t>(col_ind[j]) * K;
      for (index_t c = 0; c < K; ++c) {
        acc[c] += v * xrow[c];
      }
    }
    value_t* const yrow = Y + static_cast<usize_t>(i) * K;
    for (index_t c = 0; c < K; ++c) {
      yrow[c] = acc[c];
    }
  }
}

// Runtime-k fallback.
template <typename ValueAt>
void spmm_rows_any(const aligned_vector<index_t>& row_ptr,
                   const aligned_vector<std::uint32_t>& col_ind,
                   ValueAt value_at, const value_t* __restrict X,
                   value_t* __restrict Y, index_t k, index_t row_begin,
                   index_t row_end) {
  for (index_t i = row_begin; i < row_end; ++i) {
    value_t* const yrow = Y + static_cast<usize_t>(i) * k;
    for (index_t c = 0; c < k; ++c) {
      yrow[c] = 0.0;
    }
    const index_t end = row_ptr[i + 1];
    for (index_t j = row_ptr[i]; j < end; ++j) {
      const value_t v = value_at(j);
      const value_t* const xrow = X + static_cast<usize_t>(col_ind[j]) * k;
      for (index_t c = 0; c < k; ++c) {
        yrow[c] += v * xrow[c];
      }
    }
  }
}

template <typename ValueAt>
void spmm_dispatch(const aligned_vector<index_t>& row_ptr,
                   const aligned_vector<std::uint32_t>& col_ind,
                   ValueAt value_at, const value_t* X, value_t* Y,
                   index_t k, index_t row_begin, index_t row_end) {
  SPC_CHECK_MSG(k >= 1, "SpMM needs at least one vector");
  switch (k) {
    case 1:
      spmm_rows_fixed<1>(row_ptr, col_ind, value_at, X, Y, row_begin,
                         row_end);
      break;
    case 2:
      spmm_rows_fixed<2>(row_ptr, col_ind, value_at, X, Y, row_begin,
                         row_end);
      break;
    case 4:
      spmm_rows_fixed<4>(row_ptr, col_ind, value_at, X, Y, row_begin,
                         row_end);
      break;
    case 8:
      spmm_rows_fixed<8>(row_ptr, col_ind, value_at, X, Y, row_begin,
                         row_end);
      break;
    case 16:
      spmm_rows_fixed<16>(row_ptr, col_ind, value_at, X, Y, row_begin,
                          row_end);
      break;
    default:
      spmm_rows_any(row_ptr, col_ind, value_at, X, Y, k, row_begin,
                    row_end);
      break;
  }
}

}  // namespace

void spmm_csr_range(const Csr& m, const value_t* X, value_t* Y, index_t k,
                    index_t row_begin, index_t row_end) {
  const value_t* const values = m.values().data();
  spmm_dispatch(m.row_ptr(), m.col_ind(),
                [values](index_t j) { return values[j]; }, X, Y, k,
                row_begin, row_end);
}

void spmm_csr_vi_range(const CsrVi& m, const value_t* X, value_t* Y,
                       index_t k, index_t row_begin, index_t row_end) {
  const value_t* const uniq = m.value_index().table().data();
  m.value_index().visit([&](const auto* ind) {
    spmm_dispatch(m.row_ptr(), m.col_ind(),
                  [uniq, ind](index_t j) { return uniq[ind[j]]; }, X, Y, k,
                  row_begin, row_end);
  });
}

struct SpmmRunner::Impl {
  std::variant<Csr, CsrVi> matrix;
  RowPartition partition;
  std::unique_ptr<ThreadPool> pool;
  std::size_t nthreads = 1;
};

SpmmRunner::~SpmmRunner() = default;
SpmmRunner::SpmmRunner(SpmmRunner&&) noexcept = default;

SpmmRunner::SpmmRunner(const Triplets& t, Kind kind, index_t k,
                       std::size_t nthreads, bool pin_threads)
    : impl_(std::make_unique<Impl>()), k_(k) {
  SPC_CHECK_MSG(k >= 1, "SpMM needs at least one vector");
  SPC_CHECK_MSG(nthreads >= 1, "nthreads must be >= 1");
  if (kind == Kind::kCsr) {
    impl_->matrix.emplace<Csr>(Csr::from_triplets(t));
  } else {
    impl_->matrix.emplace<CsrVi>(CsrVi::from_triplets(t));
  }
  impl_->nthreads = nthreads;
  if (nthreads > 1) {
    impl_->partition = partition_rows_by_nnz(t, nthreads);
    std::vector<int> plan;
    if (pin_threads) {
      plan = plan_placement(discover_topology(), nthreads,
                            Placement::kCloseFirst);
    }
    impl_->pool = std::make_unique<ThreadPool>(nthreads, plan);
  }
}

index_t SpmmRunner::nrows() const {
  return std::visit([](const auto& m) { return m.nrows(); },
                    impl_->matrix);
}

index_t SpmmRunner::ncols() const {
  return std::visit([](const auto& m) { return m.ncols(); },
                    impl_->matrix);
}

usize_t SpmmRunner::matrix_bytes() const {
  return std::visit([](const auto& m) { return m.bytes(); },
                    impl_->matrix);
}

void SpmmRunner::run(const Vector& X, Vector& Y) {
  SPC_CHECK_MSG(X.size() == static_cast<usize_t>(ncols()) * k_,
                "X has wrong dimension");
  SPC_CHECK_MSG(Y.size() == static_cast<usize_t>(nrows()) * k_,
                "Y has wrong dimension");
  const value_t* const xp = X.data();
  value_t* const yp = Y.data();
  const auto run_range = [&](index_t r0, index_t r1) {
    if (const auto* csr = std::get_if<Csr>(&impl_->matrix)) {
      spmm_csr_range(*csr, xp, yp, k_, r0, r1);
    } else {
      spmm_csr_vi_range(std::get<CsrVi>(impl_->matrix), xp, yp, k_, r0,
                        r1);
    }
  };
  if (impl_->nthreads == 1) {
    run_range(0, nrows());
    return;
  }
  impl_->pool->run([&](std::size_t th) {
    run_range(impl_->partition.row_begin(th),
              impl_->partition.row_end(th));
  });
}

}  // namespace spc
