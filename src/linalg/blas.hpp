/// \file blas.hpp
/// BLAS-3-style kernels on views: blocked GEMM and the four TRSM variants
/// used by blocked/distributed LU.
///
/// The GEMM addresses C in one of two ways, through one loop nest per
/// implementation: a dense MatrixView (row i at data + i * ld), or a
/// ScatteredView, where C(i, j) sits at a row base pointer plus a column
/// offset. The scattered form lets the 2.5D engines accumulate their Schur
/// updates straight into tiled rank storage, whose trailing rows have gaps
/// and whose rows are contiguous only within a tile. Reference and optimized
/// kernels agree on either form; the scattered form always accumulates
/// (beta = 1).
///
/// Two implementations live behind each entry point:
///  - reference: the original clarity-first single-threaded loops, kept as
///    the ground truth for testing;
///  - optimized: cache-blocked, packed, register-tiled kernels that run the
///    macro loops on the shared thread pool (src/support/thread_pool.hpp).
///    TRSM is blocked so its bulk flops run through the optimized GEMM.
///
/// The active implementation is a process-wide runtime switch: it defaults
/// to Optimized, can be forced with CONFLUX_BLAS=reference|optimized, and
/// can be flipped programmatically (tests pin both paths against each
/// other).
#pragma once

#include <cstddef>
#include <span>

#include "linalg/matrix.hpp"

namespace conflux::linalg {

/// Which kernel family the public entry points dispatch to.
enum class BlasImpl { Reference, Optimized };

/// Current implementation. Initialized once from CONFLUX_BLAS
/// ("reference"/"optimized", default optimized).
[[nodiscard]] BlasImpl blas_impl();

/// Override the implementation at runtime (tests, A/B benchmarks).
void set_blas_impl(BlasImpl impl);

/// An m x n GEMM output addressed entry by entry: C(i, j) is
/// rows[i][cols[j]]. Distinct (i, j) must name distinct doubles. Non-owning,
/// like MatrixView; both spans must outlive the view.
class ScatteredView {
 public:
  ScatteredView(std::span<double* const> rows,
                std::span<const std::ptrdiff_t> cols)
      : rows_(rows), cols_(cols) {}

  [[nodiscard]] int rows() const { return static_cast<int>(rows_.size()); }
  [[nodiscard]] int cols() const { return static_cast<int>(cols_.size()); }
  [[nodiscard]] double* row_base(int i) const {
    return rows_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] std::ptrdiff_t col_offset(int j) const {
    return cols_[static_cast<std::size_t>(j)];
  }

 private:
  std::span<double* const> rows_;
  std::span<const std::ptrdiff_t> cols_;
};

/// C := alpha * A * B + beta * C.
/// Shapes: A is m x k, B is k x n, C is m x n.
void gemm(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
          MatrixView c);

/// C += alpha * A * B with C addressed through a ScatteredView.
void gemm(double alpha, ConstMatrixView a, ConstMatrixView b,
          ScatteredView c);

/// C := C - A * B — the Schur-complement update used by every LU variant.
void schur_update(MatrixView c, ConstMatrixView a, ConstMatrixView b);

/// Triangle selector for TRSM.
enum class Triangle { Lower, Upper };
/// Unit-diagonal selector for TRSM.
enum class Diag { Unit, NonUnit };

/// Solve op(L/U) * X = B in place (X overwrites B), with the triangular
/// matrix applied from the left. `tri` is `a`'s triangle; entries of `a`
/// outside the triangle are ignored.
/// Shapes: a is m x m, b is m x n.
void trsm_left(Triangle tri, Diag diag, ConstMatrixView a, MatrixView b);

/// Solve X * op(L/U) = B in place (X overwrites B), triangular matrix applied
/// from the right. Shapes: a is n x n, b is m x n.
void trsm_right(Triangle tri, Diag diag, ConstMatrixView a, MatrixView b);

/// The reference kernels, always callable directly regardless of the active
/// switch — the test suite pins the optimized path against these.
void gemm_reference(double alpha, ConstMatrixView a, ConstMatrixView b,
                    double beta, MatrixView c);
void gemm_reference(double alpha, ConstMatrixView a, ConstMatrixView b,
                    ScatteredView c);
void trsm_left_reference(Triangle tri, Diag diag, ConstMatrixView a,
                         MatrixView b);
void trsm_right_reference(Triangle tri, Diag diag, ConstMatrixView a,
                          MatrixView b);

/// The optimized kernels, likewise directly callable (benchmarks).
void gemm_optimized(double alpha, ConstMatrixView a, ConstMatrixView b,
                    double beta, MatrixView c);
void gemm_optimized(double alpha, ConstMatrixView a, ConstMatrixView b,
                    ScatteredView c);
void trsm_left_optimized(Triangle tri, Diag diag, ConstMatrixView a,
                         MatrixView b);
void trsm_right_optimized(Triangle tri, Diag diag, ConstMatrixView a,
                          MatrixView b);

}  // namespace conflux::linalg
