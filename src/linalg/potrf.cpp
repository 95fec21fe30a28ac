#include "linalg/potrf.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/residual.hpp"
#include "support/assert.hpp"

namespace conflux::linalg {

FactorStatus potrf_unblocked(MatrixView a) {
  const int n = a.rows();
  CONFLUX_EXPECTS(a.cols() == n);
  FactorStatus status = FactorStatus::Ok;
  for (int j = 0; j < n; ++j) {
    double d = a(j, j);
    for (int k = 0; k < j; ++k) d -= a(j, k) * a(j, k);
    if (!(d > 0.0) || !std::isfinite(d)) {
      status = FactorStatus::NotSpd;
      d = 1.0;  // keep the remaining columns finite
    }
    a(j, j) = std::sqrt(d);
    const double inv = 1.0 / a(j, j);
    for (int i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (int k = 0; k < j; ++k) s -= a(i, k) * a(j, k);
      a(i, j) = s * inv;
    }
  }
  return status;
}

void trsm_right_lower_transposed(ConstMatrixView l00, MatrixView b) {
  const int kb = l00.rows();
  CONFLUX_EXPECTS(l00.cols() == kb && b.cols() == kb);
  Matrix u00t(kb, kb);
  for (int i = 0; i < kb; ++i)
    for (int j = i; j < kb; ++j) u00t(i, j) = l00(j, i);
  trsm_right(Triangle::Upper, Diag::NonUnit, u00t.view(), b);
}

FactorStatus potrf_blocked(MatrixView a, int nb) {
  const int n = a.rows();
  CONFLUX_EXPECTS(a.cols() == n && nb >= 1);
  FactorStatus status = FactorStatus::Ok;

  for (int k0 = 0; k0 < n; k0 += nb) {
    const int kb = std::min(nb, n - k0);
    MatrixView a00 = a.block(k0, k0, kb, kb);
    if (potrf_unblocked(a00) != FactorStatus::Ok)
      status = FactorStatus::NotSpd;

    const int m = n - k0 - kb;
    if (m == 0) continue;

    MatrixView a10 = a.block(k0 + kb, k0, m, kb);
    trsm_right_lower_transposed(a00, a10);

    // Trailing update A11 -= L10 * L10^T, one block column at a time so
    // only the lower triangle (block granularity) is touched.
    Matrix l10t(kb, m);
    for (int i = 0; i < m; ++i)
      for (int k = 0; k < kb; ++k) l10t(k, i) = a10(i, k);
    for (int j0 = k0 + kb; j0 < n; j0 += nb) {
      const int jb = std::min(nb, n - j0);
      const int mrows = n - j0;
      schur_update(a.block(j0, j0, mrows, jb),
                   a.block(j0, k0, mrows, kb),
                   l10t.block(0, j0 - k0 - kb, kb, jb));
    }
  }
  return status;
}

Matrix extract_lower(ConstMatrixView llt) {
  const int n = llt.rows();
  CONFLUX_EXPECTS(llt.cols() == n);
  Matrix l(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j <= i; ++j) l(i, j) = llt(i, j);
  return l;
}

double cholesky_residual(const Matrix& original, ConstMatrixView factored) {
  const int n = original.rows();
  CONFLUX_EXPECTS(original.cols() == n && factored.rows() == n &&
                  factored.cols() == n);

  // L and L^T in one pass over the lower triangle, in square tiles so the
  // transposed writes stay within a few cache lines per row.
  constexpr int kTile = 64;
  Matrix l(n, n), lt(n, n);
  for (int i0 = 0; i0 < n; i0 += kTile)
    for (int j0 = 0; j0 <= i0; j0 += kTile)
      for (int i = i0; i < std::min(n, i0 + kTile); ++i)
        for (int j = j0; j < std::min(i + 1, j0 + kTile); ++j) {
          const double x = factored(i, j);
          l(i, j) = x;
          lt(j, i) = x;
        }
  const double err = triangular_product_error(l.view(), lt.view(),
                                              original.view(), {},
                                              ProductEntries::Lower);
  const double scale = std::max(1.0, max_abs(original.view())) * n;
  return err / scale;
}

}  // namespace conflux::linalg
