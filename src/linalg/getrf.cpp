#include "linalg/getrf.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>

#include "linalg/blas.hpp"
#include "linalg/residual.hpp"

namespace conflux::linalg {

namespace {
void swap_rows(MatrixView a, int r0, int r1) {
  if (r0 == r1) return;
  auto x = a.row(r0);
  auto y = a.row(r1);
  for (int j = 0; j < a.cols(); ++j) std::swap(x[j], y[j]);
}
}  // namespace

FactorStatus getrf_unblocked(MatrixView a, std::span<int> ipiv) {
  const int m = a.rows(), n = a.cols();
  const int kmax = std::min(m, n);
  CONFLUX_EXPECTS(static_cast<int>(ipiv.size()) >= kmax);
  FactorStatus status = FactorStatus::Ok;

  for (int k = 0; k < kmax; ++k) {
    // Pivot search in column k, rows k..m.
    int piv = k;
    double best = std::abs(a(k, k));
    for (int i = k + 1; i < m; ++i) {
      const double v = std::abs(a(i, k));
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    ipiv[k] = piv;
    swap_rows(a, k, piv);

    const double akk = a(k, k);
    if (akk == 0.0) {
      status = FactorStatus::Singular;
      continue;  // LAPACK keeps going; the column below stays as-is.
    }
    const double inv = 1.0 / akk;
    for (int i = k + 1; i < m; ++i) a(i, k) *= inv;
    // Rank-1 trailing update.
    for (int i = k + 1; i < m; ++i) {
      const double lik = a(i, k);
      if (lik == 0.0) continue;
      auto ai = a.row(i);
      auto ak = a.row(k);
      for (int j = k + 1; j < n; ++j) ai[j] -= lik * ak[j];
    }
  }
  return status;
}

FactorStatus getrf_blocked(MatrixView a, std::span<int> ipiv, int nb) {
  const int m = a.rows(), n = a.cols();
  const int kmax = std::min(m, n);
  CONFLUX_EXPECTS(nb >= 1);
  CONFLUX_EXPECTS(static_cast<int>(ipiv.size()) >= kmax);
  FactorStatus status = FactorStatus::Ok;

  for (int k0 = 0; k0 < kmax; k0 += nb) {
    const int kb = std::min(nb, kmax - k0);
    // Factor the panel a[k0:m, k0:k0+kb].
    auto panel = a.block(k0, k0, m - k0, kb);
    std::vector<int> piv_local(kb);
    if (getrf_unblocked(panel, piv_local) == FactorStatus::Singular)
      status = FactorStatus::Singular;

    // Record pivots in global row indices and apply the swaps to the rest of
    // the matrix (left of the panel and right of it).
    for (int k = 0; k < kb; ++k) {
      const int piv = piv_local[k] + k0;
      ipiv[k0 + k] = piv;
      if (piv != k0 + k) {
        if (k0 > 0)
          swap_rows(a.block(0, 0, m, k0), k0 + k, piv);
        if (k0 + kb < n)
          swap_rows(a.block(0, k0 + kb, m, n - (k0 + kb)), k0 + k, piv);
      }
    }

    if (k0 + kb < n) {
      // U block row: solve L00 * U01 = A01.
      auto l00 = a.block(k0, k0, kb, kb);
      auto a01 = a.block(k0, k0 + kb, kb, n - (k0 + kb));
      trsm_left(Triangle::Lower, Diag::Unit, l00, a01);
      // Trailing update A11 -= L10 * U01.
      if (k0 + kb < m) {
        auto l10 = a.block(k0 + kb, k0, m - (k0 + kb), kb);
        auto a11 = a.block(k0 + kb, k0 + kb, m - (k0 + kb), n - (k0 + kb));
        schur_update(a11, l10, a01);
      }
    }
  }
  return status;
}

void apply_pivots(MatrixView a, std::span<const int> ipiv) {
  for (std::size_t k = 0; k < ipiv.size(); ++k)
    swap_rows(a, static_cast<int>(k), ipiv[k]);
}

std::vector<int> pivots_to_permutation(std::span<const int> ipiv, int m) {
  std::vector<int> perm(static_cast<std::size_t>(m));
  std::iota(perm.begin(), perm.end(), 0);
  for (std::size_t k = 0; k < ipiv.size(); ++k)
    std::swap(perm[k], perm[static_cast<std::size_t>(ipiv[k])]);
  return perm;
}

Matrix extract_lower_unit(ConstMatrixView lu) {
  const int m = lu.rows();
  const int n = std::min(lu.rows(), lu.cols());
  Matrix l(m, n);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      if (j < i)
        l(i, j) = lu(i, j);
      else if (j == i)
        l(i, j) = 1.0;
    }
  return l;
}

Matrix extract_upper(ConstMatrixView lu) {
  const int n = std::min(lu.rows(), lu.cols());
  const int cols = lu.cols();
  Matrix u(n, cols);
  for (int i = 0; i < n; ++i)
    for (int j = i; j < cols; ++j) u(i, j) = lu(i, j);
  return u;
}

double lu_residual(const Matrix& original, ConstMatrixView factored,
                   std::span<const int> ipiv) {
  const int m = original.rows(), n = original.cols();
  CONFLUX_EXPECTS(factored.rows() == m && factored.cols() == n);

  const std::vector<int> perm = pivots_to_permutation(ipiv, m);
  const Matrix l = extract_lower_unit(factored);
  const Matrix u = extract_upper(factored);
  const double err = triangular_product_error(l.view(), u.view(),
                                              original.view(), perm,
                                              ProductEntries::All);

  const double scale = std::max(1.0, max_abs(original.view())) * std::max(1, n);
  return err / scale;
}

double growth_factor(const Matrix& original, ConstMatrixView factored) {
  const double a = max_abs(original.view());
  if (a == 0.0) return 0.0;
  // max |U| straight from the factored view's upper triangle.
  double u = 0.0;
  for (int i = 0; i < std::min(factored.rows(), factored.cols()); ++i)
    for (double x : factored.row(i).subspan(static_cast<std::size_t>(i)))
      u = std::max(u, std::abs(x));
  return u / a;
}

}  // namespace conflux::linalg
