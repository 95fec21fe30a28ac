#include "linalg/residual.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "linalg/blas.hpp"
#include "support/assert.hpp"

namespace conflux::linalg {

namespace {
/// Block size of the product. Wider blocks feed the GEMM deeper panels and
/// more rows per call; narrower ones multiply fewer zeros inside the
/// diagonal blocks (about b / n of the triangle-only flops).
constexpr int kProductBlock = 256;
}  // namespace

double triangular_product_error(ConstMatrixView l, ConstMatrixView u,
                                ConstMatrixView a,
                                std::span<const int> a_rows,
                                ProductEntries entries) {
  const int m = l.rows(), r = l.cols(), n = u.cols();
  CONFLUX_EXPECTS(u.rows() == r && r == std::min(m, n));
  CONFLUX_EXPECTS(a.rows() == m && a.cols() == n);
  CONFLUX_EXPECTS(a_rows.empty() || static_cast<int>(a_rows.size()) == m);
  CONFLUX_EXPECTS(entries == ProductEntries::All || m == n);

  Matrix prod(m, n);
  if (entries == ProductEntries::All) {
    // Rank-b updates of the trailing square: k-block [k0, k0 + b) touches
    // only rows and columns >= k0.
    for (int k0 = 0; k0 < r; k0 += kProductBlock) {
      const int kb = std::min(kProductBlock, r - k0);
      gemm(1.0, l.block(k0, k0, m - k0, kb), u.block(k0, k0, kb, n - k0),
           1.0, prod.block(k0, k0, m - k0, n - k0));
    }
  } else {
    // One block column at a time, from its diagonal block down: its
    // entries (i, j) with i >= j need only the terms p <= j < j0 + b.
    for (int j0 = 0; j0 < n; j0 += kProductBlock) {
      const int jb = std::min(kProductBlock, n - j0);
      const int kd = std::min(r, j0 + jb);
      gemm(1.0, l.block(j0, 0, m - j0, kd), u.block(0, j0, kd, jb), 0.0,
           prod.block(j0, j0, m - j0, jb));
    }
  }

  double err = 0.0;
  for (int i = 0; i < m; ++i) {
    const int src = a_rows.empty() ? i : a_rows[static_cast<std::size_t>(i)];
    auto want = a.row(src);
    auto got = prod.row(i);
    const int jend = entries == ProductEntries::All ? n : i + 1;
    for (int j = 0; j < jend; ++j)
      err = std::max(err, std::abs(want[static_cast<std::size_t>(j)] -
                                   got[static_cast<std::size_t>(j)]));
  }
  return err;
}

}  // namespace conflux::linalg
