// Tests for the BLAS-3 kernels: GEMM against a naive reference, the four
// TRSM variants against explicit residuals, over parameterized shape sweeps,
// and the scattered-C GEMM against a dense product plus an explicit scatter.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/generate.hpp"

namespace conflux::linalg {
namespace {

Matrix naive_gemm(double alpha, const Matrix& a, const Matrix& b, double beta,
                  const Matrix& c) {
  Matrix out = c;
  for (int i = 0; i < c.rows(); ++i)
    for (int j = 0; j < c.cols(); ++j) {
      double sum = 0;
      for (int k = 0; k < a.cols(); ++k) sum += a(i, k) * b(k, j);
      out(i, j) = alpha * sum + beta * c(i, j);
    }
  return out;
}

class GemmShape
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShape, MatchesNaive) {
  const auto [m, n, k] = GetParam();
  const Matrix a = generate(m, k, MatrixKind::Uniform, 1);
  const Matrix b = generate(k, n, MatrixKind::Uniform, 2);
  Matrix c = generate(m, n, MatrixKind::Uniform, 3);
  const Matrix want = naive_gemm(1.5, a, b, -0.5, c);
  gemm(1.5, a.view(), b.view(), -0.5, c.view());
  EXPECT_LT(max_abs_diff(c.view(), want.view()), 1e-12 * k);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShape,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(5, 3, 7),
                      std::make_tuple(16, 16, 16), std::make_tuple(33, 1, 65),
                      std::make_tuple(64, 65, 63), std::make_tuple(1, 70, 70),
                      std::make_tuple(128, 17, 96)));

TEST(Gemm, BetaZeroOverwritesGarbage) {
  Matrix c(2, 2);
  c(0, 0) = std::numeric_limits<double>::quiet_NaN();
  const Matrix a = Matrix::identity(2);
  gemm(1.0, a.view(), a.view(), 0.0, c.view());
  EXPECT_EQ(c(0, 0), 1.0);
  EXPECT_EQ(c(0, 1), 0.0);
}

TEST(Gemm, AlphaZeroScalesOnly) {
  Matrix c(2, 2);
  c(1, 1) = 4.0;
  const Matrix a = generate(2, MatrixKind::Uniform, 1);
  gemm(0.0, a.view(), a.view(), 0.5, c.view());
  EXPECT_EQ(c(1, 1), 2.0);
}

TEST(Gemm, EmptyKIsPureScale) {
  Matrix a(3, 0), b(0, 3);
  Matrix c = Matrix::identity(3);
  gemm(1.0, a.view(), b.view(), 3.0, c.view());
  EXPECT_EQ(c(1, 1), 3.0);
}

TEST(Gemm, ShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 2), c(2, 2);  // a.cols != b.rows
  EXPECT_THROW(gemm(1.0, a.view(), b.view(), 0.0, c.view()),
               ContractViolation);
}

TEST(SchurUpdate, SubtractsProduct) {
  const Matrix a = generate(8, 4, MatrixKind::Uniform, 4);
  const Matrix b = generate(4, 8, MatrixKind::Uniform, 5);
  Matrix c = generate(8, 8, MatrixKind::Uniform, 6);
  const Matrix want = naive_gemm(-1.0, a, b, 1.0, c);
  schur_update(c.view(), a.view(), b.view());
  EXPECT_LT(max_abs_diff(c.view(), want.view()), 1e-13);
}

/// Build a well-conditioned triangular matrix.
Matrix triangular(int n, Triangle tri, Diag diag, std::uint64_t seed) {
  Matrix t = generate(n, MatrixKind::Uniform, seed);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      const bool keep = tri == Triangle::Lower ? j <= i : j >= i;
      if (!keep) t(i, j) = 0.0;
      if (i == j) t(i, j) = diag == Diag::Unit ? 1.0 : 2.0 + 0.1 * i;
    }
  return t;
}

class TrsmCase : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TrsmCase, LeftLowerSolves) {
  const auto [m, n] = GetParam();
  for (Diag diag : {Diag::Unit, Diag::NonUnit}) {
    const Matrix l = triangular(m, Triangle::Lower, diag, 11);
    const Matrix b = generate(m, n, MatrixKind::Uniform, 12);
    Matrix x = b;
    trsm_left(Triangle::Lower, diag, l.view(), x.view());
    Matrix lx(m, n);
    gemm(1.0, l.view(), x.view(), 0.0, lx.view());
    EXPECT_LT(max_abs_diff(lx.view(), b.view()), 1e-10) << "m=" << m;
  }
}

TEST_P(TrsmCase, LeftUpperSolves) {
  const auto [m, n] = GetParam();
  for (Diag diag : {Diag::Unit, Diag::NonUnit}) {
    const Matrix u = triangular(m, Triangle::Upper, diag, 13);
    const Matrix b = generate(m, n, MatrixKind::Uniform, 14);
    Matrix x = b;
    trsm_left(Triangle::Upper, diag, u.view(), x.view());
    Matrix ux(m, n);
    gemm(1.0, u.view(), x.view(), 0.0, ux.view());
    EXPECT_LT(max_abs_diff(ux.view(), b.view()), 1e-10);
  }
}

TEST_P(TrsmCase, RightUpperSolves) {
  const auto [m, n] = GetParam();
  for (Diag diag : {Diag::Unit, Diag::NonUnit}) {
    const Matrix u = triangular(n, Triangle::Upper, diag, 15);
    const Matrix b = generate(m, n, MatrixKind::Uniform, 16);
    Matrix x = b;
    trsm_right(Triangle::Upper, diag, u.view(), x.view());
    Matrix xu(m, n);
    gemm(1.0, x.view(), u.view(), 0.0, xu.view());
    EXPECT_LT(max_abs_diff(xu.view(), b.view()), 1e-10);
  }
}

TEST_P(TrsmCase, RightLowerSolves) {
  const auto [m, n] = GetParam();
  for (Diag diag : {Diag::Unit, Diag::NonUnit}) {
    const Matrix l = triangular(n, Triangle::Lower, diag, 17);
    const Matrix b = generate(m, n, MatrixKind::Uniform, 18);
    Matrix x = b;
    trsm_right(Triangle::Lower, diag, l.view(), x.view());
    Matrix xl(m, n);
    gemm(1.0, x.view(), l.view(), 0.0, xl.view());
    EXPECT_LT(max_abs_diff(xl.view(), b.view()), 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TrsmCase,
                         ::testing::Values(std::make_tuple(1, 1),
                                           std::make_tuple(4, 9),
                                           std::make_tuple(16, 16),
                                           std::make_tuple(31, 7),
                                           std::make_tuple(64, 33)));

// ---------------------------------------------------------------------------
// Optimized-vs-reference pins: the packed/tiled kernels must agree with the
// reference loops elementwise (up to summation-order rounding) on shapes that
// exercise the small fast path, the packed path, and every edge-padding case.
// ---------------------------------------------------------------------------

class OptimizedGemmShape
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(OptimizedGemmShape, MatchesReferenceElementwise) {
  const auto [m, n, k] = GetParam();
  for (const auto& [alpha, beta] :
       {std::make_tuple(1.0, 0.0), std::make_tuple(-1.0, 1.0),
        std::make_tuple(1.5, -0.5)}) {
    const Matrix a = generate(m, k, MatrixKind::Uniform, 21);
    const Matrix b = generate(k, n, MatrixKind::Uniform, 22);
    const Matrix c0 = generate(m, n, MatrixKind::Uniform, 23);
    Matrix c_ref = c0, c_opt = c0;
    gemm_reference(alpha, a.view(), b.view(), beta, c_ref.view());
    gemm_optimized(alpha, a.view(), b.view(), beta, c_opt.view());
    EXPECT_LT(max_abs_diff(c_ref.view(), c_opt.view()), 1e-12 * (k + 1))
        << "m=" << m << " n=" << n << " k=" << k << " alpha=" << alpha;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OptimizedGemmShape,
    ::testing::Values(std::make_tuple(1, 1, 1),       // degenerate
                      std::make_tuple(47, 31, 53),    // small fast path
                      std::make_tuple(96, 64, 256),   // exactly one k-panel
                      std::make_tuple(97, 65, 257),   // every edge padded
                      std::make_tuple(200, 120, 300),  // k spans two panels
                      std::make_tuple(130, 7, 512)));  // narrow C

class OptimizedTrsmShape
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OptimizedTrsmShape, AllVariantsMatchReference) {
  const auto [m, n] = GetParam();
  for (Triangle tri : {Triangle::Lower, Triangle::Upper}) {
    for (Diag diag : {Diag::Unit, Diag::NonUnit}) {
      {
        const Matrix a = triangular(m, tri, diag, 24);
        const Matrix b = generate(m, n, MatrixKind::Uniform, 25);
        Matrix x_ref = b, x_opt = b;
        trsm_left_reference(tri, diag, a.view(), x_ref.view());
        trsm_left_optimized(tri, diag, a.view(), x_opt.view());
        // Relative to the solution magnitude: random unit-triangular solves
        // grow exponentially in m, so an absolute tolerance cannot work.
        EXPECT_LT(max_abs_diff(x_ref.view(), x_opt.view()),
                  1e-13 * (1.0 + max_abs(x_ref.view())))
            << "left m=" << m << " n=" << n;
      }
      {
        const Matrix a = triangular(n, tri, diag, 26);
        const Matrix b = generate(m, n, MatrixKind::Uniform, 27);
        Matrix x_ref = b, x_opt = b;
        trsm_right_reference(tri, diag, a.view(), x_ref.view());
        trsm_right_optimized(tri, diag, a.view(), x_opt.view());
        EXPECT_LT(max_abs_diff(x_ref.view(), x_opt.view()),
                  1e-13 * (1.0 + max_abs(x_ref.view())))
            << "right m=" << m << " n=" << n;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, OptimizedTrsmShape,
                         ::testing::Values(std::make_tuple(3, 5),
                                           std::make_tuple(64, 64),
                                           std::make_tuple(129, 96),
                                           std::make_tuple(192, 200)));

TEST(BlasSwitch, DispatchFollowsRuntimeSelection) {
  const BlasImpl saved = blas_impl();
  const Matrix a = generate(96, 96, MatrixKind::Uniform, 28);
  const Matrix b = generate(96, 96, MatrixKind::Uniform, 29);

  Matrix c_ref(96, 96), c_via_switch(96, 96);
  gemm_reference(1.0, a.view(), b.view(), 0.0, c_ref.view());
  set_blas_impl(BlasImpl::Reference);
  gemm(1.0, a.view(), b.view(), 0.0, c_via_switch.view());
  // Same code path, so bitwise identical.
  EXPECT_EQ(max_abs_diff(c_ref.view(), c_via_switch.view()), 0.0);

  Matrix c_opt(96, 96), c_opt_via_switch(96, 96);
  gemm_optimized(1.0, a.view(), b.view(), 0.0, c_opt.view());
  set_blas_impl(BlasImpl::Optimized);
  gemm(1.0, a.view(), b.view(), 0.0, c_opt_via_switch.view());
  EXPECT_EQ(max_abs_diff(c_opt.view(), c_opt_via_switch.view()), 0.0);

  set_blas_impl(saved);
}

// ---------------------------------------------------------------------------
// Scattered C: C(i, j) = store[row_off[i] + col_off[j]]. Every mapped entry
// must equal its starting value plus alpha * (A * B)(i, j), the product taken
// from gemm_reference into a zeroed temporary and scattered by hand; every
// double of the store outside the map (gaps, other tiles, guard zones) must
// keep its sentinel bits.
// ---------------------------------------------------------------------------

struct ScatterMap {
  std::size_t store_size = 0;
  std::vector<std::ptrdiff_t> row_off, col_off;
};

/// C rows at stride `ld` with every third row skipped and columns at
/// every other double, offset into the store by a leading guard zone.
ScatterMap gapped_map(int m, int n) {
  ScatterMap map;
  const std::ptrdiff_t guard = 16, ld = 2 * n + 5;
  for (int i = 0, r = 0; i < m; ++r)
    if (r % 3 != 1) map.row_off.push_back(guard + r * ld), ++i;
  for (int j = 0; j < n; ++j) map.col_off.push_back(2 * j + 1);
  map.store_size = static_cast<std::size_t>(map.row_off.back() + ld + guard);
  return map;
}

/// The tiled storage of a 2.5D rank at (px, py) on a Px x Py grid: owned
/// v x v tiles packed [(It / Px) * ltc + Jt / Py] * v^2, row-major inside a
/// tile. C's rows are the owned rows at or past `first` that are not in
/// `pivoted`; its columns are the owned columns at or past `first`.
ScatterMap tile_map(int n, int v, int px_ext, int py_ext, int px, int py,
                    int first, const std::vector<int>& pivoted) {
  ScatterMap map;
  const int tiles = n / v;
  const int ltr = (tiles - px + px_ext - 1) / px_ext;
  const int ltc = (tiles - py + py_ext - 1) / py_ext;
  const std::ptrdiff_t tile = static_cast<std::ptrdiff_t>(v) * v;
  for (int r = first; r < n; ++r) {
    if ((r / v) % px_ext != px) continue;
    bool skip = false;
    for (int q : pivoted) skip = skip || q == r;
    if (skip) continue;
    map.row_off.push_back(((r / v) / px_ext) * ltc * tile + (r % v) * v);
  }
  for (int c = first; c < n; ++c)
    if ((c / v) % py_ext == py)
      map.col_off.push_back(((c / v) / py_ext) * tile + c % v);
  map.store_size = static_cast<std::size_t>(ltr * ltc * tile);
  return map;
}

void expect_scattered_gemm_matches(const ScatterMap& map, int k,
                                   double alpha) {
  const int m = static_cast<int>(map.row_off.size());
  const int n = static_cast<int>(map.col_off.size());
  const Matrix a = generate(m, k, MatrixKind::Uniform, 41);
  const Matrix b = generate(k, n, MatrixKind::Uniform, 42);
  Matrix prod(m, n);
  gemm_reference(1.0, a.view(), b.view(), 0.0, prod.view());

  const double sentinel = -12345.678;
  std::vector<double> start(map.store_size, sentinel);
  std::vector<std::uint8_t> mapped(map.store_size, 0);
  const Matrix c0 = generate(m, n, MatrixKind::Uniform, 43);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      const auto at = static_cast<std::size_t>(map.row_off[i] + map.col_off[j]);
      ASSERT_LT(at, map.store_size);
      ASSERT_EQ(mapped[at], 0) << "map aliases (" << i << ", " << j << ")";
      mapped[at] = 1;
      start[at] = c0(i, j);
    }

  const BlasImpl saved = blas_impl();
  for (BlasImpl impl : {BlasImpl::Reference, BlasImpl::Optimized}) {
    set_blas_impl(impl);
    std::vector<double> store = start;
    std::vector<double*> rows;
    for (std::ptrdiff_t off : map.row_off) rows.push_back(store.data() + off);
    gemm(alpha, a.view(), b.view(), ScatteredView(rows, map.col_off));

    const char* name = impl == BlasImpl::Reference ? "reference" : "optimized";
    double err = 0.0;
    for (int i = 0; i < m; ++i)
      for (int j = 0; j < n; ++j) {
        const auto at =
            static_cast<std::size_t>(map.row_off[i] + map.col_off[j]);
        const double want = c0(i, j) + alpha * prod(i, j);
        err = std::max(err, std::abs(store[at] - want));
      }
    EXPECT_LT(err, 1e-12 * (k + 1)) << name << " m=" << m << " n=" << n
                                    << " k=" << k;
    std::size_t touched = 0;
    for (std::size_t x = 0; x < store.size(); ++x)
      if (!mapped[x] && std::bit_cast<std::uint64_t>(store[x]) !=
                            std::bit_cast<std::uint64_t>(sentinel))
        ++touched;
    EXPECT_EQ(touched, 0u) << name << ": entries outside the map written";
  }
  set_blas_impl(saved);
}

class ScatteredGemmShape
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ScatteredGemmShape, MatchesDenseProductPlusScatter) {
  const auto [m, n, k] = GetParam();
  expect_scattered_gemm_matches(gapped_map(m, n), k, -1.0);
  expect_scattered_gemm_matches(gapped_map(m, n), k, 0.75);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ScatteredGemmShape,
    ::testing::Values(std::make_tuple(5, 3, 7),       // under the small-GEMM
                                                      // threshold
                      std::make_tuple(37, 29, 61),    // m, n off the 4 x 8 tile
                      std::make_tuple(131, 13, 70),   // two row blocks of 128
                      std::make_tuple(21, 19, 1100)));  // two k-panels

TEST(ScatteredGemm, TileLayoutWithPivotedRows) {
  // Rank (1, 0) of a 2 x 3 grid, v = 8, N = 96, after two steps: the 40
  // rows from 16 in its odd tile rows, less the six pivoted ones it owns
  // (row 17 is another rank's), and its 24 trailing columns from 16.
  const std::vector<int> pivoted = {17, 25, 30, 44, 47, 73, 92};
  const ScatterMap map = tile_map(96, 8, 2, 3, 1, 0, 16, pivoted);
  ASSERT_EQ(map.row_off.size(), 40u - 6u);
  ASSERT_EQ(map.col_off.size(), 24u);
  for (int k : {3, 8, 1030}) expect_scattered_gemm_matches(map, k, -1.0);
}

// The engines' Schur updates used to form A * B in a zeroed temporary and
// subtract it entry by entry. The optimized scattered path (always packed,
// one k-panel here) must give those exact bits: each panel's sum is formed
// before it meets C, and c + (-1) * acc rounds like c - (0 + acc). Shapes on
// both sides of the small-GEMM threshold, where the dense temporary takes
// the reference loop, and the tile layout.
TEST(ScatteredGemm, OptimizedMinusOneMatchesSubtractingAZeroedProduct) {
  std::vector<ScatterMap> maps = {gapped_map(5, 3), gapped_map(37, 29),
                                  gapped_map(131, 13)};
  maps.push_back(tile_map(96, 8, 2, 3, 1, 0, 16, {17, 25, 30, 44, 47}));
  for (const ScatterMap& map : maps)
    for (int k : {7, 48, 300}) {
      const int m = static_cast<int>(map.row_off.size());
      const int n = static_cast<int>(map.col_off.size());
      const Matrix a = generate(m, k, MatrixKind::Uniform, 44);
      const Matrix b = generate(k, n, MatrixKind::Uniform, 45);
      std::vector<double> start(map.store_size);
      for (std::size_t x = 0; x < start.size(); ++x)
        start[x] = 0.5 + 1e-3 * static_cast<double>(x % 97);

      std::vector<double> want = start;
      Matrix prod(m, n);
      gemm_optimized(1.0, a.view(), b.view(), 0.0, prod.view());
      for (int i = 0; i < m; ++i)
        for (int j = 0; j < n; ++j)
          want[static_cast<std::size_t>(map.row_off[i] + map.col_off[j])] -=
              prod(i, j);

      std::vector<double> got = start;
      std::vector<double*> rows;
      for (std::ptrdiff_t off : map.row_off) rows.push_back(got.data() + off);
      gemm_optimized(-1.0, a.view(), b.view(),
                     ScatteredView(rows, map.col_off));

      std::size_t differ = 0;
      for (std::size_t x = 0; x < got.size(); ++x)
        if (std::bit_cast<std::uint64_t>(got[x]) !=
            std::bit_cast<std::uint64_t>(want[x]))
          ++differ;
      EXPECT_EQ(differ, 0u) << "m=" << m << " n=" << n << " k=" << k;
    }
}

TEST(ScatteredGemm, ShapeMismatchThrows) {
  const Matrix a(3, 2), b(2, 4);
  std::vector<double> store(64);
  std::vector<double*> rows = {store.data(), store.data() + 8};
  const std::vector<std::ptrdiff_t> cols = {0, 1, 2, 3};
  EXPECT_THROW(gemm(-1.0, a.view(), b.view(), ScatteredView(rows, cols)),
               ContractViolation);
}

TEST(Trsm, IgnoresOppositeTriangleGarbage) {
  Matrix l = triangular(6, Triangle::Lower, Diag::NonUnit, 19);
  // Poison the strictly-upper part; the solve must not read it.
  for (int i = 0; i < 6; ++i)
    for (int j = i + 1; j < 6; ++j)
      l(i, j) = std::numeric_limits<double>::quiet_NaN();
  const Matrix b = generate(6, 3, MatrixKind::Uniform, 20);
  Matrix x = b;
  trsm_left(Triangle::Lower, Diag::NonUnit, l.view(), x.view());
  EXPECT_FALSE(std::isnan(x(5, 2)));
}

TEST(Trsm, ShapeMismatchThrows) {
  Matrix a(3, 3), b(4, 2);
  EXPECT_THROW(trsm_left(Triangle::Lower, Diag::Unit, a.view(), b.view()),
               ContractViolation);
  Matrix c(2, 4);
  EXPECT_THROW(trsm_right(Triangle::Upper, Diag::Unit, a.view(), c.view()),
               ContractViolation);
}

}  // namespace
}  // namespace conflux::linalg
