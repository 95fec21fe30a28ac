// Strength of the three residual checks (linalg::lu_residual,
// linalg::cholesky_residual, factor::masked_lu_residual), which form L * U
// from the triangles alone (linalg/residual.hpp): a correct factorization
// passes, one corrupted in-triangle factor entry anywhere fails it, and on
// random triangular factors the triangle-only product matches the dense
// GEMM product to rounding.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "factor/step_records.hpp"
#include "linalg/blas.hpp"
#include "linalg/generate.hpp"
#include "linalg/getrf.hpp"
#include "linalg/potrf.hpp"
#include "linalg/residual.hpp"

namespace conflux::linalg {
namespace {

constexpr int kN = 600;  // three blocks of the product, the last partial
constexpr double kPass = 1e-13;
constexpr double kFail = 1e-6;

/// A factor entry to corrupt: (row, col) inside its triangle.
struct Spot {
  const char* what;
  int i, j;
};

/// First block, last block row, a middle diagonal block's diagonal, and the
/// last pivot, which only the last k-block of the product reaches.
const std::vector<Spot> kLowerSpots = {{"first block", 3, 1},
                                       {"last block row", kN - 1, 2},
                                       {"diagonal block", kN / 2, kN / 2 - 1},
                                       {"last k-block", kN - 1, kN - 2}};
const std::vector<Spot> kUpperSpots = {{"first block", 1, 3},
                                       {"last block column", 2, kN - 1},
                                       {"diagonal block", kN / 2, kN / 2},
                                       {"last k-block", kN - 1, kN - 1}};

class BothBlas : public ::testing::TestWithParam<BlasImpl> {
 protected:
  void SetUp() override {
    saved_ = blas_impl();
    set_blas_impl(GetParam());
  }
  void TearDown() override { set_blas_impl(saved_); }

 private:
  BlasImpl saved_ = BlasImpl::Optimized;
};

TEST_P(BothBlas, LuResidualPassesAndCatchesOneCorruptEntry) {
  const Matrix a = generate(kN, MatrixKind::Uniform, 71);
  Matrix f = a;
  std::vector<int> ipiv(kN);
  ASSERT_EQ(getrf_blocked(f.view(), ipiv, 32), FactorStatus::Ok);
  EXPECT_LT(lu_residual(a, f.view(), ipiv), kPass);
  for (const auto& spots : {kLowerSpots, kUpperSpots})
    for (const Spot& s : spots) {
      Matrix bad = f;
      bad(s.i, s.j) += 1.0;
      EXPECT_GT(lu_residual(a, bad.view(), ipiv), kFail) << s.what;
    }
}

TEST_P(BothBlas, MaskedLuResidualPassesAndCatchesOneCorruptEntry) {
  const Matrix a = generate(kN, MatrixKind::Uniform, 72);
  Matrix packed = a;
  std::vector<int> ipiv(kN);
  ASSERT_EQ(getrf_blocked(packed.view(), ipiv, 32), FactorStatus::Ok);
  factor::AssembledFactors f;
  f.pivot_order = pivots_to_permutation(ipiv, kN);
  f.l = extract_lower_unit(packed.view());
  f.u = extract_upper(packed.view());
  EXPECT_LT(factor::masked_lu_residual(a, f), kPass);
  for (const Spot& s : kLowerSpots) {
    factor::AssembledFactors bad = f;
    bad.l(s.i, s.j) += 1.0;
    EXPECT_GT(factor::masked_lu_residual(a, bad), kFail) << "L " << s.what;
  }
  for (const Spot& s : kUpperSpots) {
    factor::AssembledFactors bad = f;
    bad.u(s.i, s.j) += 1.0;
    EXPECT_GT(factor::masked_lu_residual(a, bad), kFail) << "U " << s.what;
  }
}

TEST_P(BothBlas, CholeskyResidualPassesAndCatchesOneCorruptEntry) {
  const Matrix a = generate(kN, MatrixKind::Spd, 73);
  Matrix f = a;
  ASSERT_EQ(potrf_blocked(f.view(), 32), FactorStatus::Ok);
  EXPECT_LT(cholesky_residual(a, f.view()), kPass);
  std::vector<Spot> spots = kLowerSpots;
  spots.push_back({"last diagonal", kN - 1, kN - 1});
  for (const Spot& s : spots) {
    Matrix bad = f;
    bad(s.i, s.j) += 1.0;
    EXPECT_GT(cholesky_residual(a, bad.view()), kFail) << s.what;
  }
}

/// A random lower (zero above the diagonal) or upper (zero below) factor.
Matrix random_triangle(int rows, int cols, bool lower, std::uint64_t seed) {
  Matrix t = generate(rows, cols, MatrixKind::Uniform, seed);
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < cols; ++j)
      if (lower ? j > i : j < i) t(i, j) = 0.0;
  return t;
}

TEST_P(BothBlas, TriangleProductMatchesDenseGemm) {
  const double eps = std::numeric_limits<double>::epsilon();
  for (const auto& [m, n] : {std::make_tuple(kN, kN), std::make_tuple(1, 1),
                             std::make_tuple(130, 130),
                             std::make_tuple(290, 140),  // tall
                             std::make_tuple(140, 290)}) {  // wide
    const int r = std::min(m, n);
    const Matrix l = random_triangle(m, r, true, 74);
    const Matrix u = random_triangle(r, n, false, 75);
    Matrix dense(m, n);
    gemm(1.0, l.view(), u.view(), 0.0, dense.view());
    const double bound = r * eps * frobenius(l.view()) * frobenius(u.view());
    EXPECT_LE(triangular_product_error(l.view(), u.view(), dense.view(), {},
                                       ProductEntries::All),
              bound)
        << m << " x " << n;
    if (m != n) continue;
    // Lower: only i >= j is compared, so junk above the diagonal is ignored.
    Matrix junk = dense;
    for (int i = 0; i < m; ++i)
      for (int j = i + 1; j < n; ++j) junk(i, j) = 1e6;
    EXPECT_LE(triangular_product_error(l.view(), u.view(), junk.view(), {},
                                       ProductEntries::Lower),
              bound)
        << m << " x " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Blas, BothBlas,
                         ::testing::Values(BlasImpl::Reference,
                                           BlasImpl::Optimized),
                         [](const ::testing::TestParamInfo<BlasImpl>& info) {
                           return std::string(info.param ==
                                                      BlasImpl::Reference
                                                  ? "Reference"
                                                  : "Optimized");
                         });

}  // namespace
}  // namespace conflux::linalg
