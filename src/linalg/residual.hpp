/// \file residual.hpp
/// The factor product behind every residual check (LU's P*A = L*U, with
/// the permutation as explicit rows or LAPACK ipiv, and Cholesky's
/// A = L*L^T): L * U formed from the triangles alone and compared with A.
///
/// A dense n x n x n product spends two thirds of its flops on structural
/// zeros (L(i, p) = 0 for p > i, U(p, j) = 0 for p > j), and five sixths
/// when only the lower half is compared. Here the full product is built
/// from rank-b updates of the trailing square (k-block [k0, k0 + b) of
/// L * U is nonzero only in rows and columns >= k0), and the lower half one
/// block column at a time, from the diagonal block down and only over the
/// terms that column's entries can reach. Every skipped product has a
/// structural-zero factor (the b x b diagonal blocks are still multiplied
/// whole), so each compared entry is the full sum over its nonzero terms,
/// through the active GEMM.
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace conflux::linalg {

/// Which entries of L * U a residual compares with A.
enum class ProductEntries { All, Lower };

/// max |(L * U)(i, j) - A(a_rows[i], j)| over the compared entries:
/// all of them, or those with i >= j. L is m x r and U r x n; entries of L
/// above and of U below the diagonal must be zero (those outside the
/// diagonal blocks are never read). A is m x n; Lower needs m == n.
/// `a_rows` maps product rows to rows of A (the row permutation); empty
/// means the identity.
[[nodiscard]] double triangular_product_error(ConstMatrixView l,
                                              ConstMatrixView u,
                                              ConstMatrixView a,
                                              std::span<const int> a_rows,
                                              ProductEntries entries);

}  // namespace conflux::linalg
