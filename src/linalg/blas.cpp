#include "linalg/blas.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "support/env.hpp"
#include "support/thread_pool.hpp"

namespace conflux::linalg {

// ---------------------------------------------------------------------------
// Implementation switch.
// ---------------------------------------------------------------------------

namespace {

BlasImpl initial_impl() {
  const std::string value = env_string("CONFLUX_BLAS", "optimized");
  if (value == "reference") return BlasImpl::Reference;
  if (value != "optimized")
    std::cerr << "conflux: unknown CONFLUX_BLAS value '" << value
              << "' (expected 'reference' or 'optimized'); using optimized\n";
  return BlasImpl::Optimized;
}

std::atomic<BlasImpl>& impl_slot() {
  static std::atomic<BlasImpl> impl{initial_impl()};
  return impl;
}

}  // namespace

BlasImpl blas_impl() { return impl_slot().load(std::memory_order_relaxed); }

void set_blas_impl(BlasImpl impl) {
  impl_slot().store(impl, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Reference kernels (the original clarity-first loops).
// ---------------------------------------------------------------------------

namespace {
/// Cache-blocking factor for the k dimension of the reference GEMM.
constexpr int kRefBlock = 64;

/// How a GEMM core addresses C: entry (i, j) is row_base(i)[col_offset(j)].
/// The dense MatrixView is the plain-strided case; ScatteredView is the
/// other one. The cores only ever accumulate into C (beta = 1).
struct StridedC {
  double* data;
  std::ptrdiff_t ld;
  [[nodiscard]] double* row_base(int i) const { return data + i * ld; }
  [[nodiscard]] static std::ptrdiff_t col_offset(int j) { return j; }
};

StridedC strided(MatrixView c) { return {c.data(), c.ld()}; }

/// C := beta * C (beta = 0 overwrites, so C may hold garbage).
void scale_rows(double beta, MatrixView c) {
  if (beta == 1.0) return;
  for (int i = 0; i < c.rows(); ++i) {
    auto ci = c.row(i);
    if (beta == 0.0)
      std::fill(ci.begin(), ci.end(), 0.0);
    else
      for (double& x : ci) x *= beta;
  }
}

/// C += alpha * A * B. i-k-j loop with k blocking: B rows are walked
/// contiguously and, for strided C, the inner j loop vectorizes.
template <class CAddr>
void reference_core(double alpha, ConstMatrixView a, ConstMatrixView b,
                    CAddr c) {
  const int m = a.rows(), n = b.cols(), k = a.cols();
  if (alpha == 0.0 || k == 0) return;
  for (int kk = 0; kk < k; kk += kRefBlock) {
    const int kend = std::min(k, kk + kRefBlock);
    for (int i = 0; i < m; ++i) {
      double* ci = c.row_base(i);
      for (int p = kk; p < kend; ++p) {
        const double aip = alpha * a(i, p);
        if (aip == 0.0) continue;
        auto bp = b.row(p);
        for (int j = 0; j < n; ++j) ci[c.col_offset(j)] += aip * bp[j];
      }
    }
  }
}

}  // namespace

void gemm_reference(double alpha, ConstMatrixView a, ConstMatrixView b,
                    double beta, MatrixView c) {
  CONFLUX_EXPECTS(a.rows() == c.rows() && b.rows() == a.cols() &&
                  b.cols() == c.cols());
  scale_rows(beta, c);
  reference_core(alpha, a, b, strided(c));
}

void gemm_reference(double alpha, ConstMatrixView a, ConstMatrixView b,
                    ScatteredView c) {
  CONFLUX_EXPECTS(a.rows() == c.rows() && b.rows() == a.cols() &&
                  b.cols() == c.cols());
  reference_core(alpha, a, b, c);
}

void trsm_left_reference(Triangle tri, Diag diag, ConstMatrixView a,
                         MatrixView b) {
  const int m = b.rows(), n = b.cols();
  CONFLUX_EXPECTS(a.rows() == m && a.cols() == m);
  if (tri == Triangle::Lower) {
    // Forward substitution: X(i,:) = (B(i,:) - sum_{p<i} A(i,p) X(p,:)) / A(i,i)
    for (int i = 0; i < m; ++i) {
      auto bi = b.row(i);
      for (int p = 0; p < i; ++p) {
        const double aip = a(i, p);
        if (aip == 0.0) continue;
        auto bp = b.row(p);
        for (int j = 0; j < n; ++j) bi[j] -= aip * bp[j];
      }
      if (diag == Diag::NonUnit) {
        const double inv = 1.0 / a(i, i);
        for (int j = 0; j < n; ++j) bi[j] *= inv;
      }
    }
  } else {
    // Backward substitution.
    for (int i = m - 1; i >= 0; --i) {
      auto bi = b.row(i);
      for (int p = i + 1; p < m; ++p) {
        const double aip = a(i, p);
        if (aip == 0.0) continue;
        auto bp = b.row(p);
        for (int j = 0; j < n; ++j) bi[j] -= aip * bp[j];
      }
      if (diag == Diag::NonUnit) {
        const double inv = 1.0 / a(i, i);
        for (int j = 0; j < n; ++j) bi[j] *= inv;
      }
    }
  }
}

void trsm_right_reference(Triangle tri, Diag diag, ConstMatrixView a,
                          MatrixView b) {
  const int m = b.rows(), n = b.cols();
  CONFLUX_EXPECTS(a.rows() == n && a.cols() == n);
  if (tri == Triangle::Upper) {
    // X * U = B: column-by-column forward sweep, row-major friendly.
    for (int i = 0; i < m; ++i) {
      auto bi = b.row(i);
      for (int j = 0; j < n; ++j) {
        double x = bi[j];
        for (int p = 0; p < j; ++p) x -= bi[p] * a(p, j);
        bi[j] = (diag == Diag::NonUnit) ? x / a(j, j) : x;
      }
    }
  } else {
    // X * L = B: backward sweep over columns.
    for (int i = 0; i < m; ++i) {
      auto bi = b.row(i);
      for (int j = n - 1; j >= 0; --j) {
        double x = bi[j];
        for (int p = j + 1; p < n; ++p) x -= bi[p] * a(p, j);
        bi[j] = (diag == Diag::NonUnit) ? x / a(j, j) : x;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Optimized GEMM: BLIS-style blocking. B is packed once per k-panel into
// NR-wide micro-panels; each thread packs its own MC x KC block of A into
// MR-wide micro-panels and drives an MR x NR register-tiled microkernel.
// Row blocks of C are independent, so the MC loop runs on the thread pool.
//
// Each C entry's sum has one fixed order, whatever the tile shape: per
// k-panel of KC terms, an accumulator starts at 0 and takes the panel's
// terms in order, one multiply-add each (one FMA on FMA builds, where GCC
// contracts a * b + c by default); then c += alpha * acc, once per panel.
// MR, NR and MC only choose which entries are computed together, so
// changing them leaves every result bit-identical.
// ---------------------------------------------------------------------------

namespace {

// The register tile follows the vector ISA, from one kernel source: MR
// rows by two vectors. Its accumulators stay in registers across the k
// loop, beside the two B vectors and one broadcast A value:
//  - AVX-512: 8 x 16, 16 of the 32 zmm registers accumulate; enough
//    independent FMA chains to hide the FMA latency on two ports.
//  - AVX2 and baseline: 6 x 8, 12 of the 16 ymm registers accumulate
//    (baseline builds split each ymm-sized vector into two xmm halves).
#if defined(__AVX512F__)
constexpr int kVecBytes = 64;
constexpr int kMR = 8;  ///< microkernel rows (C register tile height)
#else
constexpr int kVecBytes = 32;
constexpr int kMR = 6;  ///< microkernel rows (C register tile height)
#endif
/// kLanes doubles; arithmetic between a double and a Vec broadcasts the
/// double. GCC vector types alias their element type, so the microkernel
/// may load as Vecs the packed B panels pack_b wrote as doubles.
using Vec = double __attribute__((vector_size(kVecBytes)));
constexpr int kLanes = kVecBytes / static_cast<int>(sizeof(double));
constexpr int kNV = 2;             ///< vectors per tile row
constexpr int kNR = kNV * kLanes;  ///< microkernel cols
/// Rows of A packed per thread block: a whole number of MR tiles near 128.
constexpr int kMC = 128 / kMR * kMR;
constexpr int kKC = 1024;  ///< k-panel depth

/// Problems at or below this flop count skip packing entirely; the
/// reference loop is faster once the whole working set fits in L1/L2.
constexpr long long kSmallGemmFlops = 2LL * 48 * 48 * 48;

/// Pack a mc x kc block of A (row-major view) into MR-tall micro-panels:
/// panel i holds columns p as contiguous groups pa[p*MR + ir], zero-padded
/// past mc.
void pack_a(ConstMatrixView a, int i0, int k0, int mc, int kc, double* pa) {
  for (int ip = 0; ip < mc; ip += kMR) {
    const int mr = std::min(kMR, mc - ip);
    for (int p = 0; p < kc; ++p) {
      for (int ir = 0; ir < mr; ++ir) pa[p * kMR + ir] = a(i0 + ip + ir, k0 + p);
      for (int ir = mr; ir < kMR; ++ir) pa[p * kMR + ir] = 0.0;
    }
    pa += static_cast<std::ptrdiff_t>(kc) * kMR;
  }
}

/// Pack a kc x n panel of B into NR-wide micro-panels, zero-padded past n.
void pack_b(ConstMatrixView b, int k0, int kc, int n, double* pb) {
  for (int jp = 0; jp < n; jp += kNR) {
    const int nr = std::min(kNR, n - jp);
    for (int p = 0; p < kc; ++p) {
      const double* bp = &b(k0 + p, jp);
      for (int jr = 0; jr < nr; ++jr) pb[p * kNR + jr] = bp[jr];
      for (int jr = nr; jr < kNR; ++jr) pb[p * kNR + jr] = 0.0;
    }
    pb += static_cast<std::ptrdiff_t>(kc) * kNR;
  }
}

/// tile[ir][jr] = sum_p pa[p*MR+ir] * pb[p*NR+jr], from zero and in p
/// order. The accumulators live in registers for the whole k loop and are
/// stored once at the end.
void micro_kernel(int kc, const double* pa, const Vec* pb,
                  double tile[kMR][kNR]) {
  Vec acc[kMR][kNV] = {};
  for (int p = 0; p < kc; ++p) {
    const Vec* bp = pb + static_cast<std::ptrdiff_t>(p) * kNV;
    const double* ap = pa + static_cast<std::ptrdiff_t>(p) * kMR;
    for (int ir = 0; ir < kMR; ++ir)
      for (int v = 0; v < kNV; ++v) acc[ir][v] += ap[ir] * bp[v];
  }
  for (int ir = 0; ir < kMR; ++ir)
    for (int v = 0; v < kNV; ++v)
      std::memcpy(&tile[ir][v * kLanes], &acc[ir][v], sizeof(Vec));
}

/// C += alpha * A * B through the packed, register-tiled loop nest. Each C
/// entry is read and written once per k-panel, whatever its address.
template <class CAddr>
void optimized_core(double alpha, ConstMatrixView a, ConstMatrixView b,
                    CAddr c) {
  const int m = a.rows(), n = b.cols(), k = a.cols();
  if (alpha == 0.0 || k == 0) return;

  // Packed B starts on a vector boundary inside a plain double buffer. An
  // over-aligned allocation (std::vector<Vec>) raised the numeric
  // benchmark's peak RSS by 13 MB.
  const int n_panels = (n + kNR - 1) / kNR;
  const int max_kc = std::min(kKC, k);
  const std::size_t b_count =
      static_cast<std::size_t>(n_panels) * max_kc * kNR;
  std::vector<double> b_store(b_count + kLanes);
  void* b_base = b_store.data();
  std::size_t b_space = b_store.size() * sizeof(double);
  auto* packed_b = static_cast<double*>(
      std::align(sizeof(Vec), b_count * sizeof(double), b_base, b_space));

  for (int k0 = 0; k0 < k; k0 += kKC) {
    const int kc = std::min(kKC, k - k0);
    pack_b(b, k0, kc, n, packed_b);

    const int i_blocks = (m + kMC - 1) / kMC;
    support::parallel_for(0, i_blocks, [&](int ib) {
      const int i0 = ib * kMC;
      const int mc = std::min(kMC, m - i0);
      // Per-call pack buffer; the block is at most MC x KC doubles = 1 MiB.
      std::vector<double> packed_a(
          static_cast<std::size_t>((mc + kMR - 1) / kMR) * kc * kMR);
      pack_a(a, i0, k0, mc, kc, packed_a.data());

      for (int jp = 0; jp < n; jp += kNR) {
        const int nr = std::min(kNR, n - jp);
        const auto* pb = reinterpret_cast<const Vec*>(
            packed_b + static_cast<std::ptrdiff_t>(jp / kNR) * kc * kNR);
        for (int ip = 0; ip < mc; ip += kMR) {
          const int mr = std::min(kMR, mc - ip);
          const double* pa =
              packed_a.data() + static_cast<std::ptrdiff_t>(ip / kMR) * kc * kMR;
          double tile[kMR][kNR];
          micro_kernel(kc, pa, pb, tile);
          for (int ir = 0; ir < mr; ++ir) {
            double* ci = c.row_base(i0 + ip + ir);
            for (int jr = 0; jr < nr; ++jr)
              ci[c.col_offset(jp + jr)] += alpha * tile[ir][jr];
          }
        }
      }
    });
  }
}

}  // namespace

void gemm_optimized(double alpha, ConstMatrixView a, ConstMatrixView b,
                    double beta, MatrixView c) {
  const int m = c.rows(), n = c.cols(), k = a.cols();
  CONFLUX_EXPECTS(a.rows() == m && b.rows() == k && b.cols() == n);

  const long long flops = 2LL * m * n * k;
  if (flops <= kSmallGemmFlops) {
    gemm_reference(alpha, a, b, beta, c);
    return;
  }

  if (beta != 1.0) {
    support::parallel_for(0, m, [&](int i) {
      auto ci = c.row(i);
      if (beta == 0.0)
        std::fill(ci.begin(), ci.end(), 0.0);
      else
        for (double& x : ci) x *= beta;
    });
  }
  optimized_core(alpha, a, b, strided(c));
}

/// Scattered C always takes the packed path, whatever the size: the
/// reference loop would read and write each scattered C entry once per
/// product term, the packed one once per k-panel. Forming each panel's sum
/// before it meets C also makes c += (-1) * acc round exactly like a GEMM
/// into a zeroed temporary followed by c -= temporary.
void gemm_optimized(double alpha, ConstMatrixView a, ConstMatrixView b,
                    ScatteredView c) {
  CONFLUX_EXPECTS(a.rows() == c.rows() && b.rows() == a.cols() &&
                  b.cols() == c.cols());
  optimized_core(alpha, a, b, c);
}

// ---------------------------------------------------------------------------
// Optimized TRSM: blocked so that all O(m n b) update flops flow through the
// optimized GEMM; only the small diagonal-block solves run the reference
// substitution loops.
// ---------------------------------------------------------------------------

namespace {

constexpr int kTrsmBlock = 64;  ///< diagonal block size

/// TRSM problems below this size gain nothing from blocking.
bool trsm_is_small(int tri_dim, int other_dim) {
  return static_cast<long long>(tri_dim) * tri_dim * other_dim <=
         64LL * 64 * 64;
}

}  // namespace

void trsm_left_optimized(Triangle tri, Diag diag, ConstMatrixView a,
                         MatrixView b) {
  const int m = b.rows(), n = b.cols();
  CONFLUX_EXPECTS(a.rows() == m && a.cols() == m);
  if (trsm_is_small(m, n)) {
    trsm_left_reference(tri, diag, a, b);
    return;
  }
  if (tri == Triangle::Lower) {
    // Forward: solve the diagonal block, then push it into the trailing rows
    // with a GEMM update.
    for (int d0 = 0; d0 < m; d0 += kTrsmBlock) {
      const int d = std::min(kTrsmBlock, m - d0);
      trsm_left_reference(tri, diag, a.block(d0, d0, d, d), b.block(d0, 0, d, n));
      const int rest = m - d0 - d;
      if (rest > 0)
        gemm_optimized(-1.0, a.block(d0 + d, d0, rest, d), b.block(d0, 0, d, n),
                       1.0, b.block(d0 + d, 0, rest, n));
    }
  } else {
    // Backward: last block first, updates flow upward.
    for (int d0 = ((m - 1) / kTrsmBlock) * kTrsmBlock; d0 >= 0;
         d0 -= kTrsmBlock) {
      const int d = std::min(kTrsmBlock, m - d0);
      trsm_left_reference(tri, diag, a.block(d0, d0, d, d), b.block(d0, 0, d, n));
      if (d0 > 0)
        gemm_optimized(-1.0, a.block(0, d0, d0, d), b.block(d0, 0, d, n), 1.0,
                       b.block(0, 0, d0, n));
    }
  }
}

void trsm_right_optimized(Triangle tri, Diag diag, ConstMatrixView a,
                          MatrixView b) {
  const int m = b.rows(), n = b.cols();
  CONFLUX_EXPECTS(a.rows() == n && a.cols() == n);
  if (trsm_is_small(n, m)) {
    trsm_right_reference(tri, diag, a, b);
    return;
  }
  if (tri == Triangle::Upper) {
    // Forward over column blocks: X_d := B_d U_dd^{-1}, then
    // B_{>d} -= X_d U_{d,>d}.
    for (int d0 = 0; d0 < n; d0 += kTrsmBlock) {
      const int d = std::min(kTrsmBlock, n - d0);
      trsm_right_reference(tri, diag, a.block(d0, d0, d, d),
                           b.block(0, d0, m, d));
      const int rest = n - d0 - d;
      if (rest > 0)
        gemm_optimized(-1.0, b.block(0, d0, m, d), a.block(d0, d0 + d, d, rest),
                       1.0, b.block(0, d0 + d, m, rest));
    }
  } else {
    // Backward over column blocks: X_d := B_d L_dd^{-1}, then
    // B_{<d} -= X_d L_{d,<d}.
    for (int d0 = ((n - 1) / kTrsmBlock) * kTrsmBlock; d0 >= 0;
         d0 -= kTrsmBlock) {
      const int d = std::min(kTrsmBlock, n - d0);
      trsm_right_reference(tri, diag, a.block(d0, d0, d, d),
                           b.block(0, d0, m, d));
      if (d0 > 0)
        gemm_optimized(-1.0, b.block(0, d0, m, d), a.block(d0, 0, d, d0), 1.0,
                       b.block(0, 0, m, d0));
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatching entry points.
// ---------------------------------------------------------------------------

void gemm(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
          MatrixView c) {
  if (blas_impl() == BlasImpl::Optimized)
    gemm_optimized(alpha, a, b, beta, c);
  else
    gemm_reference(alpha, a, b, beta, c);
}

void gemm(double alpha, ConstMatrixView a, ConstMatrixView b,
          ScatteredView c) {
  if (blas_impl() == BlasImpl::Optimized)
    gemm_optimized(alpha, a, b, c);
  else
    gemm_reference(alpha, a, b, c);
}

void schur_update(MatrixView c, ConstMatrixView a, ConstMatrixView b) {
  gemm(-1.0, a, b, 1.0, c);
}

void trsm_left(Triangle tri, Diag diag, ConstMatrixView a, MatrixView b) {
  if (blas_impl() == BlasImpl::Optimized)
    trsm_left_optimized(tri, diag, a, b);
  else
    trsm_left_reference(tri, diag, a, b);
}

void trsm_right(Triangle tri, Diag diag, ConstMatrixView a, MatrixView b) {
  if (blas_impl() == BlasImpl::Optimized)
    trsm_right_optimized(tri, diag, a, b);
  else
    trsm_right_reference(tri, diag, a, b);
}

}  // namespace conflux::linalg
