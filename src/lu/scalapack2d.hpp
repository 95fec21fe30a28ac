/// \file scalapack2d.hpp
/// The 2D comparison targets of §8: a right-looking block-cyclic LU with
/// partial pivoting, the textbook ScaLAPACK pdgetrf schedule that both Cray
/// LibSci and SLATE implement (Table 2 classifies both as 2D with leading
/// cost N^2/sqrt(P) per rank). The two proxies differ exactly where the
/// real libraries differ for communication purposes:
///   - LibSci: greedy divisor grid over ALL ranks (1 x P at primes — the
///     outlier behaviour in Fig. 6a's inset), default block 64;
///   - SLATE: near-square grid that may idle a few ranks, default block 16.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "grid/block_cyclic.hpp"
#include "grid/grid3d.hpp"
#include "lu/lu_common.hpp"
#include "simnet/comm.hpp"

namespace conflux::telemetry {
class TelemetryBoard;
}

namespace conflux::lu {

/// One batch of pdlaswp's row interchange: the rows whose data moves from
/// process row `osrc` to process row `odst` in one step. A batch between
/// different owners travels as one message per process column.
struct OwnerPair {
  int osrc = 0;
  int odst = 0;
  std::vector<std::pair<int, int>> moves;  ///< (source row, destination row)
};

/// The owner pairs of one step's kb sequential row swaps: row k0 + i swaps
/// with row piv[i], for i in [0, kb). The swaps are first composed into a
/// permutation (pdlapiv semantics), so moves read original positions and
/// batch safely even when swap chains share rows. Pairs are ordered by
/// (osrc, odst) and include same-owner pairs; a pair's message tag uses
/// pair_id = index + 1. This is the only place the permutation -> owner-pair
/// logic lives: dry runs call it once per step on the host, numeric ranks
/// on their real pivots.
[[nodiscard]] std::vector<OwnerPair> swap_owner_pairs(
    std::span<const int> piv, int k0, const grid::BlockCyclic1D& rowmap);

/// Host-precomputed schedule of one dry-run step: the synthetic pivots and
/// their owner pairs, identical on every rank (and every CANDMC layer).
struct Scalapack2DDryStep {
  std::vector<int> piv;           ///< synthetic piv[k0 .. k0 + nb)
  std::vector<OwnerPair> pairs;   ///< swap_owner_pairs(piv, k0, rowmap)
};

/// The dry-run schedule of an n x n factorization in nb-wide steps over
/// `grid_rows` process rows, with synthetic pivots drawn from `seed`.
[[nodiscard]] std::vector<Scalapack2DDryStep> scalapack2d_dry_schedule(
    int n, int nb, int grid_rows, std::uint64_t seed);

/// Shared SPMD body so the CANDMC proxy can replicate it per layer.
/// `base_rank` maps the (pr, pc) grid onto global ranks
/// base_rank + pr + Pr * pc. In numeric mode, `gathered`/`ipiv_out` (when
/// non-null) receive the factored matrix and the pivot sequence via disjoint
/// out-of-band writes (result collection is not part of the measured
/// volume).
struct Scalapack2DParams {
  int n = 0;
  int nb = 0;
  grid::Grid2D g{1, 1};
  int base_rank = 0;
  bool numeric = true;
  const linalg::Matrix* a = nullptr;  ///< input (numeric mode)
  linalg::Matrix* gathered = nullptr;
  std::vector<int>* ipiv_out = nullptr;
  telemetry::TelemetryBoard* tel = nullptr;  ///< ConfScope spans (optional)
  /// Dry-run schedule, one entry per step (required when !numeric).
  const std::vector<Scalapack2DDryStep>* dry = nullptr;
};

void scalapack2d_body(simnet::Comm& comm, const Scalapack2DParams& params);

/// LibSci proxy (and, via `slate_mode`, the SLATE proxy).
class ScaLapack2D : public LuAlgorithm {
 public:
  explicit ScaLapack2D(bool slate_mode = false) : slate_(slate_mode) {}

  [[nodiscard]] std::string name() const override {
    return slate_ ? "SLATE" : "LibSci";
  }
  [[nodiscard]] LuResult run(const linalg::Matrix* a,
                             const LuConfig& cfg) override;

 private:
  bool slate_;
};

}  // namespace conflux::lu
