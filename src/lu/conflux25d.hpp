/// \file conflux25d.hpp
/// COnfLUX — the paper's near-communication-optimal LU factorization
/// (Algorithm 1). 2.5D decomposition [Px, Py, c] with:
///   - lazy panel reduction: trailing-matrix updates accumulate as per-layer
///     partial sums; only the next panel's column/row strips are summed
///     across layers each step (steps 1 and 5),
///   - row-masking tournament pivoting: pivot rows are never swapped, only
///     their indices travel (step 2/3); step 3 sends the indices to every
///     rank and the diagonal block A00 only to the Px row leaders and the
///     Py - 1 other aggregators that read it (this engine's choice; see
///     docs/ARCHITECTURE.md),
///   - 1D panel layouts for the triangular solves (steps 4/6/7/9),
///   - layer-sliced panel multicast for the Schur update: each layer
///     receives only its v/c slice of A10 and A01 (steps 8/10).
/// Leading-order cost: N^3/(P sqrt M) elements per rank (Lemma 10), a factor
/// 1/3 above the lower bound of §6.
#pragma once

#include "lu/lu_common.hpp"

namespace conflux::lu {

class Conflux25D final : public LuAlgorithm {
 public:
  [[nodiscard]] std::string name() const override { return "COnfLUX"; }
  [[nodiscard]] LuResult run(const linalg::Matrix* a,
                             const LuConfig& cfg) override;
};

}  // namespace conflux::lu
