/// \file cost_model.hpp
/// Analytic communication-volume models for the four LU implementations of
/// Table 2. Each model maps a problem instance (N, P, M) to the predicted
/// communication volume; the benchmark harness prints these next to the
/// simulator's measured volumes exactly as the paper prints
/// "measured/modeled (prediction %)".
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace conflux::models {

/// A problem instance. `m_elements` is the per-rank fast-memory budget in
/// matrix elements (the paper's M); it controls the replication factor
/// c = P*M/N^2 available to 2.5D algorithms.
struct Instance {
  double n = 0;           ///< matrix dimension N
  double p = 0;           ///< number of ranks P
  double m_elements = 0;  ///< per-rank memory budget M (elements)
};

/// The paper's memory rule for its scaling experiments (Fig. 6 caption):
/// "enough memory M >= N^2/P^(2/3) was present to allow the maximum number
/// of replications c = P^(1/3)".
[[nodiscard]] Instance max_replication_instance(double n, double p);

/// Interface for per-implementation volume models.
class CostModel {
 public:
  virtual ~CostModel() = default;

  /// Implementation name as used in tables ("LibSci", "SLATE", "CANDMC",
  /// "COnfLUX").
  [[nodiscard]] virtual std::string name() const = 0;

  /// Predicted *elements* communicated per rank, leading plus lower-order
  /// terms.
  [[nodiscard]] virtual double elements_per_rank(const Instance& inst) const = 0;

  /// Leading-order term only (the solid lines in Fig. 6a).
  [[nodiscard]] virtual double leading_elements_per_rank(
      const Instance& inst) const = 0;

  /// Predicted total bytes over all ranks (8 B elements — the Table 2 GB
  /// numbers).
  [[nodiscard]] double total_bytes(const Instance& inst) const {
    return elements_per_rank(inst) * inst.p * 8.0;
  }
  /// Predicted per-rank bytes.
  [[nodiscard]] double bytes_per_rank(const Instance& inst) const {
    return elements_per_rank(inst) * 8.0;
  }
};

/// Cray LibSci / ScaLAPACK: 2D block-cyclic, partial pivoting, greedy
/// divisor grid over all ranks. Leading cost N^2/sqrt(P) per rank.
class LibSciModel final : public CostModel {
 public:
  [[nodiscard]] std::string name() const override { return "LibSci"; }
  [[nodiscard]] double elements_per_rank(const Instance& inst) const override;
  [[nodiscard]] double leading_elements_per_rank(
      const Instance& inst) const override;
};

/// SLATE: same 2D decomposition with a near-square grid chooser (may idle a
/// few ranks). Leading cost N^2/sqrt(P) per rank.
class SlateModel final : public CostModel {
 public:
  [[nodiscard]] std::string name() const override { return "SLATE"; }
  [[nodiscard]] double elements_per_rank(const Instance& inst) const override;
  [[nodiscard]] double leading_elements_per_rank(
      const Instance& inst) const override;
};

/// CANDMC: the authors' published cost model [56] — 5 N^3/(P sqrt M) leading
/// term (asymptotically optimal, constant 5x above COnfLUX).
class CandmcModel final : public CostModel {
 public:
  [[nodiscard]] std::string name() const override { return "CANDMC"; }
  [[nodiscard]] double elements_per_rank(const Instance& inst) const override;
  [[nodiscard]] double leading_elements_per_rank(
      const Instance& inst) const override;
};

/// COnfLUX: N^3/(P sqrt M) leading term plus the lazy-reduction and scatter
/// lower-order terms of Lemma 10, evaluated on the grid the implementation
/// itself would pick. The step-3 tail counts A00 and the pivot indices
/// going to every rank (N v + N elements per rank), although the engine
/// sends A00 only to the row leaders and aggregators that read it; see
/// ConfluxModel::elements_per_rank for why.
class ConfluxModel final : public CostModel {
 public:
  [[nodiscard]] std::string name() const override { return "COnfLUX"; }
  [[nodiscard]] double elements_per_rank(const Instance& inst) const override;
  [[nodiscard]] double leading_elements_per_rank(
      const Instance& inst) const override;
};

/// CALU on the shared 2.5D engine: identical leading term and lower-order
/// tails to COnfLUX except the step-2 tournament, where the binary
/// reduction tree sends Px - 1 candidate blocks per panel instead of the
/// butterfly's ~Px log2(Px). Kept out of standard_models() — Table 2 and
/// the Fig. 6 reproductions compare exactly the paper's four
/// implementations; CALU is the ablation extra.
class CaluModel final : public CostModel {
 public:
  [[nodiscard]] std::string name() const override { return "CALU"; }
  [[nodiscard]] double elements_per_rank(const Instance& inst) const override;
  [[nodiscard]] double leading_elements_per_rank(
      const Instance& inst) const override;
};

/// The I/O lower bound of §6: 2N^3/(3 P sqrt M) + N^2/(2P) elements.
[[nodiscard]] double lu_lower_bound_elements_per_rank(const Instance& inst);

/// All four models in Table 2 order (LibSci, SLATE, CANDMC, COnfLUX).
[[nodiscard]] std::vector<std::unique_ptr<CostModel>> standard_models();

// --- Cholesky family (journal extension, arXiv:2108.09337) ----------------

/// COnfCHOX: N^3/(P sqrt M) leading term (same layer-sliced multicasts as
/// COnfLUX) plus the halved lazy-reduction tail and the L00 broadcast to
/// the Px panel leaders (N v Px / active elements per rank), evaluated on
/// the grid the implementation itself would pick.
class ConfchoxModel final : public CostModel {
 public:
  [[nodiscard]] std::string name() const override { return "COnfCHOX"; }
  [[nodiscard]] double elements_per_rank(const Instance& inst) const override;
  [[nodiscard]] double leading_elements_per_rank(
      const Instance& inst) const override;
};

/// ScaLAPACK-style 2D Cholesky (pdpotrf): L-panel and transposed-panel
/// broadcasts on the greedy all-ranks grid. Leading cost N^2/sqrt(P) per
/// rank — no replication, so COnfCHOX undercuts it whenever c > 1 fits in
/// memory.
class Scalapack2DCholModel final : public CostModel {
 public:
  [[nodiscard]] std::string name() const override { return "ScaLAPACK"; }
  [[nodiscard]] double elements_per_rank(const Instance& inst) const override;
  [[nodiscard]] double leading_elements_per_rank(
      const Instance& inst) const override;
};

/// The Cholesky I/O lower bound (daap/kernels.hpp closed form, per rank):
/// N^3/(3 P sqrt M) + N(N-1)/(2P) elements.
[[nodiscard]] double cholesky_lower_bound_elements_per_rank(
    const Instance& inst);

/// Both Cholesky models, baseline first (ScaLAPACK, COnfCHOX).
[[nodiscard]] std::vector<std::unique_ptr<CostModel>> cholesky_models();

}  // namespace conflux::models
