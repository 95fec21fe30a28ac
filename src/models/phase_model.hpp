/// \file phase_model.hpp
/// Per-phase communication-volume predictions for the 2.5D LU engine
/// (COnfLUX and CALU), the analytic counterpart of ConfScope's measured
/// per-phase byte attribution. Where cost_model.hpp predicts one total per
/// implementation, this model splits the prediction along the same span
/// names the instrumented engine uses (support/telemetry.hpp), by summing
/// the engine's exact per-step message sizes on the grid and block size the
/// implementation itself would pick:
///
///   layer_reduction   steps 1 + 5 (cross-layer panel reductions)
///   panel_tournament  step 2 (butterfly or reduction-tree pivoting)
///   pivot_apply       step 3 (pivots to all ranks, A00 to its readers)
///   trsm              steps 4/7/9 — local compute, zero wire bytes
///   schur_update      steps 8 + 10 (layer-sliced panel multicasts)
///
/// The only approximation is the per-owner row split (assumed even, which
/// the hash-spread synthetic pivots guarantee to within one tile); every
/// other term replays the schedule's size arithmetic exactly, so measured
/// dry-run volumes land well inside the benchmarks' 1.1x model band.
#pragma once

#include <string>
#include <vector>

namespace conflux::models {

/// Predicted bytes on the wire (summed over ranks, self-sends excluded —
/// the fabric's accounting convention) for one phase.
struct PhaseVolume {
  std::string phase;  ///< telemetry span name
  double bytes = 0;
};

/// Predicted critical-path time (seconds) for one phase under the LogGP
/// clock the virtual-time fabric charges (simnet/vtime.hpp).
struct PhaseTime {
  std::string phase;  ///< telemetry span name
  double seconds = 0;
};

/// True for the algorithms predict_lu_phases covers ("COnfLUX", "CALU").
[[nodiscard]] bool has_phase_model(const std::string& algo);

/// Per-phase predicted volume of `algo` on N x N over P ranks with the
/// paper's default memory rule (M = N^2 / P^(2/3)). Entries appear in
/// engine step order; phases with zero predicted wire bytes (trsm) are
/// included so the measured/model table stays aligned with the spans.
[[nodiscard]] std::vector<PhaseVolume> predict_lu_phases(
    const std::string& algo, int n, int p);

/// Per-phase times under the virtual-time fabric's LogGP charging rules:
/// a send of k bytes costs the *sender* k*beta and lands alpha later;
/// receives are free (clock = max); multicasts serialize at the sender,
/// one injection per recipient; self-sends are free. Where
/// predict_lu_phases replays the schedule's *size* arithmetic, this
/// replays its *timing*: one clock per rank, advanced message-by-message
/// in the engine's program order (panel reduction, tournament rounds, the
/// binomial pivot and A00 broadcasts, the lazy A01 reduction, the
/// layer-sliced multicasts). The only approximation is the even pivot-row split, so
/// the prediction tracks a virtual-time dry run's measured makespan
/// (FactorResult::predicted_seconds) to within a few percent — the tests
/// hold it to 10%.
///
/// Each entry reports how far the global clock frontier advances while
/// that phase's messages land; entries sum to the predicted makespan, and
/// a phase whose traffic hides entirely behind a concurrent chain
/// contributes zero.
[[nodiscard]] std::vector<PhaseTime> predict_lu_phase_times(
    const std::string& algo, int n, int p, double alpha_s,
    double beta_s_per_byte);

/// Sum of predict_lu_phase_times — the predicted wall clock, comparable to
/// FactorResult::predicted_seconds from a virtual-time run.
[[nodiscard]] double predict_lu_makespan(const std::string& algo, int n,
                                         int p, double alpha_s,
                                         double beta_s_per_byte);

}  // namespace conflux::models
