/// \file commcheck.hpp
/// CommCheck: the static communication-schedule verifier. Drives a dry run
/// of a registered (family, backend) with a TelemetryBoard attached (no
/// numeric flops execute — ghost messages carry byte counts only), lifts
/// the recorded streams into the CommGraph IR, and proves the schedule
/// clean with the passes.hpp analyses plus the buffer-ownership lint
/// collected through the message.hpp debug hooks.
///
/// This is the gate every future factorization family must pass: a backend
/// registered here is swept by tools/commcheck (and the commcheck CTest
/// suite / CI job) across (P, grid) configurations before any of its
/// figures count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "factor/factorization.hpp"
#include "verify/passes.hpp"

namespace conflux::verify {

/// A registered (family, backend) pair.
struct Backend {
  std::string family;  ///< "LU" or "Cholesky"
  std::string name;    ///< table name ("COnfLUX", "LibSci", ...)
};

/// Every registered backend, families in paper order.
[[nodiscard]] std::vector<Backend> registered_backends();

/// One schedule shape to verify.
struct CheckConfig {
  int n = 128;           ///< matrix dimension
  int p = 8;             ///< ranks
  int block = 0;         ///< 0 = the backend's auto-tuned block size
  int force_layers = 0;  ///< 2.5D replication depth (0 = auto)
  bool grid_optimization = true;
  std::uint64_t seed = 42;  ///< synthetic pivot seed (LU dry runs)
};

/// Result of verifying one (backend, config) pair.
struct CheckResult {
  Backend backend;
  CheckConfig config;
  factor::FactorResult run;          ///< the dry run's volume/grid report
  std::size_t events = 0;            ///< logged events analyzed
  std::vector<Diagnostic> diags;     ///< all findings, passes + ownership

  [[nodiscard]] bool ok() const { return !has_errors(diags); }
  /// "LU/COnfLUX n=128 p=8 ..." header for reports.
  [[nodiscard]] std::string describe() const;
};

/// Verify one backend under one configuration: dry run with a board attached,
/// graph build, all passes, volume cross-check against the run's CommVolume
/// stats and the family's I/O lower bound, ownership lint collection.
[[nodiscard]] CheckResult check_schedule(const Backend& backend,
                                         const CheckConfig& config);

/// The default sweep tools/commcheck --all runs: every registered backend
/// over the given P list crossed with replication depths {auto, 1, 2}
/// (grids beyond the backend's reach degrade gracefully to what it picks).
[[nodiscard]] std::vector<CheckResult> sweep(
    const std::vector<int>& p_list, const std::vector<int>& n_list);

}  // namespace conflux::verify
