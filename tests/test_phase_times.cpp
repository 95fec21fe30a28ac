// LogGP phase-time model vs the virtual-time fabric: the analytic
// predict_lu_phase_times walks the same per-step schedule the engine runs,
// so at the validated sizes below its makespan must land within 10% of the
// fabric's measured critical path (FactorResult::predicted_seconds).
#include <gtest/gtest.h>

#include <cmath>
#include <iostream>

#include "lu/lu_common.hpp"
#include "models/machines.hpp"
#include "models/phase_model.hpp"

namespace conflux {
namespace {

lu::LuResult virtual_dry_run(const std::string& algo, int n, int p,
                             const models::Machine& m) {
  lu::LuConfig cfg;
  cfg.n = n;
  cfg.p = p;
  cfg.mode = factor::Mode::DryRun;
  cfg.fabric.mode = simnet::ExecMode::VirtualTime;
  cfg.fabric.link.alpha_s = m.alpha_s;
  cfg.fabric.link.beta_s_per_byte = m.beta_s_per_byte;
  cfg.fabric.link.gamma_s_per_flop = m.gamma_s_per_flop;
  return lu::make_algorithm(algo)->run(nullptr, cfg);
}

class ModelVsFabric
    : public ::testing::TestWithParam<std::tuple<const char*, int, int>> {};

TEST_P(ModelVsFabric, MakespanWithinTenPercent) {
  const auto [algo, n, p] = GetParam();
  const models::Machine m = models::piz_daint();
  const lu::LuResult run = virtual_dry_run(algo, n, p, m);
  ASSERT_GT(run.predicted_seconds, 0.0);
  const double model =
      models::predict_lu_makespan(algo, n, p, m.alpha_s, m.beta_s_per_byte);
  const double ratio = model / run.predicted_seconds;
  std::cout << algo << " n=" << n << " p=" << p << " fabric=_"
            << run.predicted_seconds << "s model=" << model
            << "s ratio=" << ratio << "\n";
  EXPECT_GT(ratio, 0.90) << algo << " n=" << n << " p=" << p;
  EXPECT_LT(ratio, 1.10) << algo << " n=" << n << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    ValidatedSizes, ModelVsFabric,
    ::testing::Values(std::make_tuple("COnfLUX", 256, 16),
                      std::make_tuple("COnfLUX", 256, 64),
                      std::make_tuple("COnfLUX", 512, 64),
                      std::make_tuple("CALU", 256, 16),
                      std::make_tuple("CALU", 512, 64)));

TEST(PhaseTimes, AlignWithPhaseVolumesAndSumToMakespan) {
  const models::Machine m = models::piz_daint();
  const auto times = models::predict_lu_phase_times("COnfLUX", 512, 64,
                                                    m.alpha_s,
                                                    m.beta_s_per_byte);
  const auto volumes = models::predict_lu_phases("COnfLUX", 512, 64);
  ASSERT_EQ(times.size(), volumes.size());
  double sum = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(times[i].phase, volumes[i].phase);
    // Time is critical-path attributed, so a phase can move bytes off the
    // critical path at zero charged time — but never the reverse.
    if (times[i].seconds > 0) {
      EXPECT_GT(volumes[i].bytes, 0) << times[i].phase;
    }
    sum += times[i].seconds;
  }
  EXPECT_DOUBLE_EQ(
      sum, models::predict_lu_makespan("COnfLUX", 512, 64, m.alpha_s,
                                       m.beta_s_per_byte));
}

TEST(PhaseTimes, LatencyAndBandwidthBothMatter) {
  // Every clock in the replay is a max over schedule paths of
  // (hops*alpha + bytes*beta), so the mixed makespan is bounded by the
  // pure-latency and pure-bandwidth runs: at least each alone, at most
  // their sum.
  const double mixed =
      models::predict_lu_makespan("COnfLUX", 256, 16, 1e-6, 1e-10);
  const double lat = models::predict_lu_makespan("COnfLUX", 256, 16, 1e-6, 0);
  const double bw = models::predict_lu_makespan("COnfLUX", 256, 16, 0, 1e-10);
  EXPECT_GT(lat, 0);
  EXPECT_GT(bw, 0);
  EXPECT_GE(mixed, std::max(lat, bw));
  EXPECT_LE(mixed, lat + bw);
}

}  // namespace
}  // namespace conflux
