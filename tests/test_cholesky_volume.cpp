// Communication-volume properties of the Cholesky family: the exact
// DryRun == Numeric invariant (no pivots -> fully deterministic schedule),
// the exact step-2 L00 volume and its recipients, the closed-form DAAP
// bound sandwich, the COnfCHOX < ScaLAPACK ordering
// for replication depths c > 1, model-vs-measured agreement, and the
// Cholesky < LU volume relation.
#include <gtest/gtest.h>

#include <cmath>

#include "cholesky/cholesky_common.hpp"
#include "daap/kernels.hpp"
#include "grid/grid3d.hpp"
#include "linalg/generate.hpp"
#include "lu/lu_common.hpp"
#include "models/cost_model.hpp"
#include "simnet/message.hpp"
#include "support/telemetry.hpp"

namespace conflux::cholesky {
namespace {

using linalg::generate;
using linalg::Matrix;
using linalg::MatrixKind;

CholResult run_mode(const std::string& algo, int n, int p, Mode mode,
                    const Matrix* a = nullptr, int force_layers = 0) {
  CholConfig cfg;
  cfg.n = n;
  cfg.p = p;
  cfg.mode = mode;
  cfg.force_layers = force_layers;
  return make_cholesky_algorithm(algo)->run(a, cfg);
}

class DryEqualsNumeric
    : public ::testing::TestWithParam<std::tuple<const char*, int, int>> {};

TEST_P(DryEqualsNumeric, VolumeIsBitIdentical) {
  // With no pivoting the schedule depends on nothing but (n, p): the ghost
  // replay must reproduce the numeric volume exactly, not within a band.
  const auto [algo, n, p] = GetParam();
  const Matrix a = generate(n, MatrixKind::Spd, 91);
  const CholResult numeric = run_mode(algo, n, p, Mode::Numeric, &a);
  const CholResult dry = run_mode(algo, n, p, Mode::DryRun);
  EXPECT_EQ(dry.total.bytes_sent, numeric.total.bytes_sent);
  EXPECT_EQ(dry.total.bytes_received, numeric.total.bytes_received);
  EXPECT_EQ(dry.total.messages_sent, numeric.total.messages_sent);
  EXPECT_EQ(dry.max_rank_bytes, numeric.max_rank_bytes);
  EXPECT_EQ(dry.ranks_used, numeric.ranks_used);
  EXPECT_EQ(dry.block, numeric.block);
  EXPECT_EQ(dry.grid, numeric.grid);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DryEqualsNumeric,
    ::testing::Values(std::make_tuple("COnfCHOX", 128, 8),
                      std::make_tuple("COnfCHOX", 192, 12),
                      std::make_tuple("COnfCHOX", 128, 16),
                      std::make_tuple("ScaLAPACK", 128, 8),
                      std::make_tuple("ScaLAPACK", 192, 9)));

// Step 2 sends L00 (v x v, 8 B per entry) only to the Px panel leaders
// (px, py_c, l_star), the ranks whose step-3 solve reads it, so the
// panel_factor volume is exactly steps * (Px - 1) * 8v^2, and no other rank
// receives a step-2 message.
TEST(DiagonalBlock, PanelFactorVolumeIsExactAndReachesOnlyLeaders) {
  struct Case {
    int n, p, layers;
  };
  for (const Case cs : {Case{128, 8, 2}, Case{192, 18, 2},
                        Case{144, 27, 3}}) {
    const int front = cs.p / cs.layers;
    const int px = static_cast<int>(std::sqrt(static_cast<double>(front)));
    const grid::Grid3D g(px, front / px, cs.layers);
    const Matrix a = generate(cs.n, MatrixKind::Spd, 91);
    for (const Mode mode : {Mode::DryRun, Mode::Numeric}) {
      const bool numeric = mode == Mode::Numeric;
      const std::string where = "n=" + std::to_string(cs.n) + " p=" +
                                std::to_string(cs.p) +
                                (numeric ? " numeric" : " dry");
      telemetry::TelemetryBoard board;
      CholConfig cfg;
      cfg.n = cs.n;
      cfg.p = cs.p;
      cfg.force_layers = cs.layers;
      cfg.mode = mode;
      cfg.verify = false;
      cfg.telemetry = &board;
      const CholResult res = make_cholesky_algorithm("COnfCHOX")->run(
          numeric ? &a : nullptr, cfg);
      ASSERT_EQ(res.grid, g.to_string()) << where;

      const std::uint64_t v = static_cast<std::uint64_t>(res.block);
      const std::uint64_t steps = static_cast<std::uint64_t>(cs.n) / v;
      const std::uint64_t leaders_besides_root =
          static_cast<std::uint64_t>(g.px_extent() - 1);
      EXPECT_EQ(board.phase_totals().at(telemetry::kPanelFactor).bytes,
                steps * leaders_besides_root * 8 * v * v)
          << where;

      // The L00 tree's messages carry make_tag(3, t) shifted left 8 bits
      // by the broadcast's round tags.
      std::vector<std::uint64_t> l00_per_step(steps, 0);
      for (int r = 0; r < board.nranks(); ++r) {
        const grid::Coord3 me = g.coord_of(r);
        for (const telemetry::Event& e : board.rank_events(r)) {
          const simnet::Tag user = e.tag >> 8;
          if (e.kind != telemetry::EventKind::Recv ||
              (user >> (simnet::kTagStepBits + simnet::kTagSubBits)) != 3)
            continue;
          const int t = static_cast<int>((user >> simnet::kTagSubBits) &
                                         ((1u << simnet::kTagStepBits) - 1));
          EXPECT_EQ(e.bytes, 8 * v * v) << where << " rank " << r;
          EXPECT_TRUE(me.l == t % g.layers() && me.py == t % g.py_extent())
              << where << ": L00 of step " << t << " reached rank " << r;
          ++l00_per_step[static_cast<std::size_t>(t)];
        }
      }
      for (std::uint64_t t = 0; t < steps; ++t)
        EXPECT_EQ(l00_per_step[t], leaders_besides_root)
            << where << " step " << t;
    }
  }
}

TEST(DryRun, DeterministicAcrossRepeats) {
  const CholResult a = run_mode("COnfCHOX", 256, 16, Mode::DryRun);
  const CholResult b = run_mode("COnfCHOX", 256, 16, Mode::DryRun);
  EXPECT_EQ(a.total.bytes_sent, b.total.bytes_sent);
  EXPECT_EQ(a.total.messages_sent, b.total.messages_sent);
}

// ---- The acceptance sandwich: bound <= COnfCHOX < ScaLAPACK --------------

TEST(Bound, MeasuredWithinClosedFormDaapBand) {
  // Per-rank volume must sit above the Cholesky I/O lower bound and within
  // a small constant of it (COnfCHOX's multicasts pay ~3x the bound's
  // leading constant, as COnfLUX pays ~1.5x its LU bound).
  const int n = 2048;
  for (int p : {64, 256}) {
    const auto inst = models::max_replication_instance(n, p);
    const double bound_bytes =
        models::cholesky_lower_bound_elements_per_rank(inst) * p * 8.0;
    const double measured =
        run_mode("COnfCHOX", n, p, Mode::DryRun).total_bytes();
    EXPECT_GT(measured, bound_bytes) << "p=" << p;
    EXPECT_LT(measured, 6.0 * bound_bytes) << "p=" << p;
  }
}

TEST(Bound, ClosedFormAgreesWithGenericSolverScaling) {
  // The models-layer per-rank bound is the daap closed form divided by P.
  const auto inst = models::max_replication_instance(4096, 64);
  const double via_models =
      models::cholesky_lower_bound_elements_per_rank(inst);
  const double via_daap =
      daap::cholesky_bound_parallel(inst.n, inst.m_elements, inst.p);
  EXPECT_NEAR(via_models, via_daap, 1e-6 * via_daap);
}

TEST(Ordering, ConfchoxBeatsScalapackWithReplication) {
  // The acceptance criterion: strictly below the 2D baseline whenever the
  // memory budget allows c > 1.
  for (int p : {64, 256}) {
    const int n = 2048;
    const CholResult confchox = run_mode("COnfCHOX", n, p, Mode::DryRun);
    const CholResult scalapack = run_mode("ScaLAPACK", n, p, Mode::DryRun);
    // The max-replication memory rule gives COnfCHOX c = P^(1/3) > 1.
    EXPECT_EQ(confchox.grid.find("x 1]"), std::string::npos)
        << confchox.grid;
    EXPECT_LT(confchox.total_bytes(), scalapack.total_bytes()) << "p=" << p;
  }
}

TEST(Ordering, ReductionGrowsWithRanks) {
  const int n = 2048;
  double prev = 0;
  for (int p : {16, 64, 256}) {
    const double ours = run_mode("COnfCHOX", n, p, Mode::DryRun).total_bytes();
    const double theirs =
        run_mode("ScaLAPACK", n, p, Mode::DryRun).total_bytes();
    const double factor = theirs / ours;
    EXPECT_GT(factor, prev * 0.9) << "p=" << p;
    prev = factor;
  }
  EXPECT_GT(prev, 1.2);
}

TEST(Ordering, CholeskyMovesLessThanLu) {
  // Same machinery minus the tournament and the row-panel reduce: COnfCHOX
  // must communicate strictly less than COnfLUX on the same instance.
  const int n = 1024, p = 64;
  const double chol = run_mode("COnfCHOX", n, p, Mode::DryRun).total_bytes();
  lu::LuConfig cfg;
  cfg.n = n;
  cfg.p = p;
  cfg.mode = lu::Mode::DryRun;
  const double lu_bytes =
      lu::make_algorithm("COnfLUX")->run(nullptr, cfg).total_bytes();
  EXPECT_LT(chol, lu_bytes);
}

// ---- Ablations ------------------------------------------------------------

TEST(Ablation, ReplicationReducesVolume) {
  const double flat =
      run_mode("COnfCHOX", 2048, 64, Mode::DryRun, nullptr, 1).total_bytes();
  const double replicated =
      run_mode("COnfCHOX", 2048, 64, Mode::DryRun, nullptr, 4).total_bytes();
  EXPECT_LT(replicated, flat);
}

TEST(Ablation, OverReplicationBackfires) {
  const double at_opt =
      run_mode("COnfCHOX", 1024, 64, Mode::DryRun, nullptr, 4).total_bytes();
  const double too_deep =
      run_mode("COnfCHOX", 1024, 64, Mode::DryRun, nullptr, 32).total_bytes();
  EXPECT_GT(too_deep, at_opt);
}

// ---- Model agreement ------------------------------------------------------

TEST(Models, MeasuredWithinBandOfModel) {
  const int n = 2048;
  for (int p : {64, 256}) {
    const auto inst = models::max_replication_instance(n, p);
    for (const char* name : {"ScaLAPACK", "COnfCHOX"}) {
      const double measured =
          run_mode(name, n, p, Mode::DryRun).total_bytes();
      double modeled = 0;
      for (const auto& m : models::cholesky_models())
        if (m->name() == name) modeled = m->total_bytes(inst);
      EXPECT_GT(measured / modeled, 0.75) << name << " p=" << p;
      EXPECT_LT(measured / modeled, 1.25) << name << " p=" << p;
    }
  }
}

TEST(PerNode, MaxRankWithinFactorOfMean) {
  const CholResult res = run_mode("COnfCHOX", 1024, 64, Mode::DryRun);
  const double mean = 2.0 * res.total_bytes() / res.ranks_used;
  EXPECT_LT(static_cast<double>(res.max_rank_bytes), 6.0 * mean);
}

TEST(WeakScaling, TwoPointFiveDStaysFlat) {
  // With N = n0 * P^(1/3), per-node volume stays ~constant for COnfCHOX
  // and grows for the 2D baseline (the Cholesky analogue of Fig. 6b).
  const double ours_small =
      run_mode("COnfCHOX", 512, 8, Mode::DryRun).bytes_per_rank();
  const double ours_large =
      run_mode("COnfCHOX", 1024, 64, Mode::DryRun).bytes_per_rank();
  EXPECT_LT(ours_large / ours_small, 1.6);

  const double theirs_small =
      run_mode("ScaLAPACK", 512, 8, Mode::DryRun).bytes_per_rank();
  const double theirs_large =
      run_mode("ScaLAPACK", 1024, 64, Mode::DryRun).bytes_per_rank();
  EXPECT_GT(theirs_large / theirs_small, ours_large / ours_small);
}

}  // namespace
}  // namespace conflux::cholesky
