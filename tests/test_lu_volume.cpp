// Communication-volume properties: the dry-run == numeric invariant that
// licenses the figure-scale dry runs, the exact step-3 (pivots + A00)
// volume and its recipients, the paper's volume ordering at scale, the
// model-vs-measured agreement, and the §7.3 ablation claims.
#include <gtest/gtest.h>

#include <cmath>

#include "grid/grid3d.hpp"
#include "linalg/generate.hpp"
#include "lu/lu_common.hpp"
#include "models/cost_model.hpp"
#include "simnet/message.hpp"
#include "support/telemetry.hpp"

namespace conflux::lu {
namespace {

using linalg::generate;
using linalg::Matrix;
using linalg::MatrixKind;

LuResult run_mode(const std::string& algo, int n, int p, Mode mode,
                  const Matrix* a = nullptr) {
  LuConfig cfg;
  cfg.n = n;
  cfg.p = p;
  cfg.mode = mode;
  return make_algorithm(algo)->run(a, cfg);
}

class DryEqualsNumeric
    : public ::testing::TestWithParam<std::tuple<const char*, int, int>> {};

TEST_P(DryEqualsNumeric, TotalVolumeWithinTolerance) {
  const auto [algo, n, p] = GetParam();
  const Matrix a = generate(n, MatrixKind::Uniform, 71);
  const LuResult numeric = run_mode(algo, n, p, Mode::Numeric, &a);
  const LuResult dry = run_mode(algo, n, p, Mode::DryRun);
  // Message sizes depend only on index-set cardinalities; the residual
  // difference comes from where data-dependent pivots land (tile-row
  // occupancy, same-owner swap luck). A few percent is the expected band.
  const double ratio = dry.total_bytes() / numeric.total_bytes();
  EXPECT_GT(ratio, 0.93) << algo << " n=" << n << " p=" << p;
  EXPECT_LT(ratio, 1.07) << algo << " n=" << n << " p=" << p;
  EXPECT_EQ(dry.ranks_used, numeric.ranks_used);
  EXPECT_EQ(dry.block, numeric.block);
  EXPECT_EQ(dry.grid, numeric.grid);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DryEqualsNumeric,
    ::testing::Values(std::make_tuple("COnfLUX", 128, 8),
                      std::make_tuple("COnfLUX", 192, 12),
                      std::make_tuple("COnfLUX", 128, 16),
                      std::make_tuple("LibSci", 128, 8),
                      std::make_tuple("LibSci", 192, 9),
                      std::make_tuple("SLATE", 128, 8),
                      std::make_tuple("CANDMC", 128, 16)));

// Step 3 sends the v pivot indices (4 B each) to every other active rank,
// but the v x v A00 block (8 B per entry) only to the ranks that read it:
// the row leaders (px, py_c, l_star) and the aggregators (px_c, py, l_star),
// Px + Py - 1 ranks counting the root. The pivot_apply volume is therefore
// exact, steps * ((active - 1) 4v + (Px + Py - 2) 8v^2), in dry and numeric
// runs alike (it does not depend on where the pivots land).
TEST(DiagonalBlock, PivotApplyVolumeIsExactAndReachesOnlyReaders) {
  struct Case {
    int n, p, layers;
  };
  for (const char* algo : {"COnfLUX", "CALU"}) {
    for (const Case cs : {Case{128, 8, 2}, Case{192, 18, 2},
                          Case{144, 27, 3}}) {
      const int front = cs.p / cs.layers;
      const int px = static_cast<int>(std::sqrt(static_cast<double>(front)));
      const grid::Grid3D g(px, front / px, cs.layers);
      const Matrix a = generate(cs.n, MatrixKind::Uniform, 71);
      std::uint64_t measured[2] = {0, 0};
      for (const Mode mode : {Mode::DryRun, Mode::Numeric}) {
        const bool numeric = mode == Mode::Numeric;
        const std::string where = std::string(algo) + " n=" +
                                  std::to_string(cs.n) + " p=" +
                                  std::to_string(cs.p) +
                                  (numeric ? " numeric" : " dry");
        telemetry::TelemetryBoard board;
        LuConfig cfg;
        cfg.n = cs.n;
        cfg.p = cs.p;
        cfg.force_layers = cs.layers;
        cfg.mode = mode;
        cfg.verify = false;
        cfg.telemetry = &board;
        const LuResult res =
            make_algorithm(algo)->run(numeric ? &a : nullptr, cfg);
        ASSERT_EQ(res.grid, g.to_string()) << where;

        const std::uint64_t v = static_cast<std::uint64_t>(res.block);
        const std::uint64_t steps = static_cast<std::uint64_t>(cs.n) / v;
        const std::uint64_t active = static_cast<std::uint64_t>(g.active());
        const std::uint64_t readers_besides_root =
            static_cast<std::uint64_t>(g.px_extent() + g.py_extent() - 2);
        measured[numeric] =
            board.phase_totals().at(telemetry::kPivotApply).bytes;
        EXPECT_EQ(measured[numeric],
                  steps * ((active - 1) * 4 * v +
                           readers_besides_root * 8 * v * v))
            << where;

        // Every step-3 message carries a make_tag(3, t, sub) user tag,
        // shifted left 8 bits by the broadcast's round tags: sub 0 is the
        // pivot tree, sub 1 the A00 tree. Each non-root rank gets the
        // pivots once per step; A00 arrives once at each non-root reader
        // and nowhere else.
        std::vector<std::uint64_t> a00_per_step(steps, 0);
        for (int r = 0; r < board.nranks(); ++r) {
          const grid::Coord3 me = g.coord_of(r);
          std::uint64_t pivot_msgs = 0;
          for (const telemetry::Event& e : board.rank_events(r)) {
            const simnet::Tag user = e.tag >> 8;
            if (e.kind != telemetry::EventKind::Recv ||
                (user >> (simnet::kTagStepBits + simnet::kTagSubBits)) != 3)
              continue;
            const int t = static_cast<int>(
                (user >> simnet::kTagSubBits) &
                ((1u << simnet::kTagStepBits) - 1));
            if (e.bytes != 8 * v * v) {
              EXPECT_EQ(e.bytes, 4 * v) << where << " rank " << r;
              ++pivot_msgs;
              continue;
            }
            const int l_star = t % g.layers();
            const bool reader =
                me.l == l_star && (me.py == t % g.py_extent() ||
                                   me.px == t % g.px_extent());
            EXPECT_TRUE(reader)
                << where << ": A00 of step " << t << " reached rank " << r;
            ++a00_per_step[static_cast<std::size_t>(t)];
          }
          std::uint64_t rooted = 0;  // steps whose trees start at r
          for (std::uint64_t t = 0; t < steps; ++t)
            rooted += g.rank_of({0, static_cast<int>(t) % g.py_extent(),
                                 static_cast<int>(t) % g.layers()}) == r;
          EXPECT_EQ(pivot_msgs, steps - rooted) << where << " rank " << r;
        }
        for (std::uint64_t t = 0; t < steps; ++t)
          EXPECT_EQ(a00_per_step[t], readers_besides_root)
              << where << " step " << t;
      }
      // The pivots' placement changes the row splits, not step 3.
      EXPECT_EQ(measured[0], measured[1]) << algo << " p=" << cs.p;
    }
  }
}

TEST(DryRun, DeterministicAcrossRepeats) {
  const LuResult a = run_mode("COnfLUX", 256, 16, Mode::DryRun);
  const LuResult b = run_mode("COnfLUX", 256, 16, Mode::DryRun);
  EXPECT_EQ(a.total.bytes_sent, b.total.bytes_sent);
  EXPECT_EQ(a.total.messages_sent, b.total.messages_sent);
}

TEST(DryRun, SeedChangesScheduleNotScale) {
  LuConfig cfg;
  cfg.n = 256;
  cfg.p = 16;
  cfg.mode = Mode::DryRun;
  const LuResult a = make_algorithm("COnfLUX")->run(nullptr, cfg);
  cfg.seed = 777;
  const LuResult b = make_algorithm("COnfLUX")->run(nullptr, cfg);
  const double ratio = a.total_bytes() / b.total_bytes();
  EXPECT_GT(ratio, 0.97);
  EXPECT_LT(ratio, 1.03);
}

// The paper's headline ordering (Fig. 6a): at scale COnfLUX < 2D libraries
// < CANDMC (measured). Dry runs at a reduced but representative size.
TEST(Ordering, ConfluxWinsAtScale) {
  const int n = 2048, p = 64;
  const double conflux = run_mode("COnfLUX", n, p, Mode::DryRun).total_bytes();
  const double libsci = run_mode("LibSci", n, p, Mode::DryRun).total_bytes();
  const double slate = run_mode("SLATE", n, p, Mode::DryRun).total_bytes();
  const double candmc = run_mode("CANDMC", n, p, Mode::DryRun).total_bytes();
  EXPECT_LT(conflux, libsci);
  EXPECT_LT(conflux, slate);
  EXPECT_LT(conflux, candmc);
  EXPECT_GT(candmc, libsci);  // CANDMC worst at measured scales
  // 2D twins within a few percent of each other.
  EXPECT_NEAR(libsci / slate, 1.0, 0.1);
}

TEST(Ordering, ReductionGrowsWithRanks) {
  const int n = 2048;
  double prev = 0;
  for (int p : {16, 64, 256}) {
    const double conflux =
        run_mode("COnfLUX", n, p, Mode::DryRun).total_bytes();
    const double libsci = run_mode("LibSci", n, p, Mode::DryRun).total_bytes();
    const double factor = libsci / conflux;
    EXPECT_GT(factor, prev * 0.9) << "p=" << p;
    prev = factor;
  }
  EXPECT_GT(prev, 1.2);
}

TEST(Models, MeasuredWithinBandOfModel) {
  // Table 2 prints measured/modeled with ~100% agreement for COnfLUX and
  // the 2D libraries; our models should predict our simulator within 25%.
  const int n = 2048;
  for (int p : {64, 256}) {
    const auto inst = models::max_replication_instance(n, p);
    for (const char* name : {"LibSci", "SLATE", "COnfLUX"}) {
      const double measured =
          run_mode(name, n, p, Mode::DryRun).total_bytes();
      double modeled = 0;
      for (const auto& m : models::standard_models())
        if (m->name() == name) modeled = m->total_bytes(inst);
      EXPECT_GT(measured / modeled, 0.75) << name << " p=" << p;
      EXPECT_LT(measured / modeled, 1.25) << name << " p=" << p;
    }
  }
}

TEST(Models, LowerBoundBelowMeasuredConflux) {
  const int n = 2048, p = 64;
  const auto inst = models::max_replication_instance(n, p);
  const double bound_bytes =
      models::lu_lower_bound_elements_per_rank(inst) * p * 8.0;
  const double measured = run_mode("COnfLUX", n, p, Mode::DryRun).total_bytes();
  EXPECT_GT(measured, bound_bytes);
  EXPECT_LT(measured, 6.0 * bound_bytes);
}

// ---- Ablations (§7.3 design choices) -------------------------------------

TEST(Ablation, ReplicationReducesVolume) {
  // Lazy 2.5D replication (c > 1) must beat the same algorithm flattened to
  // c = 1 on the same rank budget.
  LuConfig cfg;
  cfg.n = 2048;
  cfg.p = 64;
  cfg.mode = Mode::DryRun;
  cfg.force_layers = 1;
  const double flat =
      make_algorithm("COnfLUX")->run(nullptr, cfg).total_bytes();
  cfg.force_layers = 4;
  const double replicated =
      make_algorithm("COnfLUX")->run(nullptr, cfg).total_bytes();
  EXPECT_LT(replicated, flat);
}

TEST(Ablation, OverReplicationBackfires) {
  // The reduce traffic ~ N^2 c eventually outweighs the multicast savings:
  // the c sweep is U-shaped (the basis of the 2.5D optimum c ~ P^(1/3)).
  LuConfig cfg;
  cfg.n = 1024;
  cfg.p = 64;
  cfg.mode = Mode::DryRun;
  cfg.force_layers = 4;
  const double at_opt =
      make_algorithm("COnfLUX")->run(nullptr, cfg).total_bytes();
  cfg.force_layers = 32;
  const double too_deep =
      make_algorithm("COnfLUX")->run(nullptr, cfg).total_bytes();
  EXPECT_GT(too_deep, at_opt);
}

TEST(Ablation, GridOptimizationSmoothsAwkwardRankCounts) {
  // Fig. 6a inset: at awkward P the greedy grid wastes volume; the
  // optimizer (possibly idling ranks) stays near the smooth curve.
  LuConfig cfg;
  cfg.n = 1024;
  cfg.p = 61;  // prime
  cfg.mode = Mode::DryRun;
  cfg.grid_optimization = true;
  const double optimized =
      make_algorithm("COnfLUX")->run(nullptr, cfg).total_bytes();
  const double libsci_prime =
      run_mode("LibSci", 1024, 61, Mode::DryRun).total_bytes();
  const double libsci_64 =
      run_mode("LibSci", 1024, 64, Mode::DryRun).total_bytes();
  // LibSci's 1 x 61 grid blows up; COnfLUX at 61 stays below LibSci at 64.
  EXPECT_GT(libsci_prime, 2.0 * libsci_64);
  EXPECT_LT(optimized, libsci_prime);
}

TEST(Ablation, BlockSizeSweepIsGentleNearDefault) {
  // Volume as a function of v has a shallow basin: halving/doubling the
  // auto-chosen block must not change volume by more than ~2x.
  LuConfig cfg;
  cfg.n = 1024;
  cfg.p = 27;
  cfg.mode = Mode::DryRun;
  const LuResult base = make_algorithm("COnfLUX")->run(nullptr, cfg);
  for (int v : {base.block / 2, base.block * 2}) {
    if (v < 1 || 1024 % v != 0) continue;
    cfg.block = v;
    const LuResult other = make_algorithm("COnfLUX")->run(nullptr, cfg);
    EXPECT_LT(other.total_bytes(), 2.0 * base.total_bytes()) << "v=" << v;
  }
}

TEST(PerNode, MaxRankWithinFactorOfMean) {
  // Load balance: the busiest rank carries no more than a few times the
  // average (sent+received) volume.
  const LuResult res = run_mode("COnfLUX", 1024, 64, Mode::DryRun);
  const double mean =
      2.0 * res.total_bytes() / res.ranks_used;  // sent + received
  EXPECT_LT(static_cast<double>(res.max_rank_bytes), 6.0 * mean);
}

TEST(WeakScaling, TwoPointFiveDStaysFlat) {
  // Fig. 6b: with N = n0 * P^(1/3), per-node volume is ~constant for 2.5D
  // and grows ~P^(1/6) for 2D.
  const double conflux_small =
      run_mode("COnfLUX", 512, 8, Mode::DryRun).bytes_per_rank();
  const double conflux_large =
      run_mode("COnfLUX", 1024, 64, Mode::DryRun).bytes_per_rank();
  EXPECT_LT(conflux_large / conflux_small, 1.6);

  const double libsci_small =
      run_mode("LibSci", 512, 8, Mode::DryRun).bytes_per_rank();
  const double libsci_large =
      run_mode("LibSci", 1024, 64, Mode::DryRun).bytes_per_rank();
  // 2D grows by ~ (64/8)^(1/6) * (volume mix) — noticeably more than 2.5D.
  EXPECT_GT(libsci_large / libsci_small, conflux_large / conflux_small);
}

}  // namespace
}  // namespace conflux::lu
