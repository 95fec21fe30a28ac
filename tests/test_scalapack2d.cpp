// The 2D LU engine behind LibSci, SLATE and CANDMC: the permutation ->
// owner-pair batching of its row interchange (pdlaswp) against a
// brute-force reference, and exact dry-run pins of the three backends on
// the virtual-time fabric.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <vector>

#include "grid/block_cyclic.hpp"
#include "lu/lu_common.hpp"
#include "lu/scalapack2d.hpp"
#include "models/machines.hpp"

namespace conflux::lu {
namespace {

using grid::BlockCyclic1D;
using Moves = std::vector<std::pair<int, int>>;

/// Brute force: apply the kb sequential swaps to an identity permutation of
/// all n rows, then list every position whose content changed as a
/// (source row, destination row) move, grouped by owner pair.
std::map<std::pair<int, int>, Moves> reference_pairs(
    const std::vector<int>& piv, int k0, const BlockCyclic1D& rowmap) {
  std::vector<int> perm(static_cast<std::size_t>(rowmap.extent()));
  std::iota(perm.begin(), perm.end(), 0);
  for (std::size_t i = 0; i < piv.size(); ++i)
    std::swap(perm[static_cast<std::size_t>(k0) + i],
              perm[static_cast<std::size_t>(piv[i])]);
  std::map<std::pair<int, int>, Moves> ref;
  for (int pos = 0; pos < rowmap.extent(); ++pos) {
    const int src = perm[static_cast<std::size_t>(pos)];
    if (src != pos)
      ref[{rowmap.owner_of(src), rowmap.owner_of(pos)}].emplace_back(src,
                                                                     pos);
  }
  return ref;
}

void expect_matches_reference(const std::vector<int>& piv, int k0,
                              const BlockCyclic1D& rowmap) {
  const std::vector<OwnerPair> pairs = swap_owner_pairs(piv, k0, rowmap);
  const auto ref = reference_pairs(piv, k0, rowmap);
  ASSERT_EQ(pairs.size(), ref.size());
  // The reference map's iteration order is the message order; pair_id is
  // the 1-based position in it.
  unsigned ref_id = 0;
  auto it = ref.begin();
  for (std::size_t i = 0; i < pairs.size(); ++i, ++it) {
    ++ref_id;
    const unsigned pair_id = static_cast<unsigned>(i) + 1;
    EXPECT_EQ(pair_id, ref_id);
    EXPECT_EQ(pairs[i].osrc, it->first.first) << "pair_id " << pair_id;
    EXPECT_EQ(pairs[i].odst, it->first.second) << "pair_id " << pair_id;
    ASSERT_EQ(pairs[i].moves.size(), it->second.size())
        << "pair_id " << pair_id;
    Moves got = pairs[i].moves;
    std::sort(got.begin(), got.end());
    Moves want = it->second;
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "pair_id " << pair_id;
  }
}

TEST(SwapOwnerPairs, ChainsAndSameOwnerMovesByHand) {
  // 16 rows in blocks of 2 over 4 owners: rows {0,1,8,9} -> 0, {2,3,10,11}
  // -> 1, {4,5,12,13} -> 2, {6,7,14,15} -> 3. Swaps 0<->5 and 1<->5 chain
  // through row 5; 2<->3 stays on owner 1; 3<->3 is a no-op.
  const BlockCyclic1D rowmap(16, 2, 4);
  const std::vector<int> piv{5, 5, 3, 3};
  // Final contents: pos0 <- 5, pos1 <- 0, pos5 <- 1, pos2 <- 3, pos3 <- 2.
  const std::vector<OwnerPair> pairs = swap_owner_pairs(piv, 0, rowmap);
  ASSERT_EQ(pairs.size(), 4u);
  EXPECT_EQ(std::make_pair(pairs[0].osrc, pairs[0].odst), std::make_pair(0, 0));
  EXPECT_EQ(pairs[0].moves, (Moves{{0, 1}}));
  EXPECT_EQ(std::make_pair(pairs[1].osrc, pairs[1].odst), std::make_pair(0, 2));
  EXPECT_EQ(pairs[1].moves, (Moves{{1, 5}}));
  EXPECT_EQ(std::make_pair(pairs[2].osrc, pairs[2].odst), std::make_pair(1, 1));
  EXPECT_EQ(pairs[2].moves.size(), 2u);
  EXPECT_EQ(std::make_pair(pairs[3].osrc, pairs[3].odst), std::make_pair(2, 0));
  EXPECT_EQ(pairs[3].moves, (Moves{{5, 0}}));
  expect_matches_reference(piv, 0, rowmap);
}

TEST(SwapOwnerPairs, NoSwapsGiveNoPairs) {
  const BlockCyclic1D rowmap(32, 4, 3);
  EXPECT_TRUE(swap_owner_pairs(std::vector<int>{8, 9, 10, 11}, 8, rowmap)
                  .empty());
}

TEST(SwapOwnerPairs, MatchesBruteForceOnRandomPivots) {
  std::mt19937 rng(12345);
  for (int trial = 0; trial < 400; ++trial) {
    const int nb = 1 + static_cast<int>(rng() % 8);
    const int owners = 1 + static_cast<int>(rng() % 6);
    const int n = nb * (2 + static_cast<int>(rng() % 12));
    const int k0 = nb * static_cast<int>(rng() % (n / nb));
    const int kb = std::min(nb, n - k0);
    // LAPACK-style pivots: piv[i] >= k0 + i. Draw half the pivots from a
    // narrow window so swap chains that share rows are common.
    std::vector<int> piv(static_cast<std::size_t>(kb));
    for (int i = 0; i < kb; ++i) {
      const int j = k0 + i;
      const int span = rng() % 2 ? n - j : std::min(n - j, 3);
      piv[static_cast<std::size_t>(i)] = j + static_cast<int>(rng() % span);
    }
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " n=" << n
                                      << " nb=" << nb << " owners=" << owners
                                      << " k0=" << k0);
    expect_matches_reference(piv, k0, BlockCyclic1D(n, nb, owners));
  }
}

TEST(Scalapack2DDrySchedule, StepsUseSwapOwnerPairsOfTheirPivots) {
  const int n = 256, nb = 16, rows = 4;
  const auto sched = scalapack2d_dry_schedule(n, nb, rows, 42);
  ASSERT_EQ(sched.size(), static_cast<std::size_t>(n / nb));
  const BlockCyclic1D rowmap(n, nb, rows);
  for (std::size_t s = 0; s < sched.size(); ++s) {
    const int k0 = static_cast<int>(s) * nb;
    ASSERT_EQ(sched[s].piv.size(), static_cast<std::size_t>(nb));
    for (int i = 0; i < nb; ++i) {
      EXPECT_GE(sched[s].piv[static_cast<std::size_t>(i)], k0 + i);
      EXPECT_LT(sched[s].piv[static_cast<std::size_t>(i)], n);
    }
    const auto pairs = swap_owner_pairs(sched[s].piv, k0, rowmap);
    ASSERT_EQ(sched[s].pairs.size(), pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(sched[s].pairs[i].osrc, pairs[i].osrc);
      EXPECT_EQ(sched[s].pairs[i].odst, pairs[i].odst);
      EXPECT_EQ(sched[s].pairs[i].moves, pairs[i].moves);
    }
  }
}

// Exact dry-run pins on the virtual-time fabric (Piz Daint preset,
// N = 1024, P = 64, default seed). The values were recorded from the
// engine before its dry-run pivot schedule moved to the host: each rank
// must send the same messages in the same order, so bytes, message counts
// and the LogGP makespan stay bit-identical.
struct Pin {
  const char* algo;
  const char* grid;
  std::uint64_t bytes;
  std::uint64_t messages;
  double predicted_seconds;
};

class DryRunPin : public ::testing::TestWithParam<Pin> {};

TEST_P(DryRunPin, VirtualTimeVolumeAndMakespanAreExact) {
  const Pin& pin = GetParam();
  const models::Machine m = models::piz_daint();
  LuConfig cfg;
  cfg.n = 1024;
  cfg.p = 64;
  cfg.mode = Mode::DryRun;
  cfg.fabric.mode = simnet::ExecMode::VirtualTime;
  cfg.fabric.link.alpha_s = m.alpha_s;
  cfg.fabric.link.beta_s_per_byte = m.beta_s_per_byte;
  cfg.fabric.link.gamma_s_per_flop = m.gamma_s_per_flop;
  const LuResult res = make_algorithm(pin.algo)->run(nullptr, cfg);
  EXPECT_EQ(res.grid, pin.grid);
  EXPECT_EQ(res.total.bytes_sent, pin.bytes);
  EXPECT_EQ(res.total.messages_sent, pin.messages);
  EXPECT_EQ(res.predicted_seconds, pin.predicted_seconds);
}

INSTANTIATE_TEST_SUITE_P(
    TwoDEngine, DryRunPin,
    ::testing::Values(
        Pin{"LibSci", "[8 x 8]", 73682944, 6008, 0x1.3ea521fb0bfccp-10},
        Pin{"SLATE", "[8 x 8]", 73541376, 19666, 0x1.848b784043ed7p-10},
        Pin{"CANDMC", "[4 x 4] x 4", 148766720, 9976,
            0x1.594d4c84aafc8p-10}),
    [](const ::testing::TestParamInfo<Pin>& info) {
      return std::string(info.param.algo);
    });

}  // namespace
}  // namespace conflux::lu
