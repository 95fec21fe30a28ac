/// bench_kernels — google-benchmark microbenchmarks of the substrates: the
/// BLAS kernels under the factorizations, the TSLU tournament, the
/// simulated fabric, the pebble-game executor, the grid optimizer and the
/// DAAP bound solver.
#include <benchmark/benchmark.h>

#include "daap/bound_solver.hpp"
#include "daap/kernels.hpp"
#include "grid/grid_opt.hpp"
#include "linalg/blas.hpp"
#include "linalg/generate.hpp"
#include "linalg/getrf.hpp"
#include "linalg/panel.hpp"
#include "pebble/game.hpp"
#include "pebble/schedulers.hpp"
#include "simnet/collectives.hpp"
#include "simnet/spmd.hpp"

namespace {

using namespace conflux;

void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto a = linalg::generate(n, linalg::MatrixKind::Uniform, 1);
  const auto b = linalg::generate(n, linalg::MatrixKind::Uniform, 2);
  linalg::Matrix c(n, n);
  for (auto _ : state) {
    linalg::gemm(1.0, a.view(), b.view(), 0.0, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

// Reference vs optimized A/B on the same 1024^3 multiply: the optimized
// packed/tiled kernel must win by >= 2x (tier-1 acceptance gate).
void BM_GemmReference1024(benchmark::State& state) {
  const int n = 1024;
  const auto a = linalg::generate(n, linalg::MatrixKind::Uniform, 1);
  const auto b = linalg::generate(n, linalg::MatrixKind::Uniform, 2);
  linalg::Matrix c(n, n);
  for (auto _ : state) {
    linalg::gemm_reference(1.0, a.view(), b.view(), 0.0, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_GemmReference1024)->Unit(benchmark::kMillisecond);

void BM_GemmOptimized1024(benchmark::State& state) {
  const int n = 1024;
  const auto a = linalg::generate(n, linalg::MatrixKind::Uniform, 1);
  const auto b = linalg::generate(n, linalg::MatrixKind::Uniform, 2);
  linalg::Matrix c(n, n);
  for (auto _ : state) {
    linalg::gemm_optimized(1.0, a.view(), b.view(), 0.0, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_GemmOptimized1024)->Unit(benchmark::kMillisecond);

// The COnfLUX/CALU Schur update: a rank-v (v = 16) product into a
// 1024 x 1024 C, one shallow k-panel. The repeatable kernel-layer
// counterpart of perfbench's traced gemm_gflops.k16.
void BM_GemmRankV(benchmark::State& state) {
  const int n = 1024, v = 16;
  const auto a = linalg::generate(n, v, linalg::MatrixKind::Uniform, 1);
  const auto b = linalg::generate(v, n, linalg::MatrixKind::Uniform, 2);
  linalg::Matrix c(n, n);
  for (auto _ : state) {
    linalg::gemm(-1.0, a.view(), b.view(), 1.0, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * v);
}
BENCHMARK(BM_GemmRankV)->Unit(benchmark::kMicrosecond);

void BM_TrsmRightUpper(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto u = linalg::generate(n, linalg::MatrixKind::DiagDominant, 3);
  auto b = linalg::generate(4 * n, n, linalg::MatrixKind::Uniform, 4);
  for (auto _ : state) {
    linalg::Matrix x = b;
    linalg::trsm_right(linalg::Triangle::Upper, linalg::Diag::NonUnit,
                       u.view(), x.view());
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_TrsmRightUpper)->Arg(32)->Arg(128);

void BM_GetrfBlocked(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto a = linalg::generate(n, linalg::MatrixKind::Uniform, 5);
  std::vector<int> ipiv(static_cast<std::size_t>(n));
  for (auto _ : state) {
    linalg::Matrix f = a;
    (void)linalg::getrf_blocked(f.view(), ipiv, 32);
    benchmark::DoNotOptimize(f.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n / 3);
}
BENCHMARK(BM_GetrfBlocked)->Arg(128)->Arg(256);

void BM_TournamentRound(benchmark::State& state) {
  const int v = static_cast<int>(state.range(0));
  linalg::PivotCandidates a, b;
  a.values = linalg::generate(v, v, linalg::MatrixKind::Uniform, 6);
  b.values = linalg::generate(v, v, linalg::MatrixKind::Uniform, 7);
  for (int i = 0; i < v; ++i) {
    a.rows.push_back(i);
    b.rows.push_back(1000 + i);
  }
  for (auto _ : state) {
    auto winners = linalg::tournament_round(a, b, v);
    benchmark::DoNotOptimize(winners.rows.data());
  }
}
BENCHMARK(BM_TournamentRound)->Arg(32)->Arg(128);

void BM_SimnetPingPong(benchmark::State& state) {
  const std::size_t count = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    simnet::run_spmd(2, [count](simnet::Comm& comm) {
      std::vector<double> buf(count, 1.0);
      for (int i = 0; i < 50; ++i) {
        if (comm.rank() == 0) {
          comm.send(1, 1, buf);
          buf = comm.recv(1, 2);
        } else {
          buf = comm.recv(0, 1);
          comm.send(0, 2, buf);
        }
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_SimnetPingPong)->Arg(64)->Arg(4096);

void BM_Broadcast64Ranks(benchmark::State& state) {
  for (auto _ : state) {
    simnet::run_spmd(64, [](simnet::Comm& comm) {
      const auto g = simnet::Group::iota(64);
      std::vector<double> data(1024, comm.rank() == 0 ? 1.0 : 0.0);
      simnet::bcast(comm, g, 0, data, simnet::make_tag(1, 0));
    });
  }
}
BENCHMARK(BM_Broadcast64Ranks);

void BM_PebbleExecutor(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto built = pebble::mmm_cdag(n);
  const auto order =
      pebble::tiled_mmm_order(n, pebble::mmm_tile_for_memory(64));
  for (auto _ : state) {
    const auto game =
        pebble::execute_schedule(built.dag, 64, order, pebble::Eviction::Lru);
    benchmark::DoNotOptimize(game.io_count());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_PebbleExecutor)->Arg(8)->Arg(16);

void BM_GridOptimize(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto choice = grid::optimize_grid(p, 16384);
    benchmark::DoNotOptimize(choice.grid.active());
  }
}
BENCHMARK(BM_GridOptimize)->Arg(1024)->Arg(65536);

void BM_DaapLuBound(benchmark::State& state) {
  for (auto _ : state) {
    const auto bound = daap::solve_program(daap::lu_factorization(4096), 4096);
    benchmark::DoNotOptimize(bound.q_sequential);
  }
}
BENCHMARK(BM_DaapLuBound);

}  // namespace

BENCHMARK_MAIN();
