#include "models/phase_model.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "grid/block_cyclic.hpp"
#include "grid/grid3d.hpp"
#include "grid/grid_opt.hpp"
#include "support/assert.hpp"

namespace conflux::models {

namespace {

/// Candidate-pack size in bytes: 2 header doubles plus, per candidate row,
/// one row index and v values (linalg::pack_candidates layout, which the
/// engine's dry run replays byte-for-byte).
double pack_bytes(double count, int v) { return (2.0 + count * (1 + v)) * 8.0; }

/// Step-2 volume of one butterfly tournament over px owners whose panels
/// each hold `s0` candidate rows (saturated at v). Mirrors the engine's
/// fold-in + mask-doubling size recursion.
double butterfly_bytes(int px_count, double s0, int v) {
  std::vector<double> size_of(static_cast<std::size_t>(px_count), s0);
  const double cap = v;
  double bytes = 0;
  int fold = 1;
  while (fold * 2 <= px_count) fold *= 2;
  for (int q = fold; q < px_count; ++q)
    bytes += pack_bytes(size_of[static_cast<std::size_t>(q)], v);
  for (int q = 0; q + fold < px_count; ++q)
    size_of[static_cast<std::size_t>(q)] =
        std::min(cap, size_of[static_cast<std::size_t>(q)] +
                          size_of[static_cast<std::size_t>(q + fold)]);
  for (int mask = 1; mask < fold; mask <<= 1) {
    for (int q = 0; q < fold; ++q)
      bytes += pack_bytes(size_of[static_cast<std::size_t>(q)], v);
    std::vector<double> next = size_of;
    for (int q = 0; q < fold; ++q)
      next[static_cast<std::size_t>(q)] =
          std::min(cap, size_of[static_cast<std::size_t>(q)] +
                            size_of[static_cast<std::size_t>(q ^ mask)]);
    size_of = std::move(next);
  }
  return bytes;
}

/// Step-2 volume of one reduction-tree tournament (CALU): gap-doubling
/// rounds, every non-root owner sends exactly once, merged counts saturate
/// at v — the same schedule linalg::reduction_tree_schedule emits.
double tree_bytes(int px_count, double s0, int v) {
  std::vector<double> size_of(static_cast<std::size_t>(px_count), s0);
  const double cap = v;
  double bytes = 0;
  for (int gap = 1; gap < px_count; gap *= 2)
    for (int dst = 0; dst + gap < px_count; dst += 2 * gap) {
      const int src = dst + gap;
      bytes += pack_bytes(size_of[static_cast<std::size_t>(src)], v);
      size_of[static_cast<std::size_t>(dst)] =
          std::min(cap, size_of[static_cast<std::size_t>(dst)] +
                            size_of[static_cast<std::size_t>(src)]);
    }
  return bytes;
}

/// Grid, block size and derived extents — the same choices run_block25d
/// makes with a default config, shared by the volume and time models.
struct LuShape {
  grid::Grid3D g;
  int v = 0;
  int px = 0, py = 0, c = 0, steps = 0;
  double active = 0;
};

LuShape lu_shape(int n, int p) {
  const double mem = static_cast<double>(n) * n /
                     std::pow(static_cast<double>(p), 2.0 / 3.0);
  LuShape s{grid::optimize_grid(p, n, mem).grid, 0, 0, 0, 0, 0, 0};
  s.v = grid::choose_block_size(
      n, s.g.layers(), grid::default_block_target(n, s.g.layers()));
  s.px = s.g.px_extent();
  s.py = s.g.py_extent();
  s.c = s.g.layers();
  s.active = s.g.active();
  s.steps = n / s.v;
  return s;
}

}  // namespace

bool has_phase_model(const std::string& algo) {
  return algo == "COnfLUX" || algo == "CALU";
}

std::vector<PhaseVolume> predict_lu_phases(const std::string& algo, int n,
                                           int p) {
  CONFLUX_EXPECTS(has_phase_model(algo));
  CONFLUX_EXPECTS(n >= 1 && p >= 1);

  // Same grid and block-size rules as run_block25d with default config.
  const LuShape sh = lu_shape(n, p);
  const int v = sh.v;
  const int px = sh.px;
  const int py = sh.py;
  const int c = sh.c;
  const double active = sh.active;
  const int steps = sh.steps;

  double reduce = 0, tournament = 0, pivot = 0, schur = 0;
  for (int t = 0; t < steps; ++t) {
    const double rem = n - static_cast<double>(t) * v;     // unpivoted rows
    const double rem2 = rem - v;                           // after this step
    const double tiles_left = steps - t - 1;               // trailing tile cols

    // Step 1: each non-reducing layer of the panel column ships its rows.
    reduce += 8.0 * rem * v * (c - 1);
    // Step 5: pivot-row partials from every (px, py, l) to the aggregators;
    // the aggregator's own contribution (1/px of the reducing layer's) is a
    // self-send the fabric does not meter.
    reduce += 8.0 * v * v * tiles_left * (c - 1.0 / px);

    // Step 2: one tournament over the px panel owners, candidate counts
    // saturated at v (even row split across owners).
    const double s0 = std::min(static_cast<double>(v), rem / px);
    tournament += algo == "CALU" ? tree_bytes(px, s0, v)
                                 : butterfly_bytes(px, s0, v);

    // Step 3: pivots (v ints) to every other rank; A00 (v^2 doubles) to
    // the other px + py - 2 readers (row leaders and aggregators).
    pivot += (active - 1) * 4.0 * v + (px + py - 2.0) * 8.0 * v * v;

    // Steps 8 + 10: layer-sliced A10/A01 multicasts; each side reaches
    // px (resp. py) recipients per layer and skips the 1/c self-slice.
    schur += 8.0 * rem2 * v * (py - 1.0 / c);
    schur += 8.0 * rem2 * v * (px - 1.0 / c);
  }

  return {{"layer_reduction", reduce},
          {"panel_tournament", tournament},
          {"pivot_apply", pivot},
          {"trsm", 0.0},
          {"schur_update", schur}};
}

std::vector<PhaseTime> predict_lu_phase_times(const std::string& algo, int n,
                                              int p, double alpha_s,
                                              double beta_s_per_byte) {
  CONFLUX_EXPECTS(has_phase_model(algo));
  CONFLUX_EXPECTS(n >= 1 && p >= 1);
  CONFLUX_EXPECTS(alpha_s >= 0 && beta_s_per_byte >= 0);

  const LuShape sh = lu_shape(n, p);
  const grid::Grid3D& g = sh.g;
  const int v = sh.v;
  const int px = sh.px;
  const int py = sh.py;
  const int c = sh.c;
  const int steps = sh.steps;
  const int nr = g.active();
  const double a = alpha_s;
  const double b = beta_s_per_byte;

  // One LogGP clock per rank, advanced by replaying the engine's message
  // schedule in per-rank program order with the fabric's charging rules:
  // a send costs the sender bytes*beta (serialized in program order), the
  // receiver's clock rises to the arrival (sender clock + alpha), and
  // self-sends are free. The only approximation is the even pivot-row
  // split (exact for the dry run's hash-spread synthetic pivots to within
  // one tile) — everything else replays the schedule's arithmetic exactly,
  // mirroring how predict_lu_phases replays the sizes.
  std::vector<double> clk(static_cast<std::size_t>(nr), 0.0);
  const auto send = [&](int src, int dst, double bytes) {
    if (src == dst) return;  // fabric exemption: self-sends are free
    double& s = clk[static_cast<std::size_t>(src)];
    double& d = clk[static_cast<std::size_t>(dst)];
    s += bytes * b;
    d = std::max(d, s + a);
  };
  // A binomial-tree broadcast over `members` from members[root_index]
  // (collectives.hpp bcast shape: vrank order, children in increasing mask
  // order, the payload forwarded hop-to-hop). Every arrival is written by
  // the parent before the child reads it.
  std::vector<double> arrive(static_cast<std::size_t>(nr));
  const auto bcast = [&](const std::vector<int>& members, int root_index,
                         double bytes) {
    const int m = static_cast<int>(members.size());
    int index = root_index;  // members index of vrank vr
    int first_mask = 1;      // smallest power of two above vr
    for (int vr = 0; vr < m; ++vr, index = index + 1 == m ? 0 : index + 1) {
      if (vr == first_mask) first_mask <<= 1;
      double& ck = clk[static_cast<std::size_t>(
          members[static_cast<std::size_t>(index)])];
      if (vr > 0) ck = std::max(ck, arrive[static_cast<std::size_t>(vr)]);
      for (int mask = first_mask; vr + mask < m; mask <<= 1) {
        ck += bytes * b;
        arrive[static_cast<std::size_t>(vr + mask)] = ck + a;
      }
    }
  };
  std::vector<int> world(static_cast<std::size_t>(nr));
  std::iota(world.begin(), world.end(), 0);
  const auto frontier = [&] {
    return *std::max_element(clk.begin(), clk.end());
  };

  // Phase attribution: how far the global frontier (the would-be makespan)
  // advances while each phase's messages land. Phases sum to the makespan
  // by construction; a phase whose traffic hides entirely behind another
  // chain contributes zero.
  double mark = 0;
  const auto take = [&](double& acc) {
    const double f = frontier();
    if (f > mark) {
      acc += f - mark;
      mark = f;
    }
  };

  double reduce = 0, tournament = 0, pivot = 0, schur = 0;
  for (int t = 0; t < steps; ++t) {
    const int l_star = t % c;
    const int py_c = t % py;
    const int px_c = t % px;
    const double rem = n - static_cast<double>(t) * v;
    const double rem2 = rem - v;

    // Trailing tile columns owned by each process column (exact count —
    // the step-5/10 column split is index-determined, not pivot-
    // dependent).
    std::vector<int> tiles_of_py(static_cast<std::size_t>(py), 0);
    for (int jt = t + 1; jt < steps; ++jt)
      ++tiles_of_py[static_cast<std::size_t>(jt % py)];

    // Step 1: every non-reducing layer of the panel column ships its
    // ~rem/px rows to the reducing layer.
    if (c > 1) {
      const double bytes1 = 8.0 * (rem / px) * v;
      for (int x = 0; x < px; ++x) {
        const int dst = g.rank_of({x, py_c, l_star});
        for (int l = 0; l < c; ++l)
          if (l != l_star) send(g.rank_of({x, py_c, l}), dst, bytes1);
      }
    }
    take(reduce);

    // Step 2: tournament among the px panel owners at the reducing layer,
    // candidate counts saturating at v (even row split).
    const double s0 = std::min(static_cast<double>(v), rem / px);
    std::vector<double> size_of(static_cast<std::size_t>(px), s0);
    std::vector<int> owner(static_cast<std::size_t>(px));
    for (int q = 0; q < px; ++q)
      owner[static_cast<std::size_t>(q)] = g.rank_of({q, py_c, l_star});
    const double cap = v;
    if (algo == "CALU") {
      // Reduction tree: gap-doubling rounds, each non-root sends once.
      for (int gap = 1; gap < px; gap *= 2)
        for (int dst = 0; dst + gap < px; dst += 2 * gap) {
          const int src = dst + gap;
          send(owner[static_cast<std::size_t>(src)],
               owner[static_cast<std::size_t>(dst)],
               pack_bytes(size_of[static_cast<std::size_t>(src)], v));
          size_of[static_cast<std::size_t>(dst)] =
              std::min(cap, size_of[static_cast<std::size_t>(dst)] +
                                size_of[static_cast<std::size_t>(src)]);
        }
    } else {
      // Butterfly: fold-in of the non-power-of-two tail, then pairwise
      // exchange rounds (both partners inject concurrently).
      int fold = 1;
      while (fold * 2 <= px) fold *= 2;
      for (int q = fold; q < px; ++q)
        send(owner[static_cast<std::size_t>(q)],
             owner[static_cast<std::size_t>(q - fold)],
             pack_bytes(size_of[static_cast<std::size_t>(q)], v));
      for (int q = 0; q + fold < px; ++q)
        size_of[static_cast<std::size_t>(q)] =
            std::min(cap, size_of[static_cast<std::size_t>(q)] +
                              size_of[static_cast<std::size_t>(q + fold)]);
      for (int mask = 1; mask < fold; mask <<= 1) {
        std::vector<double> snap(static_cast<std::size_t>(fold));
        for (int q = 0; q < fold; ++q)
          snap[static_cast<std::size_t>(q)] =
              clk[static_cast<std::size_t>(
                  owner[static_cast<std::size_t>(q)])];
        for (int q = 0; q < fold; ++q) {
          const int pr = q ^ mask;
          const double mine =
              snap[static_cast<std::size_t>(q)] +
              b * pack_bytes(size_of[static_cast<std::size_t>(q)], v);
          const double arrival =
              snap[static_cast<std::size_t>(pr)] +
              b * pack_bytes(size_of[static_cast<std::size_t>(pr)], v) + a;
          clk[static_cast<std::size_t>(owner[static_cast<std::size_t>(q)])] =
              std::max(mine, arrival);
        }
        std::vector<double> next = size_of;
        for (int q = 0; q < fold; ++q)
          next[static_cast<std::size_t>(q)] =
              std::min(cap, size_of[static_cast<std::size_t>(q)] +
                                size_of[static_cast<std::size_t>(q ^ mask)]);
        size_of = std::move(next);
      }
    }
    take(tournament);

    // Step 3: two binomial-tree broadcasts from the tournament root, in
    // the engine's order: the pivots over the whole active world, then A00
    // over the engine's reader group (root first).
    bcast(world, g.rank_of({0, py_c, l_star}), 4.0 * v);
    bcast(grid::lu_a00_readers(g, t), 0, 8.0 * v * v);
    take(pivot);

    // Step 5: every rank ships its pivot-row partials (~v/px rows x its
    // process column's trailing columns) to the column's aggregator.
    if (t + 1 < steps) {
      for (int y = 0; y < py; ++y) {
        const int cnt = tiles_of_py[static_cast<std::size_t>(y)];
        if (cnt == 0) continue;
        const double bytes5 = 8.0 * (v / static_cast<double>(px)) * cnt * v;
        const int dst = g.rank_of({px_c, y, l_star});
        for (int x = 0; x < px; ++x)
          for (int l = 0; l < c; ++l)
            send(g.rank_of({x, y, l}), dst, bytes5);
      }
    }
    take(reduce);

    // Steps 8 + 10: layer-sliced flat multicasts, serialized at the
    // sender one recipient at a time in the engine's loop order (layers
    // outer, destinations inner), self-slice free.
    if (rem2 > 0) {
      const double rows2 = rem2 / px;
      for (int x = 0; x < px; ++x) {
        const int leader = g.rank_of({x, py_c, l_star});
        for (int l = 0; l < c; ++l) {
          const grid::Range slice = grid::chunk_range(v, c, l);
          if (slice.size() == 0) continue;
          const double bytes8 = 8.0 * rows2 * slice.size();
          for (int y = 0; y < py; ++y)
            send(leader, g.rank_of({x, y, l}), bytes8);
        }
      }
      for (int y = 0; y < py; ++y) {
        const int cols = tiles_of_py[static_cast<std::size_t>(y)] * v;
        if (cols == 0) continue;
        const int agg = g.rank_of({px_c, y, l_star});
        for (int l = 0; l < c; ++l) {
          const grid::Range slice = grid::chunk_range(v, c, l);
          if (slice.size() == 0) continue;
          const double bytes10 = 8.0 * slice.size() * cols;
          for (int x = 0; x < px; ++x)
            send(agg, g.rank_of({x, y, l}), bytes10);
        }
      }
    }
    take(schur);
  }

  return {{"layer_reduction", reduce},
          {"panel_tournament", tournament},
          {"pivot_apply", pivot},
          {"trsm", 0.0},
          {"schur_update", schur}};
}

double predict_lu_makespan(const std::string& algo, int n, int p,
                           double alpha_s, double beta_s_per_byte) {
  double total = 0;
  for (const PhaseTime& ph :
       predict_lu_phase_times(algo, n, p, alpha_s, beta_s_per_byte))
    total += ph.seconds;
  return total;
}

}  // namespace conflux::models
