#include "cholesky/confchox25d.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>

#include "factor/step_records.hpp"
#include "grid/block_cyclic.hpp"
#include "grid/grid_opt.hpp"
#include "linalg/blas.hpp"
#include "linalg/potrf.hpp"
#include "simnet/collectives.hpp"
#include "simnet/spmd.hpp"
#include "support/telemetry.hpp"
#include "support/timer.hpp"

namespace conflux::cholesky {

namespace {

using factor::StepRecord;
using grid::chunk_range;
using grid::Coord3;
using grid::Grid3D;
using linalg::Matrix;
using simnet::Comm;
using simnet::make_tag;
using simnet::Tag;

/// Resolved run parameters shared by every rank.
struct Plan {
  int n = 0;
  int v = 0;
  int steps = 0;
  Grid3D g{1, 1, 1};
  int active = 0;
  bool numeric = true;
  telemetry::TelemetryBoard* tel = nullptr;  ///< ConfScope spans (optional)
};

/// Per-rank mutable state. Tile storage mirrors COnfLUX: tiles
/// It % Px == me.px, Jt % Py == me.py, packed [(It/Px) * ltc + (Jt/Py)]
/// * v^2, row-major within a tile. Only tiles It >= Jt carry meaningful
/// data (the trailing matrix is symmetric; the strict upper tiles are
/// never read or written).
struct RankState {
  Coord3 me;
  std::vector<double> tiles;
  int ltr = 0, ltc = 0;
};

/// Pointer to the (It, Jt) tile owned by this rank.
double* tile_at(const Plan& plan, RankState& st, int tile_row, int tile_col) {
  const int lr = tile_row / plan.g.px_extent();
  const int lc = tile_col / plan.g.py_extent();
  return st.tiles.data() +
         (static_cast<std::size_t>(lr) * st.ltc + lc) *
             (static_cast<std::size_t>(plan.v) * plan.v);
}

/// Owned element (row, col) lives at row_base(row)[col_offset(col)]: the
/// row's start in the rank's first tile column plus the column's offset,
/// tile-column stride v^2 (the step-6 GEMM addresses C this way).
double* row_base(const Plan& plan, RankState& st, int row) {
  const int lr = (row / plan.v) / plan.g.px_extent();
  return st.tiles.data() +
         (static_cast<std::size_t>(lr) * st.ltc * plan.v + row % plan.v) *
             plan.v;
}

std::ptrdiff_t col_offset(const Plan& plan, int col) {
  const int lc = (col / plan.v) / plan.g.py_extent();
  return static_cast<std::ptrdiff_t>(lc) * plan.v * plan.v + col % plan.v;
}

/// Element reference inside the owned tile covering (row, col).
double& elem_at(const Plan& plan, RankState& st, int row, int col) {
  return row_base(plan, st, row)[col_offset(plan, col)];
}

/// Tiles It in [first, n/v) owned along one grid dimension (extent, pos),
/// ascending.
std::vector<int> owned_tiles(const Plan& plan, int first, int extent,
                             int pos) {
  std::vector<int> out;
  const int tiles_total = plan.n / plan.v;
  for (int it = first; it < tiles_total; ++it)
    if (it % extent == pos) out.push_back(it);
  return out;
}

/// ---- Step 1: reduce panel column t across layers onto l_star -------------
/// The next panel's column strip (rows >= t*v, the v columns of tile column
/// t) is the only data whose per-layer partial sums must be combined:
/// Cholesky's row panel is the transposed column panel, so COnfLUX's second
/// reduce (its step 5) has no counterpart here.
void reduce_panel_column(const Plan& plan, RankState& st, const Comm& comm,
                         int t, int l_star, int py_c) {
  if (plan.g.layers() == 1) return;
  if (st.me.py != py_c) return;
  const auto mine = owned_tiles(plan, t, plan.g.px_extent(), st.me.px);
  if (mine.empty()) return;
  const int v = plan.v;
  const int col0 = t * v;
  const std::size_t doubles =
      mine.size() * static_cast<std::size_t>(v) * v;

  if (st.me.l != l_star) {
    const Tag tag = make_tag(1, static_cast<std::uint32_t>(t),
                             static_cast<std::uint32_t>(st.me.l));
    const int dst = plan.g.rank_of({st.me.px, py_c, l_star});
    if (plan.numeric) {
      std::vector<double> buf;
      buf.reserve(doubles);
      for (int it : mine)
        for (int r = it * v; r < (it + 1) * v; ++r) {
          double* base = &elem_at(plan, st, r, col0);
          buf.insert(buf.end(), base, base + v);
          std::fill(base, base + v, 0.0);
        }
      comm.send(dst, tag, std::move(buf));
    } else {
      comm.send_ghost_doubles(dst, tag, doubles);
    }
  } else {
    for (int l = 0; l < plan.g.layers(); ++l) {
      if (l == l_star) continue;
      const Tag tag = make_tag(1, static_cast<std::uint32_t>(t),
                               static_cast<std::uint32_t>(l));
      const int src = plan.g.rank_of({st.me.px, py_c, l});
      if (plan.numeric) {
        // Accumulate straight out of the shared payload; no copy-out.
        const simnet::BufferView buf = comm.recv_view(src, tag);
        const double* in = buf.data();
        for (int it : mine)
          for (int r = it * v; r < (it + 1) * v; ++r) {
            double* base = &elem_at(plan, st, r, col0);
            for (int k = 0; k < v; ++k) base[k] += *in++;
          }
      } else {
        (void)comm.recv_ghost(src, tag);
      }
    }
  }
}

/// ---- Step 2: factor the diagonal block, broadcast L00 to its readers ----
/// The owner of tile (t, t) on the reducing layer runs the sequential
/// potrf; L00 then travels a binomial tree over the Px panel leaders
/// (px, py_c, l_star) — `readers`, rooted at that owner — the only ranks
/// whose step-3 solve reads it (v^2 per leader per step, the counterpart
/// of COnfLUX's A00 broadcast minus the pivot indices). Every other rank
/// returns an empty matrix.
Matrix factor_and_bcast_a00(const Plan& plan, RankState& st, const Comm& comm,
                            int t, const simnet::Group& readers,
                            std::atomic<bool>* not_spd) {
  const int v = plan.v;
  if (readers.index_of(comm.rank()) < 0) return {};
  const Tag tag = make_tag(3, static_cast<std::uint32_t>(t), 0);
  Matrix a00(v, v);
  if (plan.numeric) {
    std::vector<double> flat(static_cast<std::size_t>(v) * v, 0.0);
    if (comm.rank() == readers.at(0)) {
      linalg::MatrixView tile(tile_at(plan, st, t, t), v, v, v);
      if (linalg::potrf_unblocked(tile) != linalg::FactorStatus::Ok)
        not_spd->store(true, std::memory_order_relaxed);
      for (int i = 0; i < v; ++i)
        for (int j = 0; j <= i; ++j)
          flat[static_cast<std::size_t>(i) * v + j] = tile(i, j);
    }
    simnet::bcast(comm, readers, 0, flat, tag);
    std::copy(flat.begin(), flat.end(), a00.data());
  } else {
    (void)simnet::bcast_ghost(comm, readers, 0,
                              static_cast<std::size_t>(v) * v * sizeof(double),
                              tag);
  }
  return a00;
}

/// The readers of step t's L00: the Px panel leaders (px, py_c, l_star),
/// the tile-(t, t) owner first, then the others in px order.
/// Index-determined, so the host builds every step's group once and the
/// ranks share them read-only.
simnet::Group l00_readers(const Plan& plan, int t) {
  const int px_count = plan.g.px_extent();
  const int l_star = t % plan.g.layers();
  const int py_c = t % plan.g.py_extent();
  const int px_root = t % px_count;
  std::vector<int> ranks;
  ranks.reserve(static_cast<std::size_t>(px_count));
  ranks.push_back(plan.g.rank_of({px_root, py_c, l_star}));
  for (int px = 0; px < px_count; ++px)
    if (px != px_root) ranks.push_back(plan.g.rank_of({px, py_c, l_star}));
  return simnet::Group(std::move(ranks));
}

/// ---- Step 3: panel solve at the row leaders ------------------------------
/// The reduced strip below the diagonal already lives, grouped by tile-row
/// owner px, on the column owners (px, py_c, l_star) — the same px-aligned
/// 1D layout COnfLUX uses, so L10 := A10 * L00^{-T} runs in place with no
/// redistribution.
struct PanelL10 {
  std::vector<int> tiles;  ///< owned trailing tiles (> t), ascending
  Matrix full;             ///< (tiles * v) x v solved rows (numeric leaders)
  bool leader = false;
};

PanelL10 solve_panel(const Plan& plan, RankState& st, int t, int l_star,
                     int py_c, const Matrix& a00,
                     std::vector<StepRecord>* records) {
  PanelL10 panel;
  if (st.me.py != py_c || st.me.l != l_star) return panel;
  panel.leader = true;
  panel.tiles = owned_tiles(plan, t + 1, plan.g.px_extent(), st.me.px);
  if (panel.tiles.empty() || !plan.numeric) return panel;

  const int v = plan.v;
  const int col0 = t * v;
  panel.full = Matrix(static_cast<int>(panel.tiles.size()) * v, v);
  int i = 0;
  for (int it : panel.tiles)
    for (int r = it * v; r < (it + 1) * v; ++r, ++i) {
      const double* base = &elem_at(plan, st, r, col0);
      auto dst = panel.full.row(i);
      std::copy(base, base + v, dst.begin());
    }
  // L10 := A10 * L00^{-T}.
  linalg::trsm_right_lower_transposed(a00.view(), panel.full.view());
  if (records != nullptr) {
    StepRecord& rec = (*records)[static_cast<std::size_t>(t)];
    i = 0;
    for (int it : panel.tiles)
      for (int r = it * v; r < (it + 1) * v; ++r, ++i) {
        auto srow = panel.full.row(i);
        auto drow = rec.a10.row(r);
        std::copy(srow.begin(), srow.end(), drow.begin());
      }
  }
  return panel;
}

/// ---- Step 4: layer-sliced row multicast ----------------------------------
/// Row leaders (px, py_c, l_star) -> every (px, *, l), sending each layer
/// only its v/c k-slice of the solved panel rows (COnfLUX step 8).
struct RowSlice {
  std::vector<int> tiles;  ///< my trailing row tiles
  Matrix values;           ///< (tiles * v) x slice
  grid::Range slice;       ///< k-range within the v panel columns
};

RowSlice multicast_rows(const Plan& plan, RankState& st, const Comm& comm,
                        int t, int l_star, int py_c, const PanelL10& panel) {
  RowSlice out;
  const int v = plan.v;
  const int c = plan.g.layers();
  out.slice = chunk_range(v, c, st.me.l);

  if (panel.leader && !panel.tiles.empty()) {
    // One packed slice per layer, multicast to the whole process row: the
    // py_count recipients share a single immutable buffer.
    const std::size_t nrows = panel.tiles.size() * static_cast<std::size_t>(v);
    std::vector<int> dsts(static_cast<std::size_t>(plan.g.py_extent()));
    for (int l = 0; l < c; ++l) {
      const auto slice = chunk_range(v, c, l);
      if (slice.size() == 0) continue;
      for (int py = 0; py < plan.g.py_extent(); ++py)
        dsts[static_cast<std::size_t>(py)] =
            plan.g.rank_of({st.me.px, py, l});
      const Tag tag = make_tag(8, static_cast<std::uint32_t>(t), 0);
      if (plan.numeric) {
        std::vector<double> buf;
        buf.reserve(nrows * static_cast<std::size_t>(slice.size()));
        for (std::size_t i = 0; i < nrows; ++i) {
          const double* base = panel.full.data() +
                               i * static_cast<std::size_t>(v) + slice.begin;
          buf.insert(buf.end(), base, base + slice.size());
        }
        comm.multicast(dsts, tag,
                       simnet::make_shared_buffer(std::move(buf)));
      } else {
        comm.multicast_ghost(dsts, tag,
                             nrows * static_cast<std::size_t>(slice.size()) *
                                 sizeof(double));
      }
    }
  }

  const auto mine = owned_tiles(plan, t + 1, plan.g.px_extent(), st.me.px);
  if (!mine.empty() && out.slice.size() > 0) {
    const int src = plan.g.rank_of({st.me.px, py_c, l_star});
    const Tag tag = make_tag(8, static_cast<std::uint32_t>(t), 0);
    out.tiles = mine;
    if (plan.numeric) {
      const simnet::BufferView buf = comm.recv_view(src, tag);
      out.values = Matrix(static_cast<int>(mine.size()) * v,
                          out.slice.size());
      std::copy(buf.data(), buf.data() + buf.size(), out.values.data());
    } else {
      (void)comm.recv_ghost(src, tag);
    }
  }
  return out;
}

/// ---- Step 5: layer-sliced transposed multicast ---------------------------
/// The symmetric update needs L10^T where COnfLUX needs the separately
/// reduced-and-solved A01 row panel. The row leaders already hold every L10
/// row, so they also serve the column direction: the rows of tile It go,
/// k-sliced per layer, to the ranks whose process column owns tile column
/// It — i.e. leader (It % Px, py_c, l_star) -> every (*, It % Py, l).
struct ColSlice {
  std::vector<int> tiles;  ///< my trailing column tiles
  Matrix values;  ///< slice x (tiles * v): values(k, j) = L10(col_j, k)
  grid::Range slice;
};

ColSlice multicast_cols(const Plan& plan, RankState& st, const Comm& comm,
                        int t, int l_star, int py_c, const PanelL10& panel) {
  ColSlice out;
  const int v = plan.v;
  const int c = plan.g.layers();
  const int px_count = plan.g.px_extent();
  const int py_count = plan.g.py_extent();
  out.slice = chunk_range(v, c, st.me.l);

  if (panel.leader && !panel.tiles.empty()) {
    for (int py_d = 0; py_d < py_count; ++py_d) {
      std::vector<int> group;  // positions of my tiles bound for column py_d
      for (std::size_t i = 0; i < panel.tiles.size(); ++i)
        if (panel.tiles[i] % py_count == py_d)
          group.push_back(static_cast<int>(i));
      if (group.empty()) continue;
      // One packed (py_d, layer) strip, multicast across the process row
      // dimension: all px_count recipients share one immutable buffer.
      std::vector<int> dsts(static_cast<std::size_t>(px_count));
      for (int l = 0; l < c; ++l) {
        const auto slice = chunk_range(v, c, l);
        if (slice.size() == 0) continue;
        for (int px2 = 0; px2 < px_count; ++px2)
          dsts[static_cast<std::size_t>(px2)] =
              plan.g.rank_of({px2, py_d, l});
        const Tag tag = make_tag(10, static_cast<std::uint32_t>(t), 0);
        if (plan.numeric) {
          std::vector<double> buf;
          buf.reserve(group.size() * static_cast<std::size_t>(v) *
                      slice.size());
          for (int i : group)
            for (int q = 0; q < v; ++q) {
              const double* base =
                  panel.full.data() +
                  (static_cast<std::size_t>(i) * v + q) * v + slice.begin;
              buf.insert(buf.end(), base, base + slice.size());
            }
          comm.multicast(dsts, tag,
                         simnet::make_shared_buffer(std::move(buf)));
        } else {
          comm.multicast_ghost(dsts, tag,
                               group.size() * static_cast<std::size_t>(v) *
                                   slice.size() * sizeof(double));
        }
      }
    }
  }

  const auto mine = owned_tiles(plan, t + 1, py_count, st.me.py);
  if (!mine.empty() && out.slice.size() > 0) {
    out.tiles = mine;
    if (plan.numeric)
      out.values =
          Matrix(out.slice.size(), static_cast<int>(mine.size()) * v);
    for (int px1 = 0; px1 < px_count; ++px1) {
      std::vector<int> sub;  // positions of my column tiles owned by px1
      for (std::size_t j = 0; j < mine.size(); ++j)
        if (mine[j] % px_count == px1) sub.push_back(static_cast<int>(j));
      if (sub.empty()) continue;
      const int src = plan.g.rank_of({px1, py_c, l_star});
      const Tag tag = make_tag(10, static_cast<std::uint32_t>(t), 0);
      if (plan.numeric) {
        const simnet::BufferView buf = comm.recv_view(src, tag);
        const double* in = buf.data();
        for (int j : sub)
          for (int q = 0; q < v; ++q)
            for (int k = out.slice.begin; k < out.slice.end; ++k)
              out.values(k - out.slice.begin, j * v + q) = *in++;
      } else {
        (void)comm.recv_ghost(src, tag);
      }
    }
  }
  return out;
}

/// ---- Step 6: local symmetric Schur update with the layer's k-slice -------
/// A11 -= L10 * L10^T, restricted to the lower-triangular tiles It >= Jt
/// this rank owns (the strict upper tiles are dead storage).
void schur_update_local(const Plan& plan, RankState& st, const RowSlice& rows,
                        const ColSlice& cols) {
  if (!plan.numeric) return;
  if (rows.tiles.empty() || cols.tiles.empty() || rows.slice.size() == 0)
    return;
  CONFLUX_ASSERT(rows.slice.begin == cols.slice.begin &&
                 rows.slice.end == cols.slice.end);
  const int v = plan.v;

  // One GEMM per column tile, restricted to the row tiles at or below it
  // (both tile lists are ascending), so the strict-upper half of the
  // symmetric update is never computed — the same block-column trick as
  // potrf_blocked. Each GEMM accumulates straight into the tiles.
  const int slice = rows.slice.size();
  std::vector<double*> row_ptrs(static_cast<std::size_t>(rows.values.rows()));
  for (std::size_t i = 0; i < row_ptrs.size(); ++i)
    row_ptrs[i] = row_base(plan, st, rows.tiles[i / v] * v +
                                         static_cast<int>(i % v));
  std::vector<std::ptrdiff_t> col_offs(static_cast<std::size_t>(
      cols.values.cols()));
  for (std::size_t j = 0; j < col_offs.size(); ++j)
    col_offs[j] = col_offset(plan, cols.tiles[j / v] * v +
                                       static_cast<int>(j % v));
  for (std::size_t tj = 0; tj < cols.tiles.size(); ++tj) {
    std::size_t ti0 = 0;
    while (ti0 < rows.tiles.size() && rows.tiles[ti0] < cols.tiles[tj])
      ++ti0;
    if (ti0 == rows.tiles.size()) continue;
    const int row0 = static_cast<int>(ti0) * v;
    const int nrows = rows.values.rows() - row0;
    const int col0 = static_cast<int>(tj) * v;
    linalg::gemm(-1.0, rows.values.view().block(row0, 0, nrows, slice),
                 cols.values.view().block(0, col0, slice, v),
                 linalg::ScatteredView(
                     std::span(row_ptrs).subspan(
                         static_cast<std::size_t>(row0)),
                     std::span<const std::ptrdiff_t>(col_offs).subspan(
                         static_cast<std::size_t>(col0), v)));
  }
}

}  // namespace

CholResult Confchox25D::run(const linalg::Matrix* a, const CholConfig& cfg) {
  CONFLUX_EXPECTS(cfg.n >= 1 && cfg.p >= 1);
  CONFLUX_EXPECTS(cfg.mode == Mode::DryRun || a != nullptr);

  const double mem = cfg.mem_elements > 0
                         ? cfg.mem_elements
                         : static_cast<double>(cfg.n) * cfg.n /
                               std::pow(static_cast<double>(cfg.p), 2.0 / 3.0);

  Plan plan;
  plan.n = cfg.n;
  plan.numeric = (cfg.mode == Mode::Numeric);
  if (cfg.force_layers > 0 || !cfg.grid_optimization) {
    int c = cfg.force_layers > 0
                ? cfg.force_layers
                : std::max(1, static_cast<int>(std::lround(
                                  cfg.p * mem /
                                  (static_cast<double>(cfg.n) * cfg.n))));
    c = std::min(c, cfg.p);
    const int front = std::max(1, cfg.p / c);
    const int px = std::max(1, static_cast<int>(std::sqrt(
                                   static_cast<double>(front))));
    plan.g = Grid3D(px, std::max(1, front / px), c);
  } else {
    plan.g = grid::optimize_grid(cfg.p, cfg.n, mem, 0,
                                 grid::confchox_cost_per_rank)
                 .grid;
  }
  plan.active = plan.g.active();
  plan.v = cfg.block > 0
               ? cfg.block
               : grid::choose_block_size(
                     cfg.n, plan.g.layers(),
                     grid::default_block_target(cfg.n, plan.g.layers()));
  CONFLUX_EXPECTS_MSG(cfg.n % plan.v == 0,
                      "block size " << plan.v << " must divide N=" << cfg.n);
  plan.steps = cfg.n / plan.v;

  std::vector<StepRecord> records;
  const bool want_records = plan.numeric && (cfg.verify || cfg.keep_factors);
  if (want_records)
    records = factor::make_step_records(plan.n, plan.v, /*with_a01=*/false);
  std::atomic<bool> not_spd{false};

  std::vector<simnet::Group> readers;
  readers.reserve(static_cast<std::size_t>(plan.steps));
  for (int t = 0; t < plan.steps; ++t) readers.push_back(l00_readers(plan, t));

  simnet::Network net(plan.active, cfg.fabric);
  factor::attach_instruments(net, cfg);
  plan.tel = cfg.telemetry;

  Stopwatch timer;
  simnet::run_spmd(net, [&](Comm& comm) {
    RankState st;
    st.me = plan.g.coord_of(comm.rank());

    if (plan.numeric) {
      // Tile storage; layer 0 holds A, other layers hold zero partial sums.
      const int tiles_total = plan.n / plan.v;
      st.ltr = (tiles_total - st.me.px + plan.g.px_extent() - 1) /
               plan.g.px_extent();
      st.ltc = (tiles_total - st.me.py + plan.g.py_extent() - 1) /
               plan.g.py_extent();
      st.tiles.assign(static_cast<std::size_t>(st.ltr) * st.ltc * plan.v *
                          plan.v,
                      0.0);
      if (st.me.l == 0) {
        for (int it = st.me.px; it < tiles_total; it += plan.g.px_extent())
          for (int jt = st.me.py; jt <= it; jt += plan.g.py_extent()) {
            double* tl = tile_at(plan, st, it, jt);
            for (int i = 0; i < plan.v; ++i)
              for (int j = 0; j < plan.v; ++j)
                tl[static_cast<std::size_t>(i) * plan.v + j] =
                    (*a)(it * plan.v + i, jt * plan.v + j);
          }
      }
    }

    const int me = comm.rank();
    for (int t = 0; t < plan.steps; ++t) {
      const int l_star = t % plan.g.layers();
      const int py_c = t % plan.g.py_extent();
      {
        const telemetry::ScopedSpan span(plan.tel, me,
                                         telemetry::kLayerReduction, t);
        reduce_panel_column(plan, st, comm, t, l_star, py_c);      // step 1
      }
      const simnet::Group& step_readers =
          readers[static_cast<std::size_t>(t)];
      Matrix a00;
      {
        const telemetry::ScopedSpan span(plan.tel, me,
                                         telemetry::kPanelFactor, t);
        a00 = factor_and_bcast_a00(plan, st, comm, t,              // step 2
                                   step_readers, &not_spd);
      }
      if (want_records && me == step_readers.at(0)) {
        StepRecord& rec = records[static_cast<std::size_t>(t)];
        for (int q = 0; q < plan.v; ++q)
          rec.pivots[static_cast<std::size_t>(q)] = t * plan.v + q;
        rec.a00 = a00;
      }
      PanelL10 panel;
      {
        const telemetry::ScopedSpan span(plan.tel, me, telemetry::kTrsm, t);
        panel = solve_panel(plan, st, t, l_star, py_c,             // step 3
                            a00, want_records ? &records : nullptr);
      }
      {
        const telemetry::ScopedSpan span(plan.tel, me,
                                         telemetry::kSchurUpdate, t);
        const RowSlice rows = multicast_rows(plan, st, comm, t,    // step 4
                                             l_star, py_c, panel);
        const ColSlice cols = multicast_cols(plan, st, comm, t,    // step 5
                                             l_star, py_c, panel);
        schur_update_local(plan, st, rows, cols);                  // step 6
      }
    }
  });

  CholResult result;
  result.seconds = timer.seconds();
  factor::fill_comm_stats(result, net, plan.active, cfg.p);
  result.grid = plan.g.to_string();
  result.block = plan.v;
  result.spd = !not_spd.load(std::memory_order_relaxed);
  if (want_records) {
    const Matrix l =
        factor::assemble_cholesky_factor(records, plan.n, plan.v);
    if (cfg.verify) result.residual = linalg::cholesky_residual(*a, l.view());
    if (cfg.keep_factors)
      result.factors = std::make_shared<linalg::Matrix>(std::move(l));
  }
  return result;
}

}  // namespace conflux::cholesky
