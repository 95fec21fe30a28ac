/// \file grid3d.hpp
/// Processor grids. COnfLUX decomposes P processors into a
/// [Px, Py, c] grid (§7.2): a 2D front face tiling the matrix plus c
/// replication layers in the reduction dimension. The 2D baselines use the
/// degenerate c = 1 case with their own (Pr, Pc) choosers.
#pragma once

#include <string>
#include <vector>

#include "support/assert.hpp"

namespace conflux::grid {

/// Coordinates of a rank inside a 3D grid.
struct Coord3 {
  int px = 0;  ///< position along matrix rows (tile-row owner dimension)
  int py = 0;  ///< position along matrix columns
  int l = 0;   ///< replication layer

  friend bool operator==(const Coord3&, const Coord3&) = default;
};

/// A [Px, Py, c] processor grid mapped onto global ranks
/// rank = px + Px * (py + Py * l). Ranks >= active() take no part in the
/// computation (the paper's Processor Grid Optimization may deliberately
/// leave a minority of ranks idle).
class Grid3D {
 public:
  Grid3D(int px_extent, int py_extent, int layers)
      : px_(px_extent), py_(py_extent), c_(layers) {
    CONFLUX_EXPECTS(px_extent >= 1 && py_extent >= 1 && layers >= 1);
  }

  [[nodiscard]] int px_extent() const { return px_; }
  [[nodiscard]] int py_extent() const { return py_; }
  [[nodiscard]] int layers() const { return c_; }

  /// Number of ranks this grid actually uses.
  [[nodiscard]] int active() const { return px_ * py_ * c_; }

  /// Global rank of a coordinate.
  [[nodiscard]] int rank_of(Coord3 coord) const {
    CONFLUX_EXPECTS(contains(coord));
    return coord.px + px_ * (coord.py + py_ * coord.l);
  }

  /// Coordinate of an active global rank.
  [[nodiscard]] Coord3 coord_of(int rank) const {
    CONFLUX_EXPECTS(rank >= 0 && rank < active());
    Coord3 coord;
    coord.px = rank % px_;
    coord.py = (rank / px_) % py_;
    coord.l = rank / (px_ * py_);
    return coord;
  }

  [[nodiscard]] bool contains(Coord3 coord) const {
    return coord.px >= 0 && coord.px < px_ && coord.py >= 0 &&
           coord.py < py_ && coord.l >= 0 && coord.l < c_;
  }

  [[nodiscard]] std::string to_string() const {
    // Built by appending (not operator+ chains): GCC 12's -O3 inliner emits
    // a spurious -Wrestrict for `"[" + std::to_string(...)`.
    std::string out = "[";
    out += std::to_string(px_);
    out += " x ";
    out += std::to_string(py_);
    out += " x ";
    out += std::to_string(c_);
    out += "]";
    return out;
  }

  friend bool operator==(const Grid3D&, const Grid3D&) = default;

 private:
  int px_, py_, c_;
};

/// The ranks of a [Px, Py, c] grid that read step t's diagonal block A00 in
/// the 2.5D LU engine (lu/block25d.cpp, step 3), tournament root
/// (0, py_c, l_star) first: the Px row leaders (px, py_c, l_star), then the
/// Py - 1 other aggregators (px_c, py, l_star), where l_star = t % c,
/// py_c = t % Py and px_c = t % Px. The engine broadcasts A00 over this
/// group and the phase model (models/phase_model.cpp) replays the same
/// tree.
[[nodiscard]] std::vector<int> lu_a00_readers(const Grid3D& g, int t);

/// A 2D (Pr x Pc) grid for the ScaLAPACK-style baselines; rank =
/// pr + Pr * pc (column-major process ordering, as ScaLAPACK defaults to).
class Grid2D {
 public:
  Grid2D(int rows, int cols) : pr_(rows), pc_(cols) {
    CONFLUX_EXPECTS(rows >= 1 && cols >= 1);
  }

  [[nodiscard]] int rows() const { return pr_; }
  [[nodiscard]] int cols() const { return pc_; }
  [[nodiscard]] int active() const { return pr_ * pc_; }

  [[nodiscard]] int rank_of(int pr, int pc) const {
    CONFLUX_EXPECTS(pr >= 0 && pr < pr_ && pc >= 0 && pc < pc_);
    return pr + pr_ * pc;
  }
  [[nodiscard]] int row_of(int rank) const { return rank % pr_; }
  [[nodiscard]] int col_of(int rank) const { return rank / pr_; }

  [[nodiscard]] std::string to_string() const {
    std::string out = "[";
    out += std::to_string(pr_);
    out += " x ";
    out += std::to_string(pc_);
    out += "]";
    return out;
  }

  friend bool operator==(const Grid2D&, const Grid2D&) = default;

 private:
  int pr_, pc_;
};

}  // namespace conflux::grid
