#include "grid/grid3d.hpp"

namespace conflux::grid {

std::vector<int> lu_a00_readers(const Grid3D& g, int t) {
  const int l_star = t % g.layers();
  const int py_c = t % g.py_extent();
  const int px_c = t % g.px_extent();
  std::vector<int> ranks;
  ranks.reserve(static_cast<std::size_t>(g.px_extent() + g.py_extent() - 1));
  for (int px = 0; px < g.px_extent(); ++px)
    ranks.push_back(g.rank_of({px, py_c, l_star}));
  for (int py = 0; py < g.py_extent(); ++py)
    if (py != py_c) ranks.push_back(g.rank_of({px_c, py, l_star}));
  return ranks;
}

}  // namespace conflux::grid
