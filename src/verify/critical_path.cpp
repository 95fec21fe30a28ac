#include "verify/critical_path.hpp"

#include <algorithm>

#include "support/telemetry.hpp"

namespace conflux::verify {

namespace {

/// Backward walk from the globally latest node. At each node the critical
/// predecessor is whichever of {program-order predecessor, matched send}
/// finished later: the node could not complete before either, so the later
/// one is the binding constraint.
CriticalPath walk(const CommGraph& g) {
  CriticalPath path;
  const auto& nodes = g.nodes();
  if (nodes.empty()) return path;

  int cur = 0;
  for (std::size_t i = 1; i < nodes.size(); ++i)
    if (nodes[i].t_ns > nodes[static_cast<std::size_t>(cur)].t_ns)
      cur = static_cast<int>(i);
  path.seconds =
      static_cast<double>(nodes[static_cast<std::size_t>(cur)].t_ns) / 1e9;
  path.end_rank = nodes[static_cast<std::size_t>(cur)].rank;

  while (cur >= 0) {
    path.nodes.push_back(cur);
    const CommNode& node = nodes[static_cast<std::size_t>(cur)];
    int next = -1;
    if (node.seq > 0) next = g.index_of(node.rank, node.seq - 1);
    if (node.kind == EventKind::Recv && node.match >= 0) {
      if (next < 0 ||
          nodes[static_cast<std::size_t>(node.match)].t_ns >
              nodes[static_cast<std::size_t>(next)].t_ns)
        next = node.match;
    }
    cur = next;
  }
  std::reverse(path.nodes.begin(), path.nodes.end());
  return path;
}

}  // namespace

CriticalPath extract_critical_path(const CommGraph& g) {
  CriticalPath path = walk(g);
  path.slack_seconds.assign(static_cast<std::size_t>(g.nranks()),
                            path.seconds);
  for (const CommNode& node : g.nodes()) {
    double& slack = path.slack_seconds[static_cast<std::size_t>(node.rank)];
    slack = std::min(slack,
                     path.seconds - static_cast<double>(node.t_ns) / 1e9);
  }
  return path;
}

CriticalPath extract_critical_path(const CommGraph& g,
                                   const telemetry::TelemetryBoard& tel) {
  CriticalPath path = walk(g);
  path.slack_seconds.assign(static_cast<std::size_t>(g.nranks()), 0.0);
  const int nr = std::min(g.nranks(), tel.nranks());
  for (int r = 0; r < nr; ++r)
    path.slack_seconds[static_cast<std::size_t>(r)] =
        std::max(0.0, path.seconds - tel.busy_seconds(r));
  return path;
}

}  // namespace conflux::verify
