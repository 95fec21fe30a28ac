/// \file critical_path.hpp
/// ConfScope's critical-path analysis: lift a *timed* event log (each
/// event's completion stamp) onto the CommGraph's happens-before structure and
/// walk back from the globally latest event, at every node following the
/// later-finishing of its two possible predecessors — the program-order
/// predecessor on the same rank, or (for a receive) the matched send. The
/// resulting chain is by construction a happens-before path, and its end
/// time is the run's makespan: no schedule change that leaves the chain's
/// work in place can finish earlier.
///
/// Per-rank slack is the gap between the makespan and the time each rank's
/// own stream went quiet — the headroom a rank has before it would join the
/// critical path.
#pragma once

#include <vector>

#include "verify/comm_graph.hpp"

namespace conflux::verify {

/// One extracted critical path through a timed communication graph.
struct CriticalPath {
  /// Global CommGraph node indices, earliest first. Consecutive entries are
  /// connected by a program-order or send->recv edge, so
  /// happens_before(nodes[i], nodes[i+1]) holds for every i.
  std::vector<int> nodes;
  double seconds = 0;  ///< makespan: completion time of the last node
  int end_rank = -1;   ///< rank whose event ends the path
  /// Per-rank slack: makespan minus the completion time of the rank's last
  /// event (0 for the rank(s) that finish last; ranks with no events get
  /// the full makespan).
  std::vector<double> slack_seconds;
};

/// Extract the critical path of `g`. Requires an event log recorded live
/// (the fabric stamps every event); an empty graph yields an empty path.
[[nodiscard]] CriticalPath extract_critical_path(const CommGraph& g);

/// As above, but slack is computed against ConfScope's per-rank busy time
/// (makespan minus busy_seconds(r)) instead of stream-end times — the
/// idle+wait headroom of each rank. `tel` must cover the same run.
[[nodiscard]] CriticalPath extract_critical_path(
    const CommGraph& g, const telemetry::TelemetryBoard& tel);

}  // namespace conflux::verify
