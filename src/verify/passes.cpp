#include "verify/passes.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>

namespace conflux::verify {

namespace {

CommContext context_of(const CommNode& node) {
  CommContext c;
  c.rank = node.rank;
  c.step = node.seq;
  c.src = node.kind == EventKind::Send ? node.rank : node.peer;
  c.dst = node.kind == EventKind::Send ? node.peer : node.rank;
  return c.with_tag(node.tag);
}

Diagnostic make_diag(Severity sev, std::string pass, const CommNode& node,
                     const std::string& what) {
  Diagnostic d;
  d.severity = sev;
  d.pass = std::move(pass);
  d.context = context_of(node);
  std::ostringstream os;
  os << what << ' ' << d.context;
  d.message = os.str();
  return d;
}

}  // namespace

std::string to_string(const Diagnostic& d) {
  std::string out = d.severity == Severity::Error ? "error[" : "warning[";
  out += d.pass;
  out += "]: ";
  out += d.message;
  return out;
}

bool has_errors(const std::vector<Diagnostic>& diags) {
  return std::any_of(diags.begin(), diags.end(), [](const Diagnostic& d) {
    return d.severity == Severity::Error;
  });
}

std::vector<Diagnostic> check_matching(const CommGraph& g) {
  std::vector<Diagnostic> diags;
  for (const CommNode& node : g.nodes()) {
    if (node.match < 0) {
      diags.push_back(make_diag(
          Severity::Error, "matching", node,
          node.kind == EventKind::Send
              ? "send is never received (dropped message)"
              : "orphan recv: no send can ever satisfy this receive"));
      continue;
    }
    if (node.kind == EventKind::Send) {
      const CommNode& recv =
          g.nodes()[static_cast<std::size_t>(node.match)];
      if (recv.bytes != node.bytes) {
        std::ostringstream os;
        os << "matched pair disagrees on size: send carries " << node.bytes
           << " B, recv expects " << recv.bytes << " B";
        diags.push_back(
            make_diag(Severity::Error, "matching", node, os.str()));
      }
    }
  }
  return diags;
}

std::vector<Diagnostic> check_deadlock(const CommGraph& g) {
  std::vector<Diagnostic> diags;
  const int nranks = g.nranks();
  std::vector<char> issued(g.nodes().size(), 0);
  std::vector<int> ptr(static_cast<std::size_t>(nranks), 0);

  // Abstract replay: sends issue freely in program order, a recv completes
  // once its matched send has issued. The fixed point either retires every
  // node (schedule executable) or leaves a set of stalled ranks.
  bool progress = true;
  while (progress) {
    progress = false;
    for (int r = 0; r < nranks; ++r) {
      const auto stream = g.rank_nodes(r);
      while (ptr[static_cast<std::size_t>(r)] <
             static_cast<int>(stream.size())) {
        const CommNode& node =
            stream[static_cast<std::size_t>(ptr[static_cast<std::size_t>(r)])];
        if (node.kind == EventKind::Recv &&
            (node.match < 0 || !issued[static_cast<std::size_t>(node.match)]))
          break;
        issued[static_cast<std::size_t>(g.index_of(r, node.seq))] = 1;
        ++ptr[static_cast<std::size_t>(r)];
        progress = true;
      }
    }
  }

  // wait_for[r] = rank whose un-issued send r's blocking recv matches; -1
  // when not stalled, -2 when stalled on an orphan recv (matching error).
  std::vector<int> wait_for(static_cast<std::size_t>(nranks), -1);
  std::vector<const CommNode*> blocked_at(static_cast<std::size_t>(nranks),
                                          nullptr);
  for (int r = 0; r < nranks; ++r) {
    const auto stream = g.rank_nodes(r);
    const int at = ptr[static_cast<std::size_t>(r)];
    if (at >= static_cast<int>(stream.size())) continue;
    const CommNode& node = stream[static_cast<std::size_t>(at)];
    blocked_at[static_cast<std::size_t>(r)] = &node;
    wait_for[static_cast<std::size_t>(r)] =
        node.match < 0
            ? -2
            : g.nodes()[static_cast<std::size_t>(node.match)].rank;
  }

  // Cycles in the wait-for map are true deadlocks; walk each stalled rank's
  // chain once, reporting a found cycle through every member's blocked op.
  std::vector<int> state(static_cast<std::size_t>(nranks), 0);  // 0/1/2
  std::vector<char> in_cycle(static_cast<std::size_t>(nranks), 0);
  for (int start = 0; start < nranks; ++start) {
    if (wait_for[static_cast<std::size_t>(start)] < 0 ||
        state[static_cast<std::size_t>(start)] != 0)
      continue;
    std::vector<int> path;
    int r = start;
    while (r >= 0 && state[static_cast<std::size_t>(r)] == 0) {
      state[static_cast<std::size_t>(r)] = 1;
      path.push_back(r);
      r = wait_for[static_cast<std::size_t>(r)];
      if (r >= 0 && wait_for[static_cast<std::size_t>(r)] == -1) r = -1;
    }
    if (r >= 0 && state[static_cast<std::size_t>(r)] == 1) {
      // Found a cycle: r .. path.back().
      std::ostringstream cyc;
      const auto cycle_start =
          std::find(path.begin(), path.end(), r) - path.begin();
      for (std::size_t i = static_cast<std::size_t>(cycle_start);
           i < path.size(); ++i) {
        in_cycle[static_cast<std::size_t>(path[i])] = 1;
        const CommNode& node = *blocked_at[static_cast<std::size_t>(path[i])];
        cyc << (i == static_cast<std::size_t>(cycle_start) ? "" : " -> ")
            << "rank " << path[i] << " blocked in recv " << context_of(node);
      }
      const CommNode& head = *blocked_at[static_cast<std::size_t>(r)];
      diags.push_back(make_diag(Severity::Error, "deadlock", head,
                                "wait-for cycle: " + cyc.str()));
    }
    for (int p : path) state[static_cast<std::size_t>(p)] = 2;
  }

  // Stalls that are not part of a cycle (waiting, directly or transitively,
  // on an orphan recv or on a rank ahead of a cycle) still make the
  // schedule non-executable; report them so every stuck rank is located.
  for (int r = 0; r < nranks; ++r) {
    if (wait_for[static_cast<std::size_t>(r)] == -1 ||
        in_cycle[static_cast<std::size_t>(r)])
      continue;
    const CommNode& node = *blocked_at[static_cast<std::size_t>(r)];
    if (wait_for[static_cast<std::size_t>(r)] == -2) {
      diags.push_back(make_diag(
          Severity::Error, "deadlock", node,
          "rank stalls forever on a receive no send can satisfy"));
    } else {
      std::ostringstream os;
      os << "rank stalls: matched send on rank "
         << g.nodes()[static_cast<std::size_t>(node.match)].rank
         << " is never issued";
      diags.push_back(make_diag(Severity::Error, "deadlock", node, os.str()));
    }
  }
  return diags;
}

std::vector<Diagnostic> check_tags(const CommGraph& g) {
  std::vector<Diagnostic> diags;
  // Sends per directed (src, dst, tag) channel, in sender program order.
  std::map<std::tuple<int, int, simnet::Tag>, std::vector<int>> sends;
  for (std::size_t i = 0; i < g.nodes().size(); ++i) {
    const CommNode& node = g.nodes()[i];
    if (node.kind == EventKind::Send)
      sends[{node.rank, node.peer, node.tag}].push_back(static_cast<int>(i));
  }
  for (const auto& [key, list] : sends) {
    for (std::size_t k = 0; k + 1 < list.size(); ++k) {
      const CommNode& first = g.nodes()[static_cast<std::size_t>(list[k])];
      const CommNode& second =
          g.nodes()[static_cast<std::size_t>(list[k + 1])];
      // Safe reuse requires the earlier message to be out of the channel —
      // its receive causally before the next same-tag send.
      if (first.match >= 0 &&
          g.happens_before(first.match, list[k + 1]))
        continue;
      std::ostringstream os;
      os << "tag collision: two messages share this (src, dst, tag) channel "
            "with no happens-before between the first receive and the "
            "second send (seq " << first.seq << " and " << second.seq
         << " on rank " << first.rank << ')';
      diags.push_back(make_diag(Severity::Error, "tags", second, os.str()));
    }
  }
  return diags;
}

std::vector<Diagnostic> check_volume(const CommGraph& g,
                                     const VolumeExpectation& expect) {
  std::vector<Diagnostic> diags;
  auto add = [&](const std::string& msg) {
    Diagnostic d;
    d.severity = Severity::Error;
    d.pass = "volume";
    d.message = msg;
    diags.push_back(std::move(d));
  };

  // Per-rank accounting from the graph, mirroring StatsBoard's conventions
  // (self-sends are free under the uniform remote-cost model).
  simnet::CommVolume total;
  std::uint64_t received_total = 0;
  std::uint64_t max_rank = 0;
  std::vector<std::uint64_t> sent(static_cast<std::size_t>(g.nranks()), 0);
  std::vector<std::uint64_t> recvd(static_cast<std::size_t>(g.nranks()), 0);
  for (const CommNode& node : g.nodes()) {
    if (node.rank == node.peer) continue;
    if (node.kind == EventKind::Send) {
      total.bytes_sent += node.bytes;
      ++total.messages_sent;
      sent[static_cast<std::size_t>(node.rank)] += node.bytes;
    } else {
      received_total += node.bytes;
      recvd[static_cast<std::size_t>(node.rank)] += node.bytes;
    }
  }
  for (int r = 0; r < g.nranks(); ++r)
    max_rank = std::max(max_rank, sent[static_cast<std::size_t>(r)] +
                                      recvd[static_cast<std::size_t>(r)]);

  // A fully matched graph conserves bytes by construction; an unmatched one
  // leaks them. Check conservation first, then the cross-checks.
  if (total.bytes_sent != received_total) {
    std::ostringstream os;
    os << "volume not conserved: " << total.bytes_sent << " B sent vs "
       << received_total << " B received";
    add(os.str());
  }
  if (total.bytes_sent != expect.total.bytes_sent) {
    std::ostringstream os;
    os << "graph bytes_sent " << total.bytes_sent
       << " != CommVolume stats " << expect.total.bytes_sent;
    add(os.str());
  }
  if (total.messages_sent != expect.total.messages_sent) {
    std::ostringstream os;
    os << "graph messages_sent " << total.messages_sent
       << " != CommVolume stats " << expect.total.messages_sent;
    add(os.str());
  }
  if (expect.max_rank_bytes != 0 && max_rank != expect.max_rank_bytes) {
    std::ostringstream os;
    os << "graph max-rank bytes " << max_rank << " != CommVolume stats "
       << expect.max_rank_bytes;
    add(os.str());
  }
  if (expect.lower_bound_bytes > 0 &&
      static_cast<double>(total.bytes_sent) < expect.lower_bound_bytes) {
    std::ostringstream os;
    os << "measured volume " << total.bytes_sent
       << " B sits below the proven I/O lower bound "
       << expect.lower_bound_bytes << " B — accounting is broken";
    add(os.str());
  }
  return diags;
}

std::vector<Diagnostic> run_all_passes(const CommGraph& g,
                                       const VolumeExpectation& expect) {
  std::vector<Diagnostic> diags = check_matching(g);
  std::vector<Diagnostic> more = check_deadlock(g);
  diags.insert(diags.end(), std::make_move_iterator(more.begin()),
               std::make_move_iterator(more.end()));
  more = check_tags(g);
  diags.insert(diags.end(), std::make_move_iterator(more.begin()),
               std::make_move_iterator(more.end()));
  more = check_volume(g, expect);
  diags.insert(diags.end(), std::make_move_iterator(more.begin()),
               std::make_move_iterator(more.end()));
  return diags;
}

}  // namespace conflux::verify
