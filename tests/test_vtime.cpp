// The virtual-time execution mode: cooperative-fiber scheduling at rank
// counts far beyond the host's cores, LogGP clock semantics, bit-identical
// determinism across repeated runs and worker counts, CommVolume parity
// with the threaded rank team, the make_tag wide-layout regression, and
// shared-channel-slot stress at P = 256, and a numeric factorization on
// the fiber scheduler with more than one worker. Also the fiber switch
// (register and stack state survive parks and worker migration), the
// scheduler's deadlock count and the channel FIFO (per-tag order under
// out-of-order receives, one allocation per queued message, nothing owned
// once drained).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <set>
#include <thread>
#include <vector>

#include "linalg/generate.hpp"
#include "lu/lu_common.hpp"
#include "simnet/collectives.hpp"
#include "simnet/spmd.hpp"
#include "simnet/vtime.hpp"
#include "support/telemetry.hpp"
#include "support/thread_pool.hpp"

namespace {
std::atomic<std::int64_t> g_news{0};
std::atomic<std::int64_t> g_deletes{0};
}  // namespace

// Counting global allocator for the channel-memory tests: allocations and
// frees are counted separately, so their difference is the number of live
// heap blocks. new and delete are replaced as a matched malloc/free pair;
// GCC's mismatch heuristic cannot see that both replacements are active at
// once, hence the pragma.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept {
  if (p != nullptr) g_deletes.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  if (p != nullptr) g_deletes.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
#pragma GCC diagnostic pop

namespace conflux::simnet {
namespace {

std::int64_t live_heap_blocks() {
  return g_news.load(std::memory_order_relaxed) -
         g_deletes.load(std::memory_order_relaxed);
}

FabricSpec virtual_fabric(double alpha = 1e-6, double beta = 1e-10,
                          double gamma = 0.0) {
  FabricSpec spec;
  spec.mode = ExecMode::VirtualTime;
  spec.link = LinkModel{alpha, beta, gamma};
  return spec;
}

/// Scoped environment override (CONFLUX_VT_WORKERS etc).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old, had_ = true;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_)
      ::setenv(name_, saved_.c_str(), 1);
    else
      ::unsetenv(name_);
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

// --- make_tag regression (satellite bugfix) --------------------------------

TEST(MakeTag, FormerlyCollidingPairRoundTripsDistinctly) {
  // Under the historical layout (phase<<40 | step<<12 | sub & 0xFFF) a
  // rank-indexed sub at paper scale wrapped: sub = 4096 aliased sub = 0 in
  // release builds. The wide layout keeps them distinct.
  EXPECT_NE(make_tag(1, 0, 4096), make_tag(1, 0, 0));
  EXPECT_NE(make_tag(1, 0, 4095 + 1), make_tag(1, 1, 0));
  // Round-trip through the documented field layout.
  const Tag t = make_tag(7, 1234, 4095 + 42);
  EXPECT_EQ(t >> (kTagStepBits + kTagSubBits), 7u);
  EXPECT_EQ((t >> kTagSubBits) & ((1u << kTagStepBits) - 1), 1234u);
  EXPECT_EQ(t & ((1u << kTagSubBits) - 1), 4095u + 42u);
}

TEST(MakeTag, RangeCheckIsUnconditional) {
  EXPECT_THROW((void)make_tag(1u << 12, 0, 0), ContractViolation);
  EXPECT_THROW((void)make_tag(0, 1u << 24, 0), ContractViolation);
  EXPECT_THROW((void)make_tag(0, 0, 1u << 20), ContractViolation);
  // P = 4096 rank-indexed subs are in range — the point of the rebalance.
  EXPECT_NO_THROW((void)make_tag(4095, (1u << 24) - 1, 4096));
}

TEST(MakeTag, StaysInsideCollectiveRoundTagBudget) {
  // Collectives shift user tags left 8 bits for round tags; the widest
  // composed tag must still fit in 56 bits.
  const Tag widest =
      make_tag((1u << 12) - 1, (1u << 24) - 1, (1u << 20) - 1);
  EXPECT_LT(widest, Tag{1} << 56);
}

// --- basic virtual-time execution ------------------------------------------

TEST(VirtualTime, RingExchangeCompletesBeyondCoreCount) {
  const int p = 512;  // far beyond any laptop's core count
  Network net(p, virtual_fabric());
  run_spmd(net, [&](Comm& comm) {
    const int r = comm.rank();
    const std::vector<double> payload{static_cast<double>(r)};
    comm.send((r + 1) % comm.size(), make_tag(1, 0, r), payload);
    const std::vector<double> got =
        comm.recv((r + comm.size() - 1) % comm.size(),
                  make_tag(1, 0, (r + comm.size() - 1) % comm.size()));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], (r + comm.size() - 1) % comm.size());
  });
  EXPECT_EQ(net.stats().total().messages_sent, static_cast<std::uint64_t>(p));
  EXPECT_GT(net.virtual_makespan(), 0.0);
}

TEST(VirtualTime, LogGpClockArithmeticIsExact) {
  const double alpha = 2e-6;
  const double beta = 5e-10;
  Network net(2, virtual_fabric(alpha, beta));
  double clock0 = -1;
  double clock1 = -1;
  run_spmd(net, [&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, make_tag(1, 0, 0), std::vector<double>(8, 1.0));
      clock0 = comm.virtual_seconds();
    } else {
      (void)comm.recv(0, make_tag(1, 0, 0));
      clock1 = comm.virtual_seconds();
    }
  });
  // Sender: 64 bytes * beta of injection. Receiver: idle until the arrival
  // instant (sender clock + alpha).
  EXPECT_DOUBLE_EQ(clock0, 64 * beta);
  EXPECT_DOUBLE_EQ(clock1, 64 * beta + alpha);
  EXPECT_DOUBLE_EQ(net.virtual_makespan(), 64 * beta + alpha);
  EXPECT_DOUBLE_EQ(net.virtual_seconds(1), 64 * beta + alpha);
}

TEST(VirtualTime, SelfSendsAreFree) {
  Network net(1, virtual_fabric());
  run_spmd(net, [&](Comm& comm) {
    comm.send(0, make_tag(1, 0, 0), std::vector<double>(1024, 0.0));
    (void)comm.recv(0, make_tag(1, 0, 0));
  });
  EXPECT_DOUBLE_EQ(net.virtual_makespan(), 0.0);
}

TEST(VirtualTime, ChargeFlopsAdvancesTheClock) {
  const double gamma = 1e-11;
  Network net(2, virtual_fabric(1e-6, 1e-10, gamma));
  run_spmd(net, [&](Comm& comm) { comm.charge_flops(1e9); });
  EXPECT_DOUBLE_EQ(net.virtual_makespan(), 1e9 * gamma);
  // Threaded mode: charge_flops is a no-op.
  Network threaded(2);
  run_spmd(threaded, [&](Comm& comm) { comm.charge_flops(1e9); });
  EXPECT_DOUBLE_EQ(threaded.virtual_makespan(), 0.0);
}

TEST(VirtualTime, DeadlockIsDetectedAndReported) {
  // One worker and several: the rerun after the abort must find every
  // worker queue reset, whichever worker the abort ran on.
  for (const char* w : {"1", "4"}) {
    ScopedEnv workers("CONFLUX_VT_WORKERS", w);
    Network net(2, virtual_fabric());
    // Typed diagnostic (ConfChaos): deadlock() marks it deterministic, and
    // the parked snapshot names the stuck rank and its (src, tag).
    try {
      run_spmd(net, [&](Comm& comm) {
        if (comm.rank() == 0) (void)comm.recv(1, make_tag(2, 0, 0));
      });
      FAIL() << "deadlock not detected with " << w << " workers";
    } catch (const ReceiveTimeout& e) {
      EXPECT_TRUE(e.deadlock()) << w << " workers";
      ASSERT_EQ(e.parked().size(), 1u) << w << " workers";
      EXPECT_EQ(e.parked()[0].rank, 0);
      EXPECT_EQ(e.parked()[0].src, 1);
      EXPECT_EQ(e.parked()[0].tag, make_tag(2, 0, 0));
    }
    // The fabric recovers: a subsequent run over the same network works.
    run_spmd(net, [&](Comm& comm) {
      if (comm.rank() == 0)
        comm.send(1, make_tag(3, 0, 0), std::vector<double>{1.0});
      else
        (void)comm.recv(0, make_tag(3, 0, 0));
    });
  }
}

TEST(VirtualTime, DeadlockIsDetectedAndReportedAtScale) {
  // 64 ranks, 8 of them parked forever on a message nobody sends while the
  // rest run a ring exchange and finish. The ready + running count must
  // reach zero exactly once the ring drains, with one worker or several
  // stealing from each other, and the snapshot must name all 8.
  const int p = 64;
  for (const char* w : {"1", "4"}) {
    ScopedEnv workers("CONFLUX_VT_WORKERS", w);
    Network net(p, virtual_fabric());
    try {
      run_spmd(net, [&](Comm& comm) {
        const int r = comm.rank();
        if (r % 8 == 5) {
          (void)comm.recv((r + 1) % p, make_tag(9, 1, r));
          return;
        }
        for (int i = 0; i < 50; ++i) {
          int next = (r + 1) % p;
          int prev = (r + p - 1) % p;
          while (next % 8 == 5) next = (next + 1) % p;
          while (prev % 8 == 5) prev = (prev + p - 1) % p;
          comm.send_ghost(next, make_tag(9, 0, i), 8);
          (void)comm.recv_ghost(prev, make_tag(9, 0, i));
        }
      });
      FAIL() << "deadlock not detected with " << w << " workers";
    } catch (const ReceiveTimeout& e) {
      EXPECT_TRUE(e.deadlock()) << w << " workers";
      ASSERT_EQ(e.parked().size(), 8u) << w << " workers";
      for (const ParkedRank& pr : e.parked()) {
        EXPECT_EQ(pr.rank % 8, 5) << w << " workers";
        EXPECT_EQ(pr.src, (pr.rank + 1) % p);
        EXPECT_EQ(pr.tag, make_tag(9, 1, static_cast<std::uint32_t>(pr.rank)));
      }
    }
  }
}

TEST(VirtualTime, RankExceptionPropagatesAndAborts) {
  Network net(8, virtual_fabric());
  EXPECT_THROW(run_spmd(net,
                        [&](Comm& comm) {
                          if (comm.rank() == 3)
                            throw std::runtime_error("rank 3 failed");
                          // Everyone else blocks on a message that never
                          // comes; the abort must wake them.
                          (void)comm.recv((comm.rank() + 1) % comm.size(),
                                          make_tag(2, 1, 0));
                        }),
               std::runtime_error);
}

// --- collectives over fibers ------------------------------------------------

TEST(VirtualTime, CollectivesRunAtScale) {
  const int p = 256;
  Network net(p, virtual_fabric());
  std::vector<double> sums(static_cast<std::size_t>(p), 0.0);
  run_spmd(net, [&](Comm& comm) {
    const Group all = Group::iota(p);
    std::vector<double> v{static_cast<double>(comm.rank() + 1)};
    allreduce_sum(comm, all, v, make_tag(4, 0, 0));
    sums[static_cast<std::size_t>(comm.rank())] = v[0];
  });
  const double expect = p * (p + 1) / 2.0;
  for (int r = 0; r < p; ++r)
    EXPECT_DOUBLE_EQ(sums[static_cast<std::size_t>(r)], expect) << "rank " << r;
}

// --- shared channel slots at P = 256 (satellite bugfix) ---------------------

TEST(VirtualTime, SharedSlotFanInMatchesEverySourceAndTag) {
  // 256 sources hash onto 64 channel slots: four sources share each slot of
  // rank 0. Rank 0 drains them in *reverse* rank order so nearly every
  // receive targets a slot holding several queued sources, exercising the
  // targeted wakeup filter and (src, tag)-keyed matching under sharing.
  const int p = 256;
  Network net(p, virtual_fabric());
  telemetry::TelemetryBoard board;
  net.set_telemetry(&board);
  ScopedEnv workers("CONFLUX_VT_WORKERS", "1");
  run_spmd(net, [&](Comm& comm) {
    const int r = comm.rank();
    if (r != 0)
      comm.send(0, make_tag(5, 7, r), std::vector<double>{r * 1.0, r * 2.0});
    else
      for (int src = p - 1; src >= 1; --src) {
        const std::vector<double> got = comm.recv(src, make_tag(5, 7, src));
        ASSERT_EQ(got.size(), 2u);
        EXPECT_EQ(got[0], src * 1.0);
        EXPECT_EQ(got[1], src * 2.0);
      }
  });
  // Per-destination queue-depth high-water mark: with one worker, rank 0
  // parks on rank 255 first, so all 255 messages are enqueued before the
  // drain starts. The per-slot accounting this replaced could only ever
  // report ~4 here (255 messages spread over 64 shared slots).
  EXPECT_GE(board.queue_hwm(0), 255);
  EXPECT_EQ(board.queue_hwm(1), 0);
}

TEST(ThreadedMode, SharedSlotQueueDepthIsPerDestination) {
  // Same misattribution check for the threaded fabric, at a rank count
  // small enough to run on OS threads but with slot sharing forced by
  // fan-in volume: every rank sends 8 messages to rank 0 before it drains.
  const int p = 16;
  Network net(p);
  telemetry::TelemetryBoard board;
  net.set_telemetry(&board);
  run_spmd(net, [&](Comm& comm) {
    const int r = comm.rank();
    const int kEach = 8;
    if (r != 0) {
      for (int i = 0; i < kEach; ++i)
        comm.send(0, make_tag(6, i, r), std::vector<double>{1.0});
      (void)comm.recv(0, make_tag(6, 99, r));  // hold until 0 saw them all
    } else {
      for (int src = 1; src < p; ++src)
        for (int i = 0; i < kEach; ++i)
          (void)comm.recv(src, make_tag(6, i, src));
      for (int dst = 1; dst < p; ++dst)
        comm.send(dst, make_tag(6, 99, dst), std::vector<double>{1.0});
    }
  });
  // Messages to rank 0 only ever count against rank 0's depth.
  EXPECT_GE(board.queue_hwm(0), 1);
  for (int r = 1; r < p; ++r) EXPECT_LE(board.queue_hwm(r), 1) << "rank " << r;
}

// --- determinism (satellite test task) --------------------------------------

struct RunResult {
  double makespan = 0;
  CommVolume total;
  std::vector<std::uint64_t> rank_bytes;
};

/// A traffic pattern with fan-in, fan-out, multicast and collectives —
/// enough structure that a scheduling-order dependence would show up in
/// the clocks.
RunResult traffic_mix_run(int p) {
  Network net(p, virtual_fabric(1.7e-6, 2.3e-10));
  run_spmd(net, [&](Comm& comm) {
    const int r = comm.rank();
    const int peer = (r * 7 + 3) % p;
    comm.send(peer, make_tag(1, 0, r), std::vector<double>(16, r * 1.0));
    for (int src = 0; src < p; ++src)
      if ((src * 7 + 3) % p == r) (void)comm.recv(src, make_tag(1, 0, src));
    if (r == 0) {
      std::vector<int> dsts;
      for (int d = 1; d < p; ++d) dsts.push_back(d);
      comm.multicast(dsts, make_tag(1, 1, 0),
                     make_shared_buffer(std::vector<double>(32, 1.0)));
    } else {
      (void)comm.recv_view(0, make_tag(1, 1, 0));
    }
    comm.charge_flops(0);  // exercise the call on the hot path
  });
  RunResult res;
  res.makespan = net.virtual_makespan();
  res.total = net.stats().total();
  for (int r = 0; r < p; ++r)
    res.rank_bytes.push_back(net.stats().rank_volume(r).bytes_sent);
  return res;
}

void expect_bit_identical(const RunResult& a, const RunResult& b,
                          const char* what) {
  // Bit-level comparison: the determinism contract is exact, not approximate.
  EXPECT_EQ(std::memcmp(&a.makespan, &b.makespan, sizeof(double)), 0)
      << what << ": makespan " << a.makespan << " vs " << b.makespan;
  EXPECT_EQ(a.total.bytes_sent, b.total.bytes_sent) << what;
  EXPECT_EQ(a.total.messages_sent, b.total.messages_sent) << what;
  EXPECT_EQ(a.rank_bytes, b.rank_bytes) << what;
}

TEST(VirtualTimeDeterminism, RepeatedRunsAreBitIdentical) {
  const RunResult first = traffic_mix_run(96);
  for (int i = 0; i < 3; ++i)
    expect_bit_identical(first, traffic_mix_run(96), "repeat");
}

TEST(VirtualTimeDeterminism, WorkerCountDoesNotChangeResults) {
  RunResult base;
  {
    ScopedEnv workers("CONFLUX_VT_WORKERS", "1");
    base = traffic_mix_run(96);
  }
  // 2 and 3 workers split the initial ranks unevenly and steal unevenly.
  for (const char* w : {"2", "3", "4"}) {
    ScopedEnv workers("CONFLUX_VT_WORKERS", w);
    expect_bit_identical(base, traffic_mix_run(96), w);
  }
  // Hardware default (no override).
  expect_bit_identical(base, traffic_mix_run(96), "default workers");
}

// --- the fiber switch -------------------------------------------------------

/// The calling OS thread, read afresh on every call. pthread_self() is
/// declared const, so a direct call in a fiber may be reused across a park
/// — exactly the thread_local caching a migrating fiber must avoid.
[[gnu::noinline]] std::thread::id current_thread() {
  asm volatile("" ::: "memory");
  return std::this_thread::get_id();
}

TEST(VirtualTimeSwitch, LiveValuesSurviveParksAndMigration) {
  // Each fiber keeps six integers and four doubles live across 2000 parks
  // while up to 4 workers steal fibers from each other. The integers are
  // what the compiler keeps in callee-saved registers across the receive
  // call; the doubles live on the fiber stack. A switch that dropped a
  // register or misplaced the stack corrupts them. All arithmetic is exact
  // (integers, wrapping; doubles with integral values), so a replay of the
  // same recurrences without parks must match bit for bit.
  ScopedEnv workers("CONFLUX_VT_WORKERS", "4");
  const int p = 32;
  const int kRounds = 2000;
  struct Live {
    std::uint64_t i[6];
    double d[4];
  };
  const auto step = [](Live& v, int r, int k) {
    v.i[0] = v.i[0] * 6364136223846793005ull + 1442695040888963407ull;
    v.i[1] ^= v.i[0] >> 17;
    v.i[2] += v.i[1] * 3 + static_cast<std::uint64_t>(k);
    v.i[3] = (v.i[3] << 1) | (v.i[2] >> 63);
    v.i[4] -= v.i[3] ^ static_cast<std::uint64_t>(r);
    v.i[5] += v.i[4] >> 3;
    v.d[0] += 1.0;
    v.d[1] -= 0.5;
    v.d[2] += v.d[0] * 2.0;
    v.d[3] = v.d[3] * 0.5 + static_cast<double>(k % 7);
  };
  const auto init = [](int r) {
    Live v{};
    for (int j = 0; j < 6; ++j)
      v.i[j] = 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(r + j + 1);
    for (int j = 0; j < 4; ++j) v.d[j] = r * 4.0 + j;
    return v;
  };
  std::vector<Live> got(static_cast<std::size_t>(p));
  std::vector<int> threads_seen(static_cast<std::size_t>(p), 0);
  Network net(p, virtual_fabric());
  run_spmd(net, [&](Comm& comm) {
    const int r = comm.rank();
    Live v = init(r);
    std::uint64_t a = v.i[0], b = v.i[1], c = v.i[2], d = v.i[3],
                  e = v.i[4], f = v.i[5];
    double x = v.d[0], y = v.d[1], z = v.d[2], w = v.d[3];
    std::set<std::thread::id> threads{current_thread()};
    for (int k = 0; k < kRounds; ++k) {
      comm.send_ghost((r + 1) % p, make_tag(10, k, 0), 8);
      (void)comm.recv_ghost((r + p - 1) % p, make_tag(10, k, 0));
      if (k % 64 == 0) threads.insert(current_thread());
      Live t{{a, b, c, d, e, f}, {x, y, z, w}};
      step(t, r, k);
      a = t.i[0], b = t.i[1], c = t.i[2], d = t.i[3], e = t.i[4], f = t.i[5];
      x = t.d[0], y = t.d[1], z = t.d[2], w = t.d[3];
    }
    got[static_cast<std::size_t>(r)] = Live{{a, b, c, d, e, f}, {x, y, z, w}};
    threads_seen[static_cast<std::size_t>(r)] =
        static_cast<int>(threads.size());
  });
  int migrated = 0;
  for (int r = 0; r < p; ++r) {
    Live want = init(r);
    for (int k = 0; k < kRounds; ++k) step(want, r, k);
    const Live& have = got[static_cast<std::size_t>(r)];
    for (int j = 0; j < 6; ++j)
      EXPECT_EQ(have.i[j], want.i[j]) << "rank " << r << " int " << j;
    for (int j = 0; j < 4; ++j)
      EXPECT_EQ(have.d[j], want.d[j]) << "rank " << r << " double " << j;
    if (threads_seen[static_cast<std::size_t>(r)] > 1) ++migrated;
  }
  // The test is only meaningful if fibers actually changed threads.
  if (support::global_pool().size() > 1) {
    EXPECT_GT(migrated, 0);
  }
}

// --- channel FIFO -----------------------------------------------------------

/// Rank 0 interleaves tags A and B to rank 1; rank 1 drains every B before
/// any A, so each B receive scans past queued A entries. Payloads number
/// the messages per tag, so any reordering within a tag shows.
void tag_b_before_a(Comm& comm) {
  const Tag ta = make_tag(11, 0, 0);
  const Tag tb = make_tag(11, 1, 0);
  const int kEach = 64;
  if (comm.rank() == 0) {
    for (int i = 0; i < kEach; ++i) {
      comm.send(1, ta, std::vector<double>{static_cast<double>(i)});
      comm.send(1, tb, std::vector<double>{1000.0 + i});
    }
  } else {
    for (int i = 0; i < kEach; ++i)
      EXPECT_EQ(comm.recv(0, tb).at(0), 1000.0 + i) << "tag B #" << i;
    for (int i = 0; i < kEach; ++i)
      EXPECT_EQ(comm.recv(0, ta).at(0), static_cast<double>(i))
          << "tag A #" << i;
  }
}

TEST(Channel, PerTagFifoHoldsWhenTagBIsTakenFirst) {
  // One VT worker: a multi-worker run hands pool threads task closures
  // they free only after the join returns, which would blur the count.
  ScopedEnv workers("CONFLUX_VT_WORKERS", "1");
  for (const ExecMode mode : {ExecMode::Threaded, ExecMode::VirtualTime}) {
    FabricSpec spec = virtual_fabric();
    spec.mode = mode;
    Network net(2, spec);
    run_spmd(net, tag_b_before_a);  // warm-up: rank team, lazy state
    // Every queued entry was freed on its receive: a drained channel
    // keeps no heap memory behind.
    const std::int64_t before = live_heap_blocks();
    run_spmd(net, tag_b_before_a);
    EXPECT_EQ(live_heap_blocks(), before)
        << (mode == ExecMode::Threaded ? "threaded" : "virtual time");
  }
}

TEST(Channel, OneAllocationPerQueuedMessage) {
  // Ghost messages carry no payload, so the only per-message heap block
  // is the channel entry itself. One worker runs the sender to completion
  // before the receiver drains, so every message is queued at once.
  ScopedEnv workers("CONFLUX_VT_WORKERS", "1");
  Network net(2, virtual_fabric());
  const auto allocations = [&](int n) {
    const std::int64_t before = g_news.load(std::memory_order_relaxed);
    run_spmd(net, [n](Comm& comm) {
      for (int i = 0; i < n; ++i) {
        if (comm.rank() == 0)
          comm.send_ghost(1, make_tag(12, 0, 0), 8);
        else
          (void)comm.recv_ghost(0, make_tag(12, 0, 0));
      }
    });
    return g_news.load(std::memory_order_relaxed) - before;
  };
  (void)allocations(1);  // warm-up
  EXPECT_EQ(allocations(2000) - allocations(1000), 1000);
}

// --- threaded-mode parity (acceptance criterion) ----------------------------

TEST(VirtualTime, CommVolumeMatchesThreadedModeBitForBit) {
  const int p = 32;
  const auto body = [p](Comm& comm) {
    const int r = comm.rank();
    comm.send((r + 5) % p, make_tag(2, 0, r), std::vector<double>(r + 1, 1.0));
    (void)comm.recv((r + p - 5) % p, make_tag(2, 0, (r + p - 5) % p));
    const Group all = Group::iota(p);
    std::vector<double> v{1.0};
    allreduce_sum(comm, all, v, make_tag(2, 1, 0));
  };

  Network threaded(p);
  run_spmd(threaded, body);
  Network vt(p, virtual_fabric());
  run_spmd(vt, body);

  EXPECT_EQ(threaded.stats().total().bytes_sent, vt.stats().total().bytes_sent);
  EXPECT_EQ(threaded.stats().total().messages_sent, vt.stats().total().messages_sent);
  for (int r = 0; r < p; ++r) {
    const CommVolume a = threaded.stats().rank_volume(r);
    const CommVolume b = vt.stats().rank_volume(r);
    EXPECT_EQ(a.bytes_sent, b.bytes_sent) << "rank " << r;
    EXPECT_EQ(a.bytes_received, b.bytes_received) << "rank " << r;
    EXPECT_EQ(a.messages_sent, b.messages_sent) << "rank " << r;
    EXPECT_EQ(a.messages_received, b.messages_received) << "rank " << r;
  }
}

// --- virtual timestamps in telemetry ----------------------------------------

TEST(VirtualTime, TelemetrySpansCarryVirtualTimestamps) {
  const double alpha = 1e-6;
  const double beta = 1e-9;
  Network net(2, virtual_fabric(alpha, beta));
  telemetry::TelemetryBoard board;
  net.set_telemetry(&board);
  EXPECT_TRUE(board.virtual_clock());
  run_spmd(net, [&](Comm& comm) {
    telemetry::ScopedSpan span(&board, comm.rank(), "exchange");
    if (comm.rank() == 0)
      comm.send(1, make_tag(1, 0, 0), std::vector<double>(128, 0.0));
    else
      (void)comm.recv(0, make_tag(1, 0, 0));
  });
  // Rank 1's span closes at its post-receive virtual clock, not at a few
  // microseconds of host time.
  const auto& spans = board.rank_spans(1);
  ASSERT_EQ(spans.size(), 1u);
  const auto expect_ns =
      static_cast<std::uint64_t>((1024 * beta + alpha) * 1e9);
  EXPECT_EQ(spans[0].end_ns, expect_ns);
  // The receive recorded its blocked interval in virtual time.
  const auto& events = board.rank_events(1);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, telemetry::EventKind::Recv);
  EXPECT_EQ(events[0].begin_ns, 0u);
  EXPECT_EQ(events[0].end_ns, expect_ns);
}

// --- numeric runs on the fiber scheduler (regression) -----------------------

TEST(VirtualTime, NumericLuCompletesWithDefaultWorkers) {
  // A fiber resumed on the thread that started the run used to queue its
  // BLAS kernels' parallel_for chunks for pool workers that were all busy
  // running fibers, and the run hung (CTest's TIMEOUT turns a recurrence
  // into a failure). The default worker count is the pool size, so any
  // multi-core host runs this with several workers.
  const linalg::Matrix a =
      linalg::generate(256, linalg::MatrixKind::Uniform, 61);
  lu::LuConfig cfg;
  cfg.n = 256;
  cfg.p = 4;
  cfg.mode = lu::Mode::Numeric;
  cfg.fabric = virtual_fabric();
  const lu::LuResult res = lu::make_algorithm("COnfLUX")->run(&a, cfg);
  EXPECT_LT(res.residual, 1e-11) << res.grid;
  EXPECT_GT(res.predicted_seconds, 0.0);
}

}  // namespace
}  // namespace conflux::simnet
