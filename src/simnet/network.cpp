#include "simnet/network.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "support/assert.hpp"
#include "support/telemetry.hpp"

namespace conflux::simnet {

namespace {

/// Flip one bit of a payload (injected corruption). Exclusive payloads are
/// flipped in place; shared payloads are cloned first so only the targeted
/// recipient sees the corruption — the other members of a multicast alias
/// the pristine original, exactly like a per-link transmission error.
void flip_payload_bit(Message& msg, std::uint64_t bit) {
  auto flip = [bit](std::vector<double>& data) {
    if (data.empty()) return;
    double& word = data[static_cast<std::size_t>((bit / 64) % data.size())];
    std::uint64_t bits;
    std::memcpy(&bits, &word, sizeof(bits));
    bits ^= std::uint64_t{1} << (bit % 64);
    std::memcpy(&word, &bits, sizeof(bits));
  };
  if (msg.shared) {
    auto clone = std::make_shared<std::vector<double>>(*msg.shared);
    flip(*clone);
    msg.shared = std::move(clone);
  } else {
    flip(msg.exclusive);
  }
}

[[nodiscard]] std::size_t payload_doubles(const Message& msg) {
  return msg.shared ? msg.shared->size() : msg.exclusive.size();
}

/// Beyond this many sources, channel slots are shared (src % slots). Only
/// the destination thread waits on a slot, so sharing never adds waiters —
/// it only coarsens the wakeup filter at very large rank counts.
constexpr std::size_t kMaxChannelSlots = 64;

/// CPU-relax between spin probes.
inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

Network::Network(int nranks, FabricSpec spec)
    : nranks_(nranks),
      spec_(spec),
      slots_per_rank_(
          std::min<std::size_t>(static_cast<std::size_t>(nranks),
                                kMaxChannelSlots)),
      channels_(static_cast<std::size_t>(nranks) * slots_per_rank_),
      inbound_(static_cast<std::size_t>(nranks)),
      stats_(nranks) {
  CONFLUX_EXPECTS(nranks >= 1);
  // Spinning before blocking only pays when senders can make progress on
  // another core while the receiver burns cycles; on an oversubscribed host
  // the receiver must yield the core immediately instead.
  const unsigned hw = std::thread::hardware_concurrency();
  spin_iters_ = (hw > 1 && static_cast<int>(hw) >= nranks) ? 128 : 0;
  if (spec_.mode == ExecMode::VirtualTime)
    vt_ = std::make_unique<VtRuntime>(*this, nranks, spec_.link);
}

Network::~Network() { stop_team(); }

void Network::enqueue(int dst, int src, Tag tag, Message msg) {
  Channel& ch = channel(dst, src);
  // Per-destination depth/HWM; see Inbound for why this is not per-slot.
  Inbound& in = inbound_[static_cast<std::size_t>(dst)];
  const int depth = in.depth.fetch_add(1, std::memory_order_relaxed) + 1;
  int hwm = in.hwm.load(std::memory_order_relaxed);
  while (depth > hwm &&
         !in.hwm.compare_exchange_weak(hwm, depth, std::memory_order_relaxed))
    ;
  bool wake = false;
  {
    const std::lock_guard<std::mutex> lock(ch.mutex);
    ch.queue.push_back({src, tag, std::move(msg)});
    if (vt_ != nullptr) {
      // Fiber wakeup shares the channel mutex with the park handshake, so
      // a deliver concurrent with a park either lands before the parking
      // worker's queue re-check or observes the parked flag.
      vt_->wake_if_parked(dst, src, tag);
    } else {
      wake = ch.waiting && ch.waiting_src == src && ch.waiting_tag == tag;
    }
  }
  if (wake) ch.cv.notify_one();
}

void Network::set_telemetry(telemetry::TelemetryBoard* board) {
  telemetry_ = board;
  if (telemetry_ == nullptr) return;
  telemetry_->reset(nranks_);
  if (vt_ != nullptr) telemetry_->set_virtual_clock(vt_->clock_ns_array());
  // Queue high-water marks restart with the board so a reused Network
  // reports this run, not the union of all runs.
  for (Inbound& in : inbound_)
    in.hwm.store(in.depth.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
}

void Network::set_faults(FaultPlan* plan) {
  faults_ = plan;
  if (faults_ != nullptr) faults_->reset(nranks_);
}

/// Stamp the payload's FNV-1a fingerprint into the message. Shared payloads
/// are stamped whenever an event log is attached (the in-flight-mutation
/// lint) or integrity mode is on; exclusive payloads only under integrity
/// mode, where the stamp becomes a first-class end-to-end checksum.
void Network::stamp_fingerprint(Message& msg) const {
  if (msg.shared) {
    if (telemetry_ != nullptr || integrity_) {
      msg.fingerprint = payload_fingerprint(msg.shared);
      if (msg.fingerprint == 0) msg.fingerprint = 1;  // 0 means unstamped
    }
  } else if (integrity_ && !msg.exclusive.empty()) {
    msg.fingerprint =
        payload_fingerprint(std::span<const double>(msg.exclusive));
    if (msg.fingerprint == 0) msg.fingerprint = 1;
  }
}

/// Consult the fault plan for this remote message and apply the verdict:
/// corruption flips a payload bit (after stamping, so the receiver's
/// integrity check sees the mismatch); stalls and delays become virtual-
/// clock charges in VirtualTime mode, or a real sender sleep plus a
/// delivery-ripeness timestamp in Threaded mode. Also performs the LogGP
/// send charge, so injected chaos is makespan-visible in virtual time.
void Network::apply_injection(int src, int dst, Tag tag, Message& msg) {
  FaultPlan::Injection inj;
  if (faults_ != nullptr && src != dst)
    inj = faults_->at_delivery(src, dst, tag, payload_doubles(msg));
  if (inj.corrupt) flip_payload_bit(msg, inj.corrupt_bit);
  if (vt_ != nullptr) {
    // Charge the LogGP injection cost before the event log records the
    // Send so its timestamp reflects the post-send clock. Self-sends are free
    // (matching the StatsBoard accounting exemption).
    if (inj.stall_s > 0) vt_->charge_seconds(src, inj.stall_s);
    msg.vt_arrival = (src != dst)
                         ? vt_->charge_send(src, msg.logical_bytes) +
                               inj.delay_s
                         : vt_->clock_seconds(src);
  } else {
    if (inj.stall_s > 0)
      std::this_thread::sleep_for(std::chrono::duration<double>(inj.stall_s));
    if (inj.delay_s > 0)
      msg.not_before_ns =
          telemetry::now_ns() + static_cast<std::uint64_t>(inj.delay_s * 1e9);
  }
}

void Network::deliver(int src, int dst, Tag tag, Message msg) {
  CONFLUX_EXPECTS_CTX(src >= 0 && src < size() && dst >= 0 && dst < size(),
                      (CommContext{.src = src, .dst = dst}.with_tag(tag)));
  stats_.record_send(src, dst, msg.logical_bytes);
  stamp_fingerprint(msg);
  apply_injection(src, dst, tag, msg);
  if (telemetry_ != nullptr)
    telemetry_->record_send(src, dst, tag, msg.logical_bytes);
  enqueue(dst, src, tag, std::move(msg));
}

void Network::multicast(int src, std::span<const int> dsts, Tag tag,
                        SharedBuffer payload, std::size_t logical_bytes) {
  CONFLUX_EXPECTS_CTX(src >= 0 && src < size(),
                      (CommContext{.src = src}.with_tag(tag)));
  std::uint64_t fingerprint = 0;
  if ((telemetry_ != nullptr || integrity_) && payload) {
    fingerprint = payload_fingerprint(payload);
    if (fingerprint == 0) fingerprint = 1;
  }
  for (int dst : dsts) {
    CONFLUX_EXPECTS_CTX(dst >= 0 && dst < size(),
                        (CommContext{.src = src, .dst = dst}.with_tag(tag)));
    stats_.record_send(src, dst, logical_bytes);
    Message msg{payload, {}, logical_bytes, fingerprint, 0};
    // Each destination gets its own injection verdict (and pays its own
    // LogGP charge in virtual time): a P-way multicast is P sends, and a
    // corrupted copy reaches only its targeted recipient.
    apply_injection(src, dst, tag, msg);
    if (telemetry_ != nullptr)
      telemetry_->record_send(src, dst, tag, logical_bytes,
                              /*multicast=*/true);
    enqueue(dst, src, tag, std::move(msg));
  }
}

/// Re-check the shared-payload fingerprint stamped at deliver time (the
/// in-flight-mutation lint). Runs on the receiver's context once the
/// message has been matched.
void Network::check_fingerprint(int me, int src, Tag tag, const Message& m) {
  if (m.shared && m.fingerprint != 0) {
    std::uint64_t fp = payload_fingerprint(m.shared);
    if (fp == 0) fp = 1;
    if (fp != m.fingerprint) {
      std::ostringstream os;
      os << "shared payload mutated in flight "
         << CommContext{.rank = me, .src = src, .dst = me}.with_tag(tag);
      report_buffer_misuse(os.str());
    }
  }
}

/// End-to-end integrity verification (Network::set_integrity): recompute
/// the payload fingerprint on the receiver and compare against the stamp
/// from deliver time. Runs before the event log's mutation lint, so injected
/// corruption surfaces as the typed PayloadCorrupted, never as a
/// ContractViolation from the lint.
void Network::check_integrity(int me, int src, Tag tag,
                              const Message& m) const {
  if (!integrity_ || m.fingerprint == 0) return;
  std::uint64_t fp = m.shared
                         ? payload_fingerprint(m.shared)
                         : payload_fingerprint(
                               std::span<const double>(m.exclusive));
  if (fp == 0) fp = 1;
  if (fp != m.fingerprint) {
    const CommContext ctx =
        CommContext{.rank = me, .src = src, .dst = me}.with_tag(tag);
    std::ostringstream os;
    os << "payload integrity violation: end-to-end fingerprint mismatch at "
          "receive "
       << ctx << " (" << payload_doubles(m) << " doubles, "
       << m.logical_bytes << " wire bytes)";
    throw PayloadCorrupted(os.str(), ctx);
  }
}

/// Every rank currently parked in a blocking receive. Threaded mode scans
/// the channel slots (each guarded by its own mutex — the caller must hold
/// none of them); virtual-time mode asks the fiber runtime.
std::vector<ParkedRank> Network::parked_snapshot() {
  if (vt_ != nullptr) return vt_->parked_snapshot();
  std::vector<ParkedRank> out;
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    Channel& ch = channels_[i];
    const std::lock_guard<std::mutex> lock(ch.mutex);
    if (ch.waiting)
      out.push_back({static_cast<int>(i / slots_per_rank_), ch.waiting_src,
                     ch.waiting_tag});
  }
  return out;
}

/// Build and throw the located timeout diagnostic for a receive that
/// exceeded the run policy's deadline. Must be called with no channel
/// mutex held (the parked snapshot takes them all in turn).
void Network::throw_receive_timeout(int me, int src, Tag tag,
                                    double waited_s) {
  std::vector<ParkedRank> parked = parked_snapshot();
  const CommContext ctx =
      CommContext{.rank = me, .src = src, .dst = me}.with_tag(tag);
  std::ostringstream os;
  os << "receive deadline exceeded after " << waited_s << " s " << ctx
     << ": no matching message from rank " << src << "; " << parked.size()
     << " other rank(s) parked in receives; inbound queue-depth HWM for "
        "rank "
     << me << " = "
     << inbound_[static_cast<std::size_t>(me)].hwm.load(
            std::memory_order_relaxed);
  throw ReceiveTimeout(os.str(), ctx, std::move(parked), /*deadlock=*/false);
}

Message Network::receive(int me, int src, Tag tag) {
  CONFLUX_EXPECTS_CTX(me >= 0 && me < size() && src >= 0 && src < size(),
                      (CommContext{.rank = me, .src = src, .dst = me}
                           .with_tag(tag)));
  if (vt_ != nullptr) return receive_vt(me, src, tag);
  Channel& ch = channel(me, src);
  // Blocked-interval start for the event log: stamped lazily, only after
  // the first probe misses — a receive whose message already arrived
  // records a zero-length wait, and with no log attached the receive never
  // touches the clock at all.
  std::uint64_t wait_begin = telemetry::kNoWait;

  // Take the first matching entry if it exists *and is ripe*: a
  // fault-injected link delay stamps a not-before instant, and FIFO order
  // within (src, tag) must hold, so an unripe first match means "nothing
  // yet" (ripe_at reports when to re-check).
  auto try_pop = [&](Message& out, std::uint64_t* ripe_at) {
    const auto it = ch.find(src, tag);
    if (it == ch.queue.end()) return false;
    if (it->msg.not_before_ns != 0) {
      const std::uint64_t now = telemetry::now_ns();
      if (now < it->msg.not_before_ns) {
        if (ripe_at != nullptr) *ripe_at = it->msg.not_before_ns;
        return false;
      }
    }
    out = std::move(it->msg);
    ch.queue.erase(it);
    inbound_[static_cast<std::size_t>(me)].depth.fetch_sub(
        1, std::memory_order_relaxed);
    return true;
  };

  // Runs on the receiver's thread once a message has been matched: counts
  // the receive, logs the Recv event with the time parked here, verifies
  // end-to-end integrity and re-checks the shared-payload fingerprint
  // (in-flight mutation lint).
  auto finish = [&](Message&& m) -> Message {
    stats_.record_recv(me, src);
    if (telemetry_ != nullptr)
      telemetry_->record_recv(me, src, tag, m.logical_bytes, wait_begin);
    check_integrity(me, src, tag, m);
    if (telemetry_ != nullptr) check_fingerprint(me, src, tag, m);
    return std::move(m);
  };

  Message msg;
  // Clock-free first probe: the common already-delivered case.
  {
    std::unique_lock<std::mutex> lock(ch.mutex, std::try_to_lock);
    if (lock.owns_lock() && try_pop(msg, nullptr))
      return finish(std::move(msg));
  }
  if (telemetry_ != nullptr) wait_begin = telemetry_->stamp_ns(me);

  // Short spin: cheap when a matching send is already in flight on another
  // core; skipped entirely (spin_iters_ == 0) when ranks outnumber cores.
  for (int i = 0; i < spin_iters_; ++i) {
    {
      std::unique_lock<std::mutex> lock(ch.mutex, std::try_to_lock);
      if (lock.owns_lock() && try_pop(msg, nullptr))
        return finish(std::move(msg));
    }
    if (aborted()) throw JobAborted{};
    cpu_pause();
  }

  const bool deadline_on = policy_.deadline_s > 0;
  const double heartbeat_s = std::max(policy_.heartbeat_s, 1e-3);
  std::uint64_t entered_ns = 0;  ///< stamped lazily on the first miss
  double waited_s = 0;
  bool timed_out = false;
  {
    std::unique_lock<std::mutex> lock(ch.mutex);
    for (;;) {
      if (aborted()) {
        ch.waiting = false;
        throw JobAborted{};
      }
      std::uint64_t ripe_at = 0;
      if (try_pop(msg, &ripe_at)) {
        ch.waiting = false;
        break;
      }
      if (deadline_on) {
        const std::uint64_t now = telemetry::now_ns();
        if (entered_ns == 0) entered_ns = now;
        const double elapsed = static_cast<double>(now - entered_ns) * 1e-9;
        if (elapsed >= policy_.deadline_s) {
          ch.waiting = false;
          waited_s = elapsed;
          timed_out = true;
          break;
        }
      }
      ch.waiting = true;
      ch.waiting_src = src;
      ch.waiting_tag = tag;
      if (ripe_at != 0) {
        // Nobody re-notifies when a delayed head ripens: bound the wait by
        // the time to ripeness (and the deadline heartbeat, if any).
        const std::uint64_t now = telemetry::now_ns();
        double until =
            ripe_at > now ? static_cast<double>(ripe_at - now) * 1e-9 : 0.0;
        if (deadline_on) until = std::min(until, heartbeat_s);
        ch.cv.wait_for(lock, std::chrono::duration<double>(until));
      } else if (deadline_on) {
        ch.cv.wait_for(lock, std::chrono::duration<double>(heartbeat_s));
      } else {
        ch.cv.wait(lock);
      }
    }
  }
  // The timeout diagnostic snapshots every channel — build it with our own
  // channel mutex released (it is not recursive).
  if (timed_out) throw_receive_timeout(me, src, tag, waited_s);
  return finish(std::move(msg));
}

/// Virtual-time receive: no clocks, no spinning — a miss parks the calling
/// fiber until the matching deliver wakes it. Once matched, the message's
/// simulated arrival instant is folded into the receiver's virtual clock
/// and the blocked interval is recorded in virtual time.
Message Network::receive_vt(int me, int src, Tag tag) {
  Channel& ch = channel(me, src);
  Message msg;
  for (;;) {
    bool got = false;
    {
      const std::lock_guard<std::mutex> lock(ch.mutex);
      const auto it = ch.find(src, tag);
      if (it != ch.queue.end()) {
        msg = std::move(it->msg);
        ch.queue.erase(it);
        inbound_[static_cast<std::size_t>(me)].depth.fetch_sub(
            1, std::memory_order_relaxed);
        got = true;
      }
    }
    if (got) break;
    if (aborted()) throw JobAborted{};
    vt_->park(me, src, tag);
    if (aborted()) throw JobAborted{};
  }
  const auto [begin_s, end_s] = vt_->absorb_arrival(me, msg.vt_arrival);
  if (policy_.virtual_deadline_s > 0 && end_s > policy_.virtual_deadline_s) {
    // The virtual-time analogue of the real-time deadline: a fault-stalled
    // simulated run whose clock blows past the cap fails deterministically
    // with the same typed diagnostic a threaded timeout produces.
    const CommContext ctx =
        CommContext{.rank = me, .src = src, .dst = me}.with_tag(tag);
    std::ostringstream os;
    os << "virtual-clock deadline exceeded: rank " << me << " reached "
       << end_s << " s > cap " << policy_.virtual_deadline_s << " s " << ctx;
    throw ReceiveTimeout(os.str(), ctx, vt_->parked_snapshot(),
                         /*deadlock=*/false);
  }
  stats_.record_recv(me, src);
  // After absorb_arrival, so the Recv event ends at the post-match clock.
  if (telemetry_ != nullptr)
    telemetry_->record_recv(me, src, tag, msg.logical_bytes,
                            static_cast<std::uint64_t>(begin_s * 1e9));
  check_integrity(me, src, tag, msg);
  if (telemetry_ != nullptr) check_fingerprint(me, src, tag, msg);
  return msg;
}

void Network::abort() {
  aborted_.store(true, std::memory_order_release);
  for (auto& ch : channels_) {
    const std::lock_guard<std::mutex> lock(ch.mutex);
    ch.cv.notify_all();
  }
  if (vt_ != nullptr) vt_->wake_all_parked();
}

double Network::virtual_makespan() const {
  return vt_ != nullptr ? vt_->makespan_seconds() : 0.0;
}

double Network::virtual_seconds(int rank) const {
  CONFLUX_EXPECTS(rank >= 0 && rank < nranks_);
  return vt_ != nullptr ? vt_->clock_seconds(rank) : 0.0;
}

void Network::charge_flops(int rank, double flops) {
  CONFLUX_EXPECTS(rank >= 0 && rank < nranks_);
  if (vt_ != nullptr) vt_->charge_flops(rank, flops);
}

void Network::note_rank_failure(int rank, std::string message) {
  const std::lock_guard<std::mutex> lock(failures_mutex_);
  rank_failures_.push_back({rank, std::move(message)});
}

std::vector<Network::RankFailure> Network::failure_report() const {
  std::vector<RankFailure> out;
  {
    const std::lock_guard<std::mutex> lock(failures_mutex_);
    out = rank_failures_;
  }
  std::sort(out.begin(), out.end(),
            [](const RankFailure& a, const RankFailure& b) {
              return a.rank < b.rank;
            });
  return out;
}

// --- persistent rank team ---------------------------------------------------

void Network::start_team() {
  if (!team_.empty()) return;
  team_.reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r)
    team_.emplace_back([this, r] { team_worker(r); });
}

void Network::stop_team() {
  {
    const std::lock_guard<std::mutex> lock(team_mutex_);
    team_shutdown_ = true;
  }
  team_work_cv_.notify_all();
  for (auto& t : team_) t.join();
  team_.clear();
}

void Network::team_worker(int rank) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(team_mutex_);
      team_work_cv_.wait(lock, [&] {
        return team_shutdown_ || team_generation_ != seen;
      });
      if (team_shutdown_) return;
      seen = team_generation_;
      job = team_job_;
    }
    try {
      (*job)(rank);
    } catch (const JobAborted&) {
      // Another rank failed first; nothing to record.
    } catch (const std::exception& e) {
      note_rank_failure(rank, e.what());
      {
        const std::lock_guard<std::mutex> lock(team_mutex_);
        if (!team_error_) team_error_ = std::current_exception();
      }
      abort();
    } catch (...) {
      note_rank_failure(rank, "unknown exception");
      {
        const std::lock_guard<std::mutex> lock(team_mutex_);
        if (!team_error_) team_error_ = std::current_exception();
      }
      abort();
    }
    bool last = false;
    {
      const std::lock_guard<std::mutex> lock(team_mutex_);
      last = (--team_remaining_ == 0);
    }
    if (last) team_done_cv_.notify_all();
  }
}

void Network::run_team(const std::function<void(int)>& job) {
  // A previous run may have been aborted mid-flight: reset the flag and
  // drain any stale messages so the new run starts from a clean fabric.
  if (aborted()) {
    for (auto& ch : channels_) {
      const std::lock_guard<std::mutex> lock(ch.mutex);
      ch.queue.clear();
      ch.waiting = false;
    }
    for (Inbound& in : inbound_) in.depth.store(0, std::memory_order_relaxed);
    aborted_.store(false, std::memory_order_release);
  }
  {
    const std::lock_guard<std::mutex> lock(failures_mutex_);
    rank_failures_.clear();
  }
  // Sequence counters restart per run: an identical rerun injects
  // identically (the determinism contract), and retries re-randomize
  // through FaultPlan::next_attempt, not through leftover counter state.
  if (faults_ != nullptr) faults_->begin_run();
  if (vt_ != nullptr) {
    run_vt(job);
    return;
  }
  start_team();
  {
    const std::lock_guard<std::mutex> lock(team_mutex_);
    team_job_ = &job;
    team_error_ = nullptr;
    team_remaining_ = nranks_;
    ++team_generation_;
  }
  team_work_cv_.notify_all();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(team_mutex_);
    team_done_cv_.wait(lock, [&] { return team_remaining_ == 0; });
    team_job_ = nullptr;
    error = std::move(team_error_);
    team_error_ = nullptr;
  }
  flush_queue_hwm();
  if (error) std::rethrow_exception(error);
}

/// Flush per-rank inbound queue-depth high-water marks into the telemetry
/// board. Called after the run_team / run_vt join, which synchronizes, so
/// the relaxed reads see every worker's final values.
void Network::flush_queue_hwm() {
  if (telemetry_ == nullptr) return;
  for (int dst = 0; dst < nranks_; ++dst)
    telemetry_->set_queue_hwm(
        dst, inbound_[static_cast<std::size_t>(dst)].hwm.load(
                 std::memory_order_relaxed));
}

void Network::run_vt(const std::function<void(int)>& job) {
  std::exception_ptr error;
  try {
    vt_->run(job, /*workers=*/0);
  } catch (...) {
    error = std::current_exception();
  }
  flush_queue_hwm();
  if (error) std::rethrow_exception(error);
}

}  // namespace conflux::simnet
