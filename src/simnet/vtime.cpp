#include "simnet/vtime.hpp"

#include <sys/mman.h>
#include <unistd.h>
#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <thread>

#include "simnet/network.hpp"
#include "support/assert.hpp"
#include "support/env.hpp"
#include "support/thread_pool.hpp"

// Sanitizer fiber annotations: ASan must be told about stack switches so its
// fake-stack bookkeeping follows the fibers, and TSan models each fiber as
// its own logical thread (switching synchronizes, so the cooperative
// handoffs carry happens-before edges).
#if defined(__SANITIZE_ADDRESS__)
#define CONFLUX_VT_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define CONFLUX_VT_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CONFLUX_VT_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define CONFLUX_VT_TSAN 1
#endif
#endif
#if defined(CONFLUX_VT_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(CONFLUX_VT_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__x86_64__)
// The fiber switch (System V x86-64). conflux_vt_switch(save, load) pushes
// the callee-saved registers and the MXCSR/x87 control words onto the
// current stack, stores rsp into *save, loads rsp from `load` and pops the
// same frame from there; its `ret` lands in whatever called the switch on
// that stack. No signal mask is touched, so a switch is a few dozen
// instructions instead of swapcontext's two rt_sigprocmask syscalls.
// The `ret` into another stack assumes CET shadow stacks are off; the build
// compiles this file with -fcf-protection=none so no binary claims
// shadow-stack compatibility (CMakeLists.txt).
//
// A fresh fiber's first frame (built by fiber_make) "returns" into
// conflux_vt_entry with the entry function in rbx and its argument in r12;
// the stub calls entry(arg), which never returns. rip is marked undefined
// in the stub's CFI so unwinders stop there.
extern "C" void conflux_vt_switch(void** save_sp, void* load_sp);
extern "C" void conflux_vt_entry();
asm(R"(
    .text
    .p2align 4
    .globl conflux_vt_switch
    .hidden conflux_vt_switch
    .type conflux_vt_switch, @function
conflux_vt_switch:
    .cfi_startproc
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .cfi_endproc
    .size conflux_vt_switch, .-conflux_vt_switch

    .p2align 4
    .globl conflux_vt_entry
    .hidden conflux_vt_entry
    .type conflux_vt_entry, @function
conflux_vt_entry:
    .cfi_startproc
    .cfi_undefined %rip
    movq %r12, %rdi
    callq *%rbx
    ud2
    .cfi_endproc
    .size conflux_vt_entry, .-conflux_vt_entry
)");
#endif

namespace conflux::simnet {

namespace {

/// Usable fiber stack size. Fibers run the same rank bodies the OS-thread
/// team runs (numeric kernels included), so the default leaves headroom;
/// sanitizer builds triple frame sizes, hence the larger floor there. The
/// stacks are lazily committed mmap regions — 4096 ranks reserve virtual
/// address space only for pages never touched.
std::size_t fiber_stack_bytes() {
#if defined(CONFLUX_VT_ASAN) || defined(CONFLUX_VT_TSAN)
  const std::int64_t kb = env_int("CONFLUX_VT_STACK_KB", 1024);
#else
  const std::int64_t kb = env_int("CONFLUX_VT_STACK_KB", 512);
#endif
  return static_cast<std::size_t>(std::max<std::int64_t>(64, kb)) * 1024;
}

std::size_t page_size() {
  static const std::size_t ps =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return ps;
}

#if defined(CONFLUX_VT_TSAN)
thread_local void* tl_worker_tsan_fiber = nullptr;
#endif
#if defined(CONFLUX_VT_ASAN)
thread_local void* tl_worker_fake_stack = nullptr;
#endif

// --- the two-function fiber interface --------------------------------------
// fiber_make builds a context that starts `entry(arg)` on a stack;
// fiber_switch saves the running context into `from` and resumes `to`.

#if defined(__x86_64__)

struct FiberContext {
  void* sp = nullptr;  ///< saved stack pointer (top of the saved frame)
};

void fiber_make(FiberContext& f, void* stack_base, std::size_t stack_bytes,
                void (*entry)(void*), void* arg) {
  const std::uintptr_t top =
      (reinterpret_cast<std::uintptr_t>(stack_base) + stack_bytes) &
      ~std::uintptr_t{15};
  // The frame conflux_vt_switch pops, lowest address first: control words,
  // r15, r14, r13, r12 (arg), rbx (entry), rbp (0 ends frame-pointer
  // walks), return address, then 16 bytes of padding so the entry stub
  // runs with rsp 16-byte aligned, as the ABI wants before its call.
  auto* frame = reinterpret_cast<std::uintptr_t*>(top) - 10;
  std::uint32_t mxcsr = 0;
  std::uint16_t fpucw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fpucw));
  frame[0] = mxcsr | (static_cast<std::uintptr_t>(fpucw) << 32);
  frame[1] = frame[2] = frame[3] = 0;
  frame[4] = reinterpret_cast<std::uintptr_t>(arg);
  frame[5] = reinterpret_cast<std::uintptr_t>(entry);
  frame[6] = 0;
  frame[7] = reinterpret_cast<std::uintptr_t>(&conflux_vt_entry);
  frame[8] = frame[9] = 0;
  f.sp = frame;
}

inline void fiber_switch(FiberContext& from, FiberContext& to) {
  conflux_vt_switch(&from.sp, to.sp);
}

#else  // ucontext fallback: the only switch that runs off x86-64

struct FiberContext {
  ucontext_t uc{};
};

/// makecontext passes only ints portably: the entry function and its
/// argument arrive split into 32-bit halves.
void fiber_entry_ucontext(unsigned int eh, unsigned int el, unsigned int ah,
                          unsigned int al) {
  const auto join = [](unsigned int hi, unsigned int lo) {
    return (static_cast<std::uintptr_t>(hi) << 32) |
           static_cast<std::uintptr_t>(lo);
  };
  reinterpret_cast<void (*)(void*)>(join(eh, el))(
      reinterpret_cast<void*>(join(ah, al)));
}

void fiber_make(FiberContext& f, void* stack_base, std::size_t stack_bytes,
                void (*entry)(void*), void* arg) {
  CONFLUX_ASSERT(::getcontext(&f.uc) == 0);
  f.uc.uc_stack.ss_sp = stack_base;
  f.uc.uc_stack.ss_size = stack_bytes;
  f.uc.uc_link = nullptr;
  const auto e = reinterpret_cast<std::uintptr_t>(entry);
  const auto a = reinterpret_cast<std::uintptr_t>(arg);
  ::makecontext(&f.uc, reinterpret_cast<void (*)()>(&fiber_entry_ucontext), 4,
                static_cast<unsigned int>(e >> 32),
                static_cast<unsigned int>(e & 0xFFFFFFFFu),
                static_cast<unsigned int>(a >> 32),
                static_cast<unsigned int>(a & 0xFFFFFFFFu));
}

inline void fiber_switch(FiberContext& from, FiberContext& to) {
  ::swapcontext(&from.uc, &to.uc);
}

#endif

}  // namespace

/// One simulated rank's cooperative context: a fiber on an mmap'd guarded
/// stack, the park/wake handshake state, and the rank's virtual clock.
/// `parked`, `wait_src` and `wait_tag` are written by the rank's own worker
/// under `park_mutex` and read by delivering fibers under the same mutex;
/// everything else is touched only by the fiber itself or by the worker
/// that just suspended/resumed it (hand-off through a run queue's mutex
/// provides the happens-before edge).
struct VtRuntime::RankCtx {
  enum class Phase : std::uint8_t { Ready, Running, Blocking, Parked, Done };

  FiberContext ctx;
  FiberContext* return_ctx = nullptr;  ///< resuming worker's context
  Worker* worker = nullptr;  ///< worker running the fiber (set per resume)
  void* map = nullptr;       ///< mmap base (guard page first)
  std::size_t map_bytes = 0;
  void* stack_base = nullptr;  ///< usable stack bottom
  std::size_t stack_bytes = 0;
  int rank = -1;
  VtRuntime* rt = nullptr;
  Phase phase = Phase::Ready;

  int wait_src = -1;
  Tag wait_tag = 0;
  bool parked = false;
  std::mutex park_mutex;

  double vclock = 0;  ///< virtual seconds; owned by the rank's fiber

#if defined(CONFLUX_VT_ASAN)
  void* fake_stack = nullptr;
  const void* worker_bottom = nullptr;
  std::size_t worker_size = 0;
#endif
#if defined(CONFLUX_VT_TSAN)
  void* return_tsan = nullptr;
  void* tsan_fiber = nullptr;
#endif
};

/// One worker thread's run queue: a ring of ready rank ids. A rank sits in
/// at most one queue at a time, so a capacity of nranks never overflows and
/// the queue never allocates after setup. The owner runs its newest entry
/// first (a just-woken fiber's message is still hot in cache); thieves take
/// the oldest. `size` mirrors the fill level so thieves can skip short
/// queues without taking their mutex.
struct alignas(64) VtRuntime::Worker {
  int index = 0;
  std::mutex mutex;
  std::vector<int> ring;  ///< guarded by `mutex`
  std::size_t head = 0;   ///< guarded by `mutex`
  std::atomic<std::size_t> size{0};

  // The ring operations below require `mutex` (or a single-threaded setup).
  void push_back(int rank) {
    const std::size_t n = size.load(std::memory_order_relaxed);
    std::size_t tail = head + n;
    if (tail >= ring.size()) tail -= ring.size();
    ring[tail] = rank;
    size.store(n + 1, std::memory_order_relaxed);
  }
  int pop_front() {
    const std::size_t n = size.load(std::memory_order_relaxed);
    if (n == 0) return -1;
    const int rank = ring[head];
    if (++head == ring.size()) head = 0;
    size.store(n - 1, std::memory_order_relaxed);
    return rank;
  }
  int pop_back() {
    const std::size_t n = size.load(std::memory_order_relaxed);
    if (n == 0) return -1;
    std::size_t tail = head + n - 1;
    if (tail >= ring.size()) tail -= ring.size();
    size.store(n - 1, std::memory_order_relaxed);
    return ring[tail];
  }
};

struct VtRuntime::Impl {
  std::vector<std::unique_ptr<RankCtx>> ranks;
  std::vector<std::uint64_t> clock_ns;  ///< vclock mirror for the event log

  std::vector<std::unique_ptr<Worker>> workers;
  /// Ready + running fibers. A wake adds one before its push (while the
  /// waker itself is still counted as running); a real park or a finish
  /// subtracts one. Reaching zero therefore means no fiber can ever run
  /// again: every rank finished, or every live rank is parked (deadlock).
  std::atomic<int> runnable{0};
  std::atomic<int> finished{0};
  std::atomic<bool> stop{false};
  std::atomic<int> sleepers{0};  ///< workers waiting on idle_cv
  std::mutex idle_mutex;
  std::condition_variable idle_cv;

  const std::function<void(int)>* job = nullptr;
  std::mutex error_mutex;
  std::exception_ptr error;
};

VtRuntime::VtRuntime(Network& net, int nranks, LinkModel link)
    : net_(&net), nranks_(nranks), link_(link), impl_(new Impl) {
  CONFLUX_EXPECTS(nranks >= 1);
  CONFLUX_EXPECTS(link.alpha_s >= 0 && link.beta_s_per_byte >= 0 &&
                  link.gamma_s_per_flop >= 0);
  impl_->ranks.reserve(static_cast<std::size_t>(nranks));
  impl_->clock_ns.assign(static_cast<std::size_t>(nranks), 0);
  const std::size_t stack = fiber_stack_bytes();
  const std::size_t guard = page_size();
  for (int r = 0; r < nranks; ++r) {
    auto c = std::make_unique<RankCtx>();
    c->rank = r;
    c->rt = this;
    c->map_bytes = stack + guard;
    c->map = ::mmap(nullptr, c->map_bytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    CONFLUX_EXPECTS_MSG(c->map != MAP_FAILED,
                        "mmap of a " << c->map_bytes
                                     << "-byte fiber stack failed (rank " << r
                                     << " of " << nranks << ")");
    // Guard page at the low end: stack overflow faults instead of silently
    // corrupting the neighbouring fiber's stack.
    ::mprotect(c->map, guard, PROT_NONE);
    c->stack_base = static_cast<char*>(c->map) + guard;
    c->stack_bytes = stack;
#if defined(CONFLUX_VT_TSAN)
    c->tsan_fiber = __tsan_create_fiber(0);
#endif
    impl_->ranks.push_back(std::move(c));
  }
}

VtRuntime::~VtRuntime() {
  for (auto& c : impl_->ranks) {
#if defined(CONFLUX_VT_TSAN)
    if (c->tsan_fiber != nullptr) __tsan_destroy_fiber(c->tsan_fiber);
#endif
    if (c->map != nullptr) ::munmap(c->map, c->map_bytes);
  }
  delete impl_;
}

const std::uint64_t* VtRuntime::clock_ns_array() const {
  return impl_->clock_ns.data();
}

double VtRuntime::clock_seconds(int rank) const {
  return impl_->ranks[static_cast<std::size_t>(rank)]->vclock;
}

double VtRuntime::makespan_seconds() const {
  double m = 0;
  for (const auto& c : impl_->ranks) m = std::max(m, c->vclock);
  return m;
}

/// Append `rank` to `queue` and wake a sleeping worker if there is one. The
/// sleeper registers in `sleepers` before its final locked scan of every
/// queue, so either that scan sees this push or this load sees the sleeper
/// (and the notify, taken under idle_mutex, cannot slip in before its wait).
void VtRuntime::push_ready(int rank, Worker& queue) {
  Impl& im = *impl_;
  {
    const std::lock_guard<std::mutex> lock(queue.mutex);
    queue.push_back(rank);
  }
  if (im.sleepers.load() > 0) {
    const std::lock_guard<std::mutex> lock(im.idle_mutex);
    im.idle_cv.notify_one();
  }
}

// --- context switching ------------------------------------------------------

void VtRuntime::trampoline(void* ctx) {
  auto* c = static_cast<RankCtx*>(ctx);
#if defined(CONFLUX_VT_ASAN)
  __sanitizer_finish_switch_fiber(c->fake_stack, &c->worker_bottom,
                                  &c->worker_size);
#endif
  c->rt->fiber_main(*c);
}

void VtRuntime::resume(RankCtx& c) {
  FiberContext here;
  c.return_ctx = &here;
#if defined(CONFLUX_VT_TSAN)
  if (tl_worker_tsan_fiber == nullptr)
    tl_worker_tsan_fiber = __tsan_get_current_fiber();
  c.return_tsan = tl_worker_tsan_fiber;
  __tsan_switch_to_fiber(c.tsan_fiber, 0);
#endif
#if defined(CONFLUX_VT_ASAN)
  __sanitizer_start_switch_fiber(&tl_worker_fake_stack, c.stack_base,
                                 c.stack_bytes);
#endif
  fiber_switch(here, c.ctx);
#if defined(CONFLUX_VT_ASAN)
  __sanitizer_finish_switch_fiber(tl_worker_fake_stack, nullptr, nullptr);
#endif
}

/// Finish suspending a fiber that left with phase Blocking: park it, or put
/// it back on `self`'s queue when its message arrived (or the job aborted)
/// in the meantime. Returns true when it was re-queued. Runs on the worker
/// stack, after the fiber's context was saved.
bool VtRuntime::finish_park(RankCtx& c, Worker& self) {
  // Registered *after* the fiber context was saved, so a deliver that races
  // with the park either sees the message in the queue re-check below or
  // sees `parked` and wakes — a lost wakeup would need the deliver to
  // happen between the re-check and setting `parked`, and both happen
  // under the channel mutex.
  {
    auto& ch = net_->channel(c.rank, c.wait_src);
    const std::lock_guard<std::mutex> lock(ch.mutex);
    if (ch.find(c.wait_src, c.wait_tag) == ch.queue.end() &&
        !net_->aborted()) {
      const std::lock_guard<std::mutex> plock(c.park_mutex);
      c.parked = true;
      c.phase = RankCtx::Phase::Parked;
      return false;
    }
  }
  c.phase = RankCtx::Phase::Ready;
  push_ready(c.rank, self);
  return true;
}

void VtRuntime::fiber_main(RankCtx& c) {
  try {
    (*impl_->job)(c.rank);
  } catch (const JobAborted&) {
    // Another rank failed first; nothing to record.
  } catch (const std::exception& e) {
    net_->note_rank_failure(c.rank, e.what());
    {
      const std::lock_guard<std::mutex> lock(impl_->error_mutex);
      if (!impl_->error) impl_->error = std::current_exception();
    }
    net_->abort();
  } catch (...) {
    net_->note_rank_failure(c.rank, "unknown exception");
    {
      const std::lock_guard<std::mutex> lock(impl_->error_mutex);
      if (!impl_->error) impl_->error = std::current_exception();
    }
    net_->abort();
  }
  c.phase = RankCtx::Phase::Done;
  // Hand control back to the worker for the last time. The context saved
  // into c.ctx here is never resumed; the next run re-creates it. Passing
  // nullptr for the fake-stack save slot tells ASan the fiber is dying so
  // it releases the fiber's fake stack instead of keeping it live.
#if defined(CONFLUX_VT_ASAN)
  __sanitizer_start_switch_fiber(nullptr, c.worker_bottom, c.worker_size);
#endif
#if defined(CONFLUX_VT_TSAN)
  __tsan_switch_to_fiber(c.return_tsan, 0);
#endif
  fiber_switch(c.ctx, *c.return_ctx);
  // Unreachable: a Done fiber is never resumed.
  CONFLUX_ASSERT(false);
}

void VtRuntime::park(int rank, int src, Tag tag) {
  RankCtx& c = *impl_->ranks[static_cast<std::size_t>(rank)];
  CONFLUX_ASSERT(c.phase == RankCtx::Phase::Running);
  c.wait_src = src;
  c.wait_tag = tag;
  c.phase = RankCtx::Phase::Blocking;
#if defined(CONFLUX_VT_ASAN)
  __sanitizer_start_switch_fiber(&c.fake_stack, c.worker_bottom,
                                 c.worker_size);
#endif
#if defined(CONFLUX_VT_TSAN)
  __tsan_switch_to_fiber(c.return_tsan, 0);
#endif
  fiber_switch(c.ctx, *c.return_ctx);
  // Possibly on another worker thread from here on.
#if defined(CONFLUX_VT_ASAN)
  __sanitizer_finish_switch_fiber(c.fake_stack, &c.worker_bottom,
                                  &c.worker_size);
#endif
}

void VtRuntime::wake_if_parked(int dst, int src, Tag tag) {
  Impl& im = *impl_;
  RankCtx& c = *im.ranks[static_cast<std::size_t>(dst)];
  {
    const std::lock_guard<std::mutex> lock(c.park_mutex);
    if (!c.parked || c.wait_src != src || c.wait_tag != tag) return;
    c.parked = false;
    c.phase = RankCtx::Phase::Ready;
  }
  // Deliveries run on the sender's fiber (they charge its clock), so the
  // sender's context names the worker running this call.
  Worker* w = im.ranks[static_cast<std::size_t>(src)]->worker;
  CONFLUX_ASSERT(w != nullptr);
  im.runnable.fetch_add(1);
  push_ready(dst, *w);
}

void VtRuntime::wake_all_parked() {
  Impl& im = *impl_;
  for (auto& cp : im.ranks) {
    RankCtx& c = *cp;
    {
      const std::lock_guard<std::mutex> lock(c.park_mutex);
      if (!c.parked) continue;
      c.parked = false;
      c.phase = RankCtx::Phase::Ready;
    }
    im.runnable.fetch_add(1);
    push_ready(c.rank, *im.workers[static_cast<std::size_t>(c.rank) %
                                   im.workers.size()]);
  }
}

// --- clocks -----------------------------------------------------------------

double VtRuntime::charge_send(int rank, std::size_t bytes) {
  RankCtx& c = *impl_->ranks[static_cast<std::size_t>(rank)];
  c.vclock += static_cast<double>(bytes) * link_.beta_s_per_byte;
  impl_->clock_ns[static_cast<std::size_t>(rank)] =
      static_cast<std::uint64_t>(c.vclock * 1e9);
  return c.vclock + link_.alpha_s;
}

std::pair<double, double> VtRuntime::absorb_arrival(int rank, double arrival) {
  RankCtx& c = *impl_->ranks[static_cast<std::size_t>(rank)];
  const double begin = c.vclock;
  if (arrival > c.vclock) {
    c.vclock = arrival;
    impl_->clock_ns[static_cast<std::size_t>(rank)] =
        static_cast<std::uint64_t>(c.vclock * 1e9);
  }
  return {begin, c.vclock};
}

void VtRuntime::charge_flops(int rank, double flops) {
  if (link_.gamma_s_per_flop <= 0 || flops <= 0) return;
  RankCtx& c = *impl_->ranks[static_cast<std::size_t>(rank)];
  c.vclock += flops * link_.gamma_s_per_flop;
  impl_->clock_ns[static_cast<std::size_t>(rank)] =
      static_cast<std::uint64_t>(c.vclock * 1e9);
}

void VtRuntime::charge_seconds(int rank, double seconds) {
  if (seconds <= 0) return;
  RankCtx& c = *impl_->ranks[static_cast<std::size_t>(rank)];
  c.vclock += seconds;
  impl_->clock_ns[static_cast<std::size_t>(rank)] =
      static_cast<std::uint64_t>(c.vclock * 1e9);
}

std::vector<ParkedRank> VtRuntime::parked_snapshot() const {
  std::vector<ParkedRank> out;
  for (const auto& cp : impl_->ranks) {
    RankCtx& c = *cp;
    const std::lock_guard<std::mutex> lock(c.park_mutex);
    if (c.parked) out.push_back({c.rank, c.wait_src, c.wait_tag});
  }
  return out;
}

// --- scheduler --------------------------------------------------------------

/// The next fiber for `self` to run: its own queue's newest entry first,
/// then the oldest entry of another worker's queue, spinning briefly and
/// then sleeping while every queue is empty. Returns -1 once the run is
/// over.
int VtRuntime::next_ready(Worker& self) {
  Impl& im = *impl_;
  const std::size_t nw = im.workers.size();
  const auto scan = [&] {
    if (self.size.load(std::memory_order_relaxed) != 0) {
      const std::lock_guard<std::mutex> lock(self.mutex);
      const int rank = self.pop_back();
      if (rank >= 0) return rank;
    }
    for (std::size_t k = 1; k < nw; ++k) {
      std::size_t i = static_cast<std::size_t>(self.index) + k;
      if (i >= nw) i -= nw;
      Worker& victim = *im.workers[i];
      if (victim.size.load(std::memory_order_relaxed) == 0) continue;
      const std::lock_guard<std::mutex> lock(victim.mutex);
      const int rank = victim.pop_front();
      if (rank >= 0) return rank;
    }
    return -1;
  };
  // Spin rounds before sleeping: a wake typically follows within a few
  // microseconds while other workers run fibers, and a futex sleep/wake
  // costs more than that.
  constexpr int kSpinRounds = 256;
  for (;;) {
    for (int spin = 0; spin < kSpinRounds; ++spin) {
      const int rank = scan();
      if (rank >= 0) return rank;
      if (im.stop.load(std::memory_order_acquire)) return -1;
      if (nw == 1) break;
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#else
      std::this_thread::yield();
#endif
    }
    std::unique_lock<std::mutex> lock(im.idle_mutex);
    if (im.stop.load(std::memory_order_acquire)) return -1;
    im.sleepers.fetch_add(1);
    // Final scan with the sleeper registered: push_ready either lands
    // before this scan sees its queue or observes sleepers > 0 and
    // notifies under idle_mutex, which it cannot take before the wait.
    for (std::size_t i = 0; i < nw; ++i) {
      Worker& w = *im.workers[i];
      const std::lock_guard<std::mutex> qlock(w.mutex);
      const int rank = w.pop_front();
      if (rank >= 0) {
        im.sleepers.fetch_sub(1);
        return rank;
      }
    }
    im.idle_cv.wait(lock);
    im.sleepers.fetch_sub(1);
  }
}

/// Called by the worker whose decrement took the ready + running count to
/// zero: either every rank finished (end the run) or every live rank is
/// parked in a receive (report the deadlock and abort).
void VtRuntime::all_idle() {
  Impl& im = *impl_;
  if (im.finished.load() == nranks_) {
    const std::lock_guard<std::mutex> lock(im.idle_mutex);
    im.stop.store(true, std::memory_order_release);
    im.idle_cv.notify_all();
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(im.error_mutex);
    if (!im.error) {
      // Typed, located diagnostic: which ranks are parked and on what.
      // deadlock() == true marks it deterministic — a retry would park
      // the same way, so factor::run_with_retry must not re-run it.
      std::vector<ParkedRank> parked = parked_snapshot();
      CommContext ctx;
      std::ostringstream os;
      os << "virtual-time deadlock: every live rank is parked in a "
            "receive with no matching message in flight ("
         << parked.size() << " parked";
      if (!parked.empty()) {
        const ParkedRank& p = parked.front();
        ctx = CommContext{.rank = p.rank, .src = p.src, .dst = p.rank}
                  .with_tag(p.tag);
        os << "; first " << ctx;
      }
      os << ")";
      im.error = std::make_exception_ptr(
          ReceiveTimeout(os.str(), ctx, std::move(parked),
                         /*deadlock=*/true));
    }
  }
  // abort() wakes all parked fibers (through wake_all_parked), which then
  // unwind with JobAborted and finish normally.
  net_->abort();
}

void VtRuntime::worker_loop(Worker& self) {
  Impl& im = *impl_;
  for (;;) {
    const int rank = next_ready(self);
    if (rank < 0) return;
    RankCtx& c = *im.ranks[static_cast<std::size_t>(rank)];
    c.phase = RankCtx::Phase::Running;
    c.worker = &self;
    resume(c);
    // The fiber suspended: either it wants to park or it finished. Capture
    // the phase now, while only this worker touches c — finish_park() may
    // re-enqueue the fiber, after which another worker can resume it and
    // rewrite c.phase concurrently, so it must not be re-read below.
    const RankCtx::Phase suspended = c.phase;
    if (suspended == RankCtx::Phase::Blocking && finish_park(c, self))
      continue;  // re-queued: still counted as ready
    if (suspended == RankCtx::Phase::Done) im.finished.fetch_add(1);
    if (im.runnable.fetch_sub(1) == 1) all_idle();
  }
}

void VtRuntime::run(const std::function<void(int)>& job, int workers) {
  Impl& im = *impl_;
  CONFLUX_EXPECTS(im.job == nullptr);  // no concurrent / re-entrant runs
  support::ThreadPool& pool = support::global_pool();
  const int base = workers > 0 ? workers : std::min(pool.size(), nranks_);
  const int w = static_cast<int>(std::clamp<std::int64_t>(
      env_int("CONFLUX_VT_WORKERS", base), 1, pool.size()));

  im.job = &job;
  im.error = nullptr;
  im.stop.store(false);
  im.runnable.store(nranks_);
  im.finished.store(0);
  im.sleepers.store(0);
  if (im.workers.size() != static_cast<std::size_t>(w)) {
    im.workers.clear();
    for (int i = 0; i < w; ++i) {
      auto q = std::make_unique<Worker>();
      q->index = i;
      q->ring.resize(static_cast<std::size_t>(nranks_));
      im.workers.push_back(std::move(q));
    }
  }
  for (auto& q : im.workers) {
    q->head = 0;
    q->size.store(0);
  }

  for (auto& cp : im.ranks) {
    RankCtx& c = *cp;
    c.phase = RankCtx::Phase::Ready;
    c.parked = false;
    c.wait_src = -1;
    c.wait_tag = 0;
    c.vclock = 0;
    c.worker = nullptr;
    im.clock_ns[static_cast<std::size_t>(c.rank)] = 0;
#if defined(CONFLUX_VT_ASAN)
    // The stack may hold stale redzones: the last run's frames never
    // unwound, and a fresh mmap can reuse the range of a freed stack.
    __asan_unpoison_memory_region(c.stack_base, c.stack_bytes);
#endif
    // Fresh context on the persistent stack for this run; ranks start on
    // the workers in contiguous blocks.
    fiber_make(c.ctx, c.stack_base, c.stack_bytes, &VtRuntime::trampoline,
               &c);
    im.workers[static_cast<std::size_t>(
                   static_cast<std::int64_t>(c.rank) * w / nranks_)]
        ->push_back(c.rank);
  }

  // Multiplex the fibers over the shared thread pool. parallel_for from
  // inside a fiber (the numeric kernels use it) runs inline by the pool's
  // re-entrancy rule, so the workers never deadlock on themselves.
  if (w == 1) {
    worker_loop(*im.workers.front());
  } else {
    support::parallel_for(0, w, [&](int i) {
      worker_loop(*im.workers[static_cast<std::size_t>(i)]);
    });
  }

  im.job = nullptr;
  std::exception_ptr error;
  {
    const std::lock_guard<std::mutex> lock(im.error_mutex);
    error = std::move(im.error);
    im.error = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace conflux::simnet
