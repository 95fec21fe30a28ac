/// \file thread_pool.hpp
/// A small fixed-size thread pool plus a blocking parallel_for on top of it.
/// This is the shared parallel runtime under the optimized BLAS kernels and
/// the DAAP bound solver's multi-start search.
///
/// Design constraints:
///  - No work stealing, no futures: callers submit closures and wait on a
///    counter. The kernels that use it partition work into a handful of
///    coarse chunks, so a mutex-protected queue is not a bottleneck.
///  - Re-entrancy safe: parallel_for called from inside a pool worker, or
///    from the submitting thread while it runs its own chunk, runs the loop
///    inline instead of deadlocking on the (busy) workers.
///  - Pool size comes from CONFLUX_THREADS when set, otherwise from
///    std::thread::hardware_concurrency(); a size of 1 means every
///    parallel_for runs inline and the pool spawns no threads at all.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace conflux::support {

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 = pick from CONFLUX_THREADS or hardware).
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of workers (>= 1; 1 means "inline", no threads were spawned).
  [[nodiscard]] int size() const { return size_; }

  /// Run `body(i)` for i in [begin, end). Blocks until every index ran.
  /// The range is split into at most `size()` contiguous chunks; exceptions
  /// from `body` propagate to the caller (first one wins).
  void parallel_for(int begin, int end,
                    const std::function<void(int)>& body);

  /// True when the calling thread is one of this pool's workers, or is the
  /// submitter running its chunk of a parallel_for.
  [[nodiscard]] bool on_worker_thread() const;

 private:
  void worker_loop();

  int size_ = 1;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// The process-wide pool shared by the BLAS kernels and the bound solver.
[[nodiscard]] ThreadPool& global_pool();

/// Convenience wrapper: global_pool().parallel_for(...).
void parallel_for(int begin, int end, const std::function<void(int)>& body);

}  // namespace conflux::support
