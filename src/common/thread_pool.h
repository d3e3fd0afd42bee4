#ifndef BRYQL_COMMON_THREAD_POOL_H_
#define BRYQL_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace bryql {

/// A fixed-size pool of worker threads executing submitted closures in
/// FIFO order. The pool is deliberately minimal: no futures, no task
/// dependencies — callers coordinate through their own latches (see
/// RunOnWorkers below), which keeps the invariant that **a pool task never
/// blocks on another pool task**: worker closures only run their own
/// partition, and the waiting happens on the submitting thread. Every
/// queued task therefore finishes once a pool thread picks it up, so work
/// submitted to a busy pool is delayed, never deadlocked.
class ThreadPool {
 public:
  /// `threads` — number of worker threads (at least 1).
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution on some pool thread. Never blocks.
  void Submit(std::function<void()> task);

  size_t size() const { return threads_.size(); }

  /// The process-wide shared pool, sized to the hardware, created on
  /// first use and joined at process exit. Query execution at any
  /// `num_threads` degree shares this one pool; the degree controls how
  /// many partitions a query fans out into, not how many threads exist.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

/// Runs `fn(worker_index)` for worker_index in [0, workers): index 0 runs
/// inline on the calling thread, the rest are submitted to `pool`.
/// Returns only after every invocation has completed — so each submitted
/// closure needs a pool thread, and on a saturated pool the call waits
/// behind earlier tasks. This is the fork/join primitive of each parallel
/// phase: the inline worker keeps claiming morsels meanwhile, so closures
/// that start late find their input exhausted and return at once (the
/// wait costs latency, not work). Must not be called from a pool thread:
/// were every pool thread waiting here, none would be left to run the
/// submitted closures.
void RunOnWorkers(ThreadPool& pool, size_t workers,
                  const std::function<void(size_t)>& fn);

}  // namespace bryql

#endif  // BRYQL_COMMON_THREAD_POOL_H_
