#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace bryql {

ThreadPool::ThreadPool(size_t threads) {
  threads_.reserve(std::max<size_t>(1, threads));
  for (size_t i = 0; i < std::max<size_t>(1, threads); ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

ThreadPool& ThreadPool::Shared() {
  // A function-local static *object* (not a leaked pointer): destroyed at
  // process exit, which joins the workers — so LeakSanitizer and TSan see
  // a clean shutdown.
  static ThreadPool pool(std::max(2u, std::thread::hardware_concurrency()));
  return pool;
}

void RunOnWorkers(ThreadPool& pool, size_t workers,
                  const std::function<void(size_t)>& fn) {
  if (workers <= 1) {
    fn(0);
    return;
  }
  // A hand-rolled latch (std::latch needs no count adjustment either, but
  // this keeps the file self-contained on C++17-era toolchains).
  std::mutex done_mutex;
  std::condition_variable done_cv;
  size_t pending = workers - 1;
  for (size_t i = 1; i < workers; ++i) {
    pool.Submit([&, i] {
      fn(i);
      // Notify under the lock: once the coordinator observes pending == 0
      // it destroys these locals, so the signal must complete before the
      // lock is released (an unlocked notify could touch a dead condvar).
      std::lock_guard<std::mutex> lock(done_mutex);
      --pending;
      done_cv.notify_one();
    });
  }
  fn(0);  // the caller's own partition, run while the pool catches up
  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&] { return pending == 0; });
}

}  // namespace bryql
