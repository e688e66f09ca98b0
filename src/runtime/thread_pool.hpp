#pragma once
/// \file thread_pool.hpp
/// Work-stealing thread pool for the portfolio runtime.
///
/// Layout: every worker owns a deque protected by its own mutex; external
/// submissions are sprayed round-robin across the worker deques. A worker
/// pops from the *back* of its own deque (LIFO — keeps a request's strategy
/// tasks hot in cache) and steals from the *front* of a victim's deque
/// (FIFO — takes the oldest, largest-grained work first). Lock-free deques
/// (Chase-Lev) would shave nanoseconds that are invisible next to
/// millisecond-scale LP solves; per-deque mutexes keep the invariants
/// obvious instead.
///
/// Tasks must not block on other tasks' completion (the pool has no
/// dependency tracking); the engine chains dependent work by having the
/// task that finishes a stage submit the next one.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pmcast::runtime {

class ThreadPool {
 public:
  /// Spawn \p threads workers. 0 is allowed and means "no workers":
  /// submit() then runs the task inline in the caller — handy for
  /// deterministic debugging and for keeping one code path in callers.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue \p task. Thread-safe; callable from worker threads too (the
  /// task then goes to the calling worker's own deque).
  void submit(std::function<void()> task);

  int thread_count() const { return static_cast<int>(workers_.size()); }

  /// Tasks submitted and not yet finished (approximate; for tests/stats).
  std::size_t pending() const;

 private:
  struct Queue {
    mutable std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void worker_loop(std::size_t self);
  bool try_pop(std::size_t self, std::function<void()>& task);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<std::size_t> next_queue_{0};
  std::atomic<std::size_t> queued_{0};     ///< tasks sitting in deques
  std::atomic<std::size_t> in_flight_{0};  ///< queued + currently running
  std::atomic<bool> stopping_{false};
};

}  // namespace pmcast::runtime
