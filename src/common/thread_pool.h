// Minimal fixed-size thread pool for embarrassingly parallel experiment
// fan-out (one task per simulation point). Tasks are plain
// std::function<void()>; ordering across tasks is never relied upon —
// callers that need deterministic output index into pre-sized result
// vectors instead.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace d2net {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  /// Drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task. A task that throws does not tear down its worker:
  /// the first exception is captured and rethrown from the next wait_idle()
  /// (or parallel_for()) on the calling thread; later ones are dropped.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing, then
  /// rethrows the first exception any task raised since the last wait.
  void wait_idle();

  int size() const { return static_cast<int>(workers_.size()); }

  /// std::thread::hardware_concurrency with a >= 1 guarantee.
  static int hardware_concurrency();

  /// Runs body(0) .. body(n-1) across the pool plus the calling thread and
  /// returns when all are done. Indices are claimed from a shared counter,
  /// so any thread may run any index; bodies touching disjoint state need
  /// no further synchronization. If any body throws, the remaining claimed
  /// indices still run (default) and the first exception is rethrown here
  /// afterwards. With `stop_on_first_error` set, unclaimed indices are
  /// skipped once a body has thrown — for callers (journaled sweeps) whose
  /// partial results are already durable and who prefer failing fast over
  /// finishing a run that will be reported as failed anyway.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                    bool stop_on_first_error = false);

  /// Runs body(0) .. body(n-1) on `threads` threads, the caller included:
  /// inline in index order when threads <= 1, otherwise parallel_for on a
  /// pool of threads - 1 workers.
  static void run_indexed(int threads, std::size_t n,
                          const std::function<void(std::size_t)>& body,
                          bool stop_on_first_error = false);

 private:
  void worker_loop();
  /// Stores the first captured exception (later ones are dropped).
  void record_error(std::exception_ptr error);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_work_;   ///< signalled on submit/stop
  std::condition_variable cv_idle_;   ///< signalled when a task finishes
  std::size_t in_flight_ = 0;         ///< queued + executing tasks
  bool stop_ = false;
  std::exception_ptr first_error_;    ///< guarded by mu_; cleared on rethrow
};

}  // namespace d2net
