#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace d2net {

ThreadPool::ThreadPool(int num_threads) {
  const int n = num_threads < 1 ? 1 : num_threads;
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  cv_work_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr error = first_error_;
    first_error_ = nullptr;  // the pool stays usable after the rethrow
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::record_error(std::exception_ptr error) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!first_error_) first_error_ = std::move(error);
}

int ThreadPool::hardware_concurrency() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body,
                              bool stop_on_first_error) {
  if (n == 0) return;
  // Shared claim counter: workers and the caller pull the next unclaimed
  // index until none remain. shared_ptr keeps it alive for stragglers.
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  auto failed = std::make_shared<std::atomic<bool>>(false);
  auto run_claims = [this, next, failed, n, stop_on_first_error, &body] {
    for (;;) {
      if (stop_on_first_error && failed->load(std::memory_order_relaxed)) return;
      const std::size_t i = next->fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      // Capture here (not only in worker_loop) so a throw on the calling
      // thread surfaces through the same wait_idle() path as a worker's.
      try {
        body(i);
      } catch (...) {
        failed->store(true, std::memory_order_relaxed);
        record_error(std::current_exception());
      }
    }
  };
  const std::size_t helpers = std::min(static_cast<std::size_t>(size()), n - 1);
  for (std::size_t t = 0; t < helpers; ++t) submit(run_claims);
  run_claims();  // the caller participates
  wait_idle();
}

void ThreadPool::run_indexed(int threads, std::size_t n,
                             const std::function<void(std::size_t)>& body,
                             bool stop_on_first_error) {
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool pool(threads - 1);
  pool.parallel_for(n, body, stop_on_first_error);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      record_error(std::current_exception());
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace d2net
