// Fixed-size worker pool for campaign execution.
//
// Header-only: it is small, and its two users, CampaignEngine and
// FleetEngine, include it directly.
//
// Determinism contract: the pool imposes no ordering of its own on results —
// callers write each task's output to a slot chosen by task *index*, so the
// assembled result vector is byte-identical to a serial loop regardless of
// worker count or completion order. Each simulation run owns all of its
// state (Session constructs its own Rng from the scenario seed; the library
// keeps no mutable globals), so tasks never share anything but the output
// vector, and never the same slot.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rpv::exec {

// jobs <= 0 means "one worker per hardware thread" (at least one).
[[nodiscard]] inline int resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

class ThreadPool {
 public:
  explicit ThreadPool(int jobs = 0) {
    const int n = resolve_jobs(jobs);
    workers_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock{mu_};
      stopping_ = true;
    }
    task_ready_.notify_all();
    for (auto& w : workers_) w.join();
  }

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock{mu_};
      queue_.push_back(std::move(task));
      ++outstanding_;
    }
    task_ready_.notify_one();
  }

  // Block until every submitted task has finished running.
  void wait() {
    std::unique_lock<std::mutex> lock{mu_};
    all_done_.wait(lock, [this] { return outstanding_ == 0; });
  }

 private:
  void worker_loop() {
    while (true) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock{mu_};
        task_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ and drained
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
      {
        std::lock_guard<std::mutex> lock{mu_};
        if (--outstanding_ == 0) all_done_.notify_all();
      }
    }
  }

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::size_t outstanding_ = 0;
  bool stopping_ = false;
};

// Run fn(0) .. fn(n-1) across `jobs` workers and block until all complete.
// With jobs resolved to 1 (or n <= 1) the calls happen inline — the serial
// path stays the reference the parallel one is tested against. The first
// exception thrown by any task is rethrown here after all tasks finish.
inline void parallel_for_index(std::size_t n, int jobs,
                               const std::function<void(std::size_t)>& fn) {
  const int workers = resolve_jobs(jobs);
  if (workers <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool pool{static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(workers), n))};
  std::mutex err_mu;
  std::exception_ptr first_error;
  for (std::size_t i = 0; i < n; ++i) {
    pool.submit([&, i] {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock{err_mu};
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  pool.wait();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace rpv::exec
