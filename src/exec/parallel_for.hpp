// Index-parallel loop for campaign execution.
//
// Header-only: it is small, and its two users, CampaignEngine and
// FleetEngine, include it directly.
//
// Determinism contract: the loop imposes no ordering of its own on results —
// callers write each index's output to a slot chosen by that index, so the
// assembled result vector is byte-identical to a serial loop regardless of
// worker count or completion order. Each simulation run owns all of its
// state (Session constructs its own Rng from the scenario seed; the library
// keeps no mutable globals), so indices never share anything but the output
// vector, and never the same slot.
#pragma once

#include <algorithm>
#include <atomic>
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

// Run fn(0) .. fn(n-1) across `jobs` workers and block until all complete.
// Each worker claims the next unclaimed index from one shared counter until
// none is left. With jobs resolved to 1 (or n <= 1) the calls happen inline —
// the serial path stays the reference the parallel one is tested against.
// The first exception thrown by any index is rethrown here after every index
// has run.
inline void parallel_for_index(std::size_t n, int jobs,
                               const std::function<void(std::size_t)>& fn) {
  const int workers = resolve_jobs(jobs);
  if (workers <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::exception_ptr first_error;
  {
    const auto count =
        std::min<std::size_t>(static_cast<std::size_t>(workers), n);
    std::vector<std::jthread> threads;
    threads.reserve(count);
    while (threads.size() < count) {
      threads.emplace_back([&] {
        for (std::size_t i = next++; i < n; i = next++) {
          try {
            fn(i);
          } catch (...) {
            std::lock_guard<std::mutex> lock{err_mu};
            if (!first_error) first_error = std::current_exception();
          }
        }
      });
    }
  }  // every jthread joins here
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace rpv::exec
