// Host metadata for the --bench-json perf baselines. A throughput number
// means little without the machine and build that produced it, so every
// baseline document carries a "host" object the perf gate prints beside
// each ratio.
#pragma once

#include <cstdint>
#include <thread>

#include "exec/run_artifact.hpp"
#include "exec/thread_pool.hpp"
#include "json/json.hpp"

namespace rpv::bench {

// `jobs` as passed on the command line (0 = one per hardware thread); the
// document records the resolved worker count.
[[nodiscard]] inline json::Value host_json(int jobs) {
  json::Value h = json::Value::object();
  h.set("nproc", std::uint64_t{std::thread::hardware_concurrency()})
      .set("jobs", std::int64_t{exec::resolve_jobs(jobs)})
      .set("compiler", RPV_BENCH_COMPILER)
      .set("build_type", RPV_BENCH_BUILD_TYPE)
      .set("git_describe", exec::current_git_describe());
  return h;
}

}  // namespace rpv::bench
