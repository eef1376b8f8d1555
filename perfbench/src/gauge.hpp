// The host-speed gauge: a fixed pass of the benchmark's own work, sampled
// before and after each timed piece of the workload, so every timing can be
// stated at one reference speed of the host.
//
// On a shared VM the same code runs up to a third slower for minutes at a
// time (other tenants on the sibling hyperthread, in the shared L3 and
// memory, on the package's turbo budget). CPU time does not remove that;
// dividing each timing by the host's speed measured around it does. A pass
// mixes what the simulator spends its time on: a binary-heap event queue,
// hash-table churn, a dependent walk through a working set past L2, and
// floating-point math. It is the benchmark's code, not the simulator's, so
// a change to the simulator moves the timings but not the gauge.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class HostGauge {
 public:
  // Median CPU seconds of one pass over the runs the benchmark was tuned on
  // (a 4-vCPU VM). Normalized timings are stated at that speed.
  static constexpr double kReferencePassS = 0.033;
  // Passes per sample; a sample is their median.
  static constexpr int kPassesPerSample = 3;
  // How much more the workloads' CPU time moves than the gauge's under the
  // same contention: the log-log slope of each run's raw simulation time
  // against its gauge samples, fitted over 24 runs of the three workloads on
  // the tuning VM (1.46 to 1.74 per workload).
  static constexpr double kSensitivity = 1.6;

  // Builds the working set and runs one untimed pass.
  HostGauge();

  // Samples the host before a piece of work.
  void mark();
  // Samples it after the work and returns how much slower than the
  // reference the workloads ran over it: the mean of this sample and the
  // one before, over kReferencePassS, to the power kSensitivity. The new
  // sample is also the "before" of the next piece.
  double settle();
  // Every sample so far, in order.
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  double sample();

  std::vector<std::uint32_t> ring_;
  std::vector<double> samples_;
  double last_ = kReferencePassS;
  std::uint64_t sink_ = 0;
};

}  // namespace perfbench
