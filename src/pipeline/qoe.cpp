#include "pipeline/qoe.hpp"

#include <algorithm>
#include <cmath>

namespace rpv::pipeline {

QoeBreakdown score_qoe(const SessionReport& report) {
  QoeBreakdown q;

  const auto& ssim = report.ssim;
  const auto& latency = report.playback_latency_ms;
  if (ssim.empty() || latency.empty()) return q;

  // Visual: being above the RP threshold is necessary; detail above 0.9 is
  // the comfortable regime, weighted half.
  const double safe = ssim.fraction_at_least(0.5);
  const double sharp = ssim.fraction_at_least(0.9);
  q.visual = 0.5 * safe + 0.5 * sharp;

  // Responsiveness: the paper's 300 ms playback budget.
  q.responsiveness = latency.fraction_below(300.0);

  // Smoothness: exponential penalty per stall; 1 stall/min ~ 0.61.
  q.smoothness = std::exp(-0.5 * report.stalls_per_minute);

  // Geometric blend keeps any single failing dimension dominant (a pilot
  // cannot trade a frozen picture for a sharp one), mapped onto MOS 1..5.
  const double blend =
      std::cbrt(std::max(q.visual, 1e-6) * std::max(q.responsiveness, 1e-6) *
                std::max(q.smoothness, 1e-6));
  q.mos = 1.0 + 4.0 * blend;
  return q;
}

}  // namespace rpv::pipeline
