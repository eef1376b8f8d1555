// Lower-level API tour: build a custom trajectory and cell deployment, tune
// the congestion controller and jitter buffer, and wire a Session by hand —
// the path a researcher extending the pipeline (e.g. new CC, new HO policy)
// would take.
//
//   $ ./examples/custom_pipeline
#include <iostream>

#include "cellular/base_station.hpp"
#include "experiment/scenario.hpp"
#include "geo/trajectory.hpp"
#include "metrics/cdf.hpp"
#include "metrics/text_table.hpp"
#include "pipeline/session.hpp"

int main() {
  using namespace rpv;

  // 1. A custom inspection mission: climb to 60 m, fly a 300 m square,
  //    return. (The stock Appendix A.2 profile lives in geo::flight_profiles.)
  geo::Trajectory mission;
  mission.move_to({0, 0, 0}, 0.0)
      .hover(sim::Duration::seconds(3.0))
      .move_to({0, 0, 60}, 2.5)
      .move_to({300, 0, 60}, 8.0)
      .move_to({300, 300, 60}, 8.0)
      .move_to({0, 300, 60}, 8.0)
      .move_to({0, 0, 60}, 8.0)
      .move_to({0, 0, 0}, 2.5);
  std::cout << "Mission duration: "
            << metrics::TextTable::num(mission.duration().sec(), 0) << " s\n";

  // 2. A bespoke suburban deployment: 8 cells on a ring around the site.
  cellular::CellLayout layout;
  layout.name = "suburban-ring";
  for (int i = 0; i < 8; ++i) {
    const double angle = i * 2.0 * M_PI / 8.0;
    cellular::BaseStation bs;
    bs.cell_id = static_cast<std::uint32_t>(i + 1);
    bs.pos = {900.0 * std::cos(angle), 900.0 * std::sin(angle), 35.0};
    bs.downtilt_deg = 6.0;
    layout.cells.push_back(bs);
  }

  // 3. Pipeline configuration: GCC with a faster ramp, a shallower jitter
  //    buffer (100 ms), and the Appendix A.4 drop-on-latency player policy.
  pipeline::SessionConfig cfg;
  cfg.cc = pipeline::CcKind::kGcc;
  cfg.seed = 7;
  cfg.gcc.aimd.multiplicative_ramp_per_sec = 1.35;
  cfg.receiver.jitter.latency = sim::Duration::millis(100);
  cfg.receiver.jitter.drop_on_latency = true;
  cfg.link.radio.peak_capacity_mbps = 30.0;

  pipeline::Session session{cfg, layout, &mission, "suburban-ring/custom"};
  const auto report = session.run();

  const auto& latency = report.playback_latency_ms;
  const auto& ssim = report.ssim;

  metrics::TextTable t({"metric", "value"});
  t.add_row({"frames played", std::to_string(report.frames_played)});
  t.add_row({"avg goodput (Mbps)", metrics::TextTable::num(report.avg_goodput_mbps)});
  t.add_row({"playback latency median (ms)",
             metrics::TextTable::num(latency.median(), 0)});
  t.add_row({"latency < 250 ms (%)",
             metrics::TextTable::num(100.0 * latency.fraction_below(250.0), 1)});
  t.add_row({"SSIM median", metrics::TextTable::num(ssim.median(), 3)});
  t.add_row({"handovers", std::to_string(report.handovers.count())});
  t.add_row({"GCC ramp to 20 Mbps (s)",
             metrics::TextTable::num(report.ramp_up_seconds(20e6), 1)});
  std::cout << "\n" << t.render();

  std::cout << "\nSwap in your own RateController, HO policy, or layout by\n"
               "adjusting SessionConfig / CellLayout — every module above is\n"
               "independently replaceable.\n";
  return 0;
}
