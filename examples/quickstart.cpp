// Quickstart: stream one simulated UAV flight over LTE with GCC and print
// the headline video-delivery metrics the paper reports.
//
//   $ ./examples/quickstart [urban|rural] [gcc|scream|static] [seed]
#include <cstdint>
#include <iostream>
#include <string>

#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "metrics/cdf.hpp"
#include "metrics/text_table.hpp"

int main(int argc, char** argv) {
  using namespace rpv;

  experiment::Scenario s;
  s.env = experiment::Environment::kUrban;
  s.cc = pipeline::CcKind::kGcc;
  s.mobility = experiment::Mobility::kAir;
  s.seed = 42;

  if (argc > 1) {
    const std::string env = argv[1];
    if (env == "rural") s.env = experiment::Environment::kRuralP1;
  }
  if (argc > 2) {
    const std::string cc = argv[2];
    if (cc == "scream") s.cc = pipeline::CcKind::kScream;
    else if (cc == "static") s.cc = pipeline::CcKind::kStatic;
  }
  if (argc > 3) s.seed = static_cast<std::uint64_t>(std::stoull(argv[3]));

  std::cout << "Flying the Appendix A.2 trajectory over the "
            << experiment::environment_name(s.env) << " layout with "
            << pipeline::cc_name(s.cc) << " ...\n\n";

  const auto report = experiment::run_scenario(s);

  const auto& owd = report.owd_ms;
  const auto& ssim = report.ssim;
  const auto& latency = report.playback_latency_ms;
  metrics::Cdf fps;
  fps.add_all(report.fps_windows);

  metrics::TextTable t({"metric", "value"});
  t.add_row({"flight duration (s)", metrics::TextTable::num(report.duration.sec(), 0)});
  t.add_row({"frames encoded", std::to_string(report.frames_encoded)});
  t.add_row({"frames played", std::to_string(report.frames_played)});
  t.add_row({"avg goodput (Mbps)", metrics::TextTable::num(report.avg_goodput_mbps)});
  t.add_row({"median FPS", metrics::TextTable::num(fps.median(), 1)});
  t.add_row({"FPS >= 29 (%)", metrics::TextTable::num(100.0 * fps.fraction_at_least(29.0), 1)});
  t.add_row({"median playback latency (ms)", metrics::TextTable::num(latency.median(), 0)});
  t.add_row({"playback latency < 300 ms (%)",
             metrics::TextTable::num(100.0 * latency.fraction_below(300.0), 1)});
  t.add_row({"median one-way latency (ms)", metrics::TextTable::num(owd.median(), 1)});
  t.add_row({"OWD < 100 ms (%)", metrics::TextTable::num(100.0 * owd.fraction_below(100.0), 1)});
  t.add_row({"median SSIM", metrics::TextTable::num(ssim.median(), 3)});
  t.add_row({"SSIM < 0.5 (%)", metrics::TextTable::num(100.0 * (1.0 - ssim.fraction_at_least(0.5)), 2)});
  t.add_row({"stalls/min", metrics::TextTable::num(report.stalls_per_minute, 2)});
  t.add_row({"PER (%)", metrics::TextTable::num(100.0 * report.per, 3)});
  t.add_row({"handovers", std::to_string(report.handovers.count())});
  t.add_row({"HO frequency (/s)",
             metrics::TextTable::num(report.handovers.frequency(report.duration), 3)});
  t.add_row({"cells seen", std::to_string(report.cells_seen)});
  t.add_row({"queue discards (SCReAM)", std::to_string(report.queue_discard_events)});
  if (report.cc_name != "static") {
    t.add_row({"ramp-up to 90% of peak (s)",
               metrics::TextTable::num(report.ramp_up_seconds(
                   report.cc_name == "gcc" ? 22.5e6 : 22.5e6), 1)});
  }
  std::cout << t.render() << "\n";
  return 0;
}
