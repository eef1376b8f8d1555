// Extension: the command-and-control side of the RP scenario (Fig. 1).
// Related work the paper discusses ([34], [51], [61]) consistently finds
// control-signal latency far below video latency — control packets are tiny
// and (downlink) bypass the video-bloated uplink queue, while telemetry
// shares the uplink with the video stream.
#include "bench_common.hpp"

#include "experiment/scenario.hpp"

int main(int argc, char** argv) {
  using namespace rpv;
  bench::parse_args(argc, argv);
  bench::print_header("Extension — command/telemetry vs video latency",
                      "IMC'22 Fig. 1 scenario; related work [34][51][61]");

  metrics::TextTable table{{"flow", "with video?", "path", "median (ms)",
                            "p95 (ms)", "p99 (ms)", "P(<100ms) %"}};

  // Single-path arms reproduce the related-work finding; the bonded arm
  // routes C2 through the rpv::bond LinkManager (high-reliability policy
  // duplicates every command across the operator pair) under an RLF storm,
  // where the second copy is what keeps the control channel responsive.
  struct ArmConfig {
    bool with_video;
    experiment::Multipath multipath;
  };
  for (const auto& arm :
       {ArmConfig{true, experiment::Multipath::kNone},
        ArmConfig{false, experiment::Multipath::kNone},
        ArmConfig{true, experiment::Multipath::kBondHighReliability}}) {
    const bool bonded = arm.multipath != experiment::Multipath::kNone;
    metrics::Cdf command, telemetry, video_owd;
    std::vector<experiment::Scenario> scenarios;
    for (std::uint64_t k = 0; k < static_cast<std::uint64_t>(bench::runs_or(4));
         ++k) {
      experiment::Scenario s;
      s.env = experiment::Environment::kUrban;
      s.cc = arm.with_video ? pipeline::CcKind::kStatic : pipeline::CcKind::kNone;
      s.c2 = true;
      s.multipath = arm.multipath;
      if (bonded) s.fault_preset = experiment::FaultPreset::kRlfStorm;
      s.seed = bench::seed_or(11000) + k;
      scenarios.push_back(s);
    }
    for (const auto& r : bench::run_scenarios(scenarios)) {
      command.add_all(r.command_latency_ms);
      telemetry.add_all(r.telemetry_latency_ms);
      video_owd.merge(r.owd_ms);
    }
    const std::string path = bonded ? "bond-hr" : "single";
    auto add = [&](const std::string& name, const metrics::Cdf& c) {
      if (c.empty()) return;
      table.add_row({name, arm.with_video ? "yes" : "no", path,
                     metrics::TextTable::num(c.median(), 1),
                     metrics::TextTable::num(c.quantile(0.95), 1),
                     metrics::TextTable::num(c.quantile(0.99), 1),
                     metrics::TextTable::num(100.0 * c.fraction_below(100.0), 1)});
    };
    add("command (DL)", command);
    add("telemetry (UL)", telemetry);
    if (arm.with_video) add("video (UL)", video_owd);
  }

  std::cout << "\n" << table.render();
  std::cout << "\nExpected shape: commands stay fast (tiny, downlink); "
               "telemetry inherits the video stream's uplink queueing — the "
               "related-work finding that video latency is far worse than "
               "control latency.\n";
  return 0;
}
