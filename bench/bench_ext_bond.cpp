// Extension (rpv::bond): named bonding policies vs the failover and
// duplicate reference arms under injected fault schedules. The question the table answers is
// the robustness tradeoff — how much stall time each policy buys back and
// what it pays in airtime (duplicate ships every packet twice; the bonded
// policies duplicate selectively and lean on adaptive FEC instead).
//
// Exit status encodes the acceptance verdict: 0 when kHighReliability both
// stalls less than failover and spends less airtime than duplicate on every
// fault schedule, 1 otherwise.
#include "bench_common.hpp"

#include "experiment/scenario.hpp"

namespace {

struct Arm {
  double stall_ms_per_run = 0.0;   // summed frozen-video time, mean per run
  double airtime_mb = 0.0;         // bond_airtime_bytes, mean per run
  double overhead_pct = 0.0;       // airtime over raw media bytes
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rpv;
  bench::parse_args(argc, argv);
  bench::print_header("Extension — bonded reliability policies vs reference arms",
                      "rpv::bond; IMC'22 Fig. 10 operator pair under faults");

  metrics::TextTable table{{"fault", "policy", "stall ms/run", "stalls/min",
                            "airtime (MB/run)", "overhead (%)", "FEC rec",
                            "path sw", "dup supp"}};

  const std::vector<std::pair<experiment::Multipath, std::string>> arms = {
      {experiment::Multipath::kFailover, "failover (reference)"},
      {experiment::Multipath::kDuplicate, "duplicate (reference)"},
      {experiment::Multipath::kBondLowLatency, "bond low-latency"},
      {experiment::Multipath::kBondBalanced, "bond balanced"},
      {experiment::Multipath::kBondHighReliability, "bond high-reliability"},
  };

  bool verdict = true;
  for (const auto preset : {experiment::FaultPreset::kRlfStorm,
                            experiment::FaultPreset::kChaos}) {
    Arm failover, duplicate, high_rel;
    for (const auto& [multipath, label] : arms) {
      std::vector<experiment::Scenario> scenarios;
      for (std::uint64_t k = 0;
           k < static_cast<std::uint64_t>(bench::runs_or(4)); ++k) {
        experiment::Scenario s;
        s.env = experiment::Environment::kRuralP1;  // the paper's P1/P2 pair
        s.cc = pipeline::CcKind::kStatic;
        s.c2 = true;
        s.multipath = multipath;
        s.fault_preset = preset;
        s.seed = bench::seed_or(13000) + k;
        scenarios.push_back(s);
      }
      const auto rs = bench::run_scenarios(scenarios);
      const double n = static_cast<double>(rs.size());
      Arm arm;
      double fec_recovered = 0.0, path_switches = 0.0, dup_suppressed = 0.0;
      double media_mb = 0.0;
      for (const auto& r : rs) {
        for (const double ms : r.stall_duration_ms) arm.stall_ms_per_run += ms;
        arm.airtime_mb += static_cast<double>(r.bond_airtime_bytes) / 1e6;
        media_mb += static_cast<double>(r.bond_media_bytes) / 1e6;
        fec_recovered += static_cast<double>(r.bond_fec_recovered);
        path_switches += static_cast<double>(r.bond_path_switches);
        dup_suppressed += static_cast<double>(r.bond_duplicates_suppressed);
      }
      arm.stall_ms_per_run /= n;
      arm.airtime_mb /= n;
      media_mb /= n;
      arm.overhead_pct =
          media_mb > 0.0 ? 100.0 * (arm.airtime_mb / media_mb - 1.0) : 0.0;

      table.add_row(
          {experiment::fault_preset_name(preset), label,
           metrics::TextTable::num(arm.stall_ms_per_run, 0),
           metrics::TextTable::num(experiment::mean_stalls_per_minute(rs), 2),
           metrics::TextTable::num(arm.airtime_mb, 1),
           metrics::TextTable::num(arm.overhead_pct, 1),
           metrics::TextTable::num(fec_recovered / n, 0),
           metrics::TextTable::num(path_switches / n, 1),
           metrics::TextTable::num(dup_suppressed / n, 0)});

      if (multipath == experiment::Multipath::kFailover) failover = arm;
      if (multipath == experiment::Multipath::kDuplicate) duplicate = arm;
      if (multipath == experiment::Multipath::kBondHighReliability)
        high_rel = arm;
    }
    const bool less_stall = high_rel.stall_ms_per_run < failover.stall_ms_per_run;
    const bool less_airtime = high_rel.airtime_mb < duplicate.airtime_mb;
    std::cout << "  [" << experiment::fault_preset_name(preset)
              << "] high-reliability vs failover stall: "
              << (less_stall ? "LOWER" : "NOT LOWER")
              << "; vs duplicate airtime: "
              << (less_airtime ? "LOWER" : "NOT LOWER") << "\n";
    verdict = verdict && less_stall && less_airtime;
  }

  std::cout << "\n" << table.render();
  std::cout << "\nExpected shape: duplicate buys its robustness with "
               "~2x airtime; the bonded high-reliability policy duplicates "
               "only C2 and keyframes and carries the rest on adaptive FEC, "
               "stalling less than failover at a fraction of duplicate's "
               "overhead.\n";
  std::cout << "verdict: " << (verdict ? "PASS" : "FAIL") << "\n";
  return verdict ? 0 : 1;
}
