// Figure 10: competing operators in the rural region — (a) achievable
// throughput and (b) HO frequency for the default operator P1 vs the denser
// competitor P2. Paper: P2 offers more capacity but also more handovers.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace rpv;
  bench::parse_args(argc, argv);
  bench::print_header("Figure 10 — rural operators P1 vs P2",
                      "IMC'22 Fig. 10(a)/(b), Section 5");

  auto tp_table = bench::summary_table("throughput (Mbps)");
  auto ho_table = bench::summary_table("HO frequency (HO/s)");

  for (const auto env :
       {experiment::Environment::kRuralP1, experiment::Environment::kRuralP2}) {
    const std::string op =
        env == experiment::Environment::kRuralP1 ? "P1" : "P2";
    // Throughput: what SCReAM (the best rural utilizer) extracts.
    const auto video = experiment::run_campaign(
        bench::video_campaign(env, pipeline::CcKind::kScream, 5));
    std::vector<double> goodput;
    for (const auto& r : video) {
      goodput.insert(goodput.end(), r.goodput_mbps_windows.begin(),
                     r.goodput_mbps_windows.end());
    }
    bench::add_summary_row(tp_table, op + " (rural)", goodput);
    // HO frequency from dedicated probe flights.
    const auto probes = experiment::run_campaign(
        bench::probe_campaign(env, experiment::Mobility::kAir, 8));
    bench::add_summary_row(ho_table, op + " air",
                           experiment::pool_ho_frequency(probes), 3);
  }

  std::cout << "\n(a) Achievable throughput\n" << tp_table.render();
  std::cout << "\n(b) HO frequency in the air\n" << ho_table.render();
  std::cout << "\nPaper shape: P2's denser rural deployment gives higher "
               "throughput and more frequent handovers than P1.\n";
  return 0;
}
