// Figure 6: achieved goodput of the three delivery methods in the urban and
// rural environments. Paper: urban 20-25 Mbps (static pinned at 25; SCReAM
// ~21; GCC ~19); rural 8-10.5 Mbps with SCReAM best at using the fluctuating
// capacity and both CCs above the 8 Mbps static pick.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace rpv;
  bench::parse_args(argc, argv);
  bench::print_header("Figure 6 — goodput by delivery method and environment",
                      "IMC'22 Fig. 6, Section 4.2.1");

  auto table = bench::summary_table("goodput (Mbps)");
  for (const auto env :
       {experiment::Environment::kUrban, experiment::Environment::kRuralP1}) {
    for (const auto cc : {pipeline::CcKind::kGcc, pipeline::CcKind::kScream,
                          pipeline::CcKind::kStatic}) {
      const auto reports =
          experiment::run_campaign(bench::video_campaign(env, cc, 5));
      std::vector<double> goodput;
      for (const auto& r : reports) {
        goodput.insert(goodput.end(), r.goodput_mbps_windows.begin(),
                       r.goodput_mbps_windows.end());
      }
      bench::add_summary_row(table,
                             experiment::environment_name(env) + " " +
                                 pipeline::cc_name(cc),
                             goodput);
    }
  }
  std::cout << "\n" << table.render();
  std::cout << "\nPaper shape: urban static ~25 > SCReAM ~21 > GCC ~19 Mbps; "
               "rural SCReAM ~10.5 > GCC ~8.5 >= static 8 Mbps.\n";
  return 0;
}
