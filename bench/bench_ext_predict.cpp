// Prediction extension (rpv::predict): reactive vs. proactive adaptation.
//
// The paper shows the latency spikes and stalls cluster around handovers —
// damage GCC/SCReAM only react to after the fact. The proactive arm runs the
// same flights with the HO-aware adapter on: the HandoverPredictor arms
// "HO imminent" from the serving/neighbor RSRP trend, the sender dips its
// bitrate to a fraction of the forecast capacity and defers keyframes
// through the predicted HET window, and flushes its stale queue once the
// bearer is back. Sweeps GCC/SCReAM/static x urban/rural-P1 and reports
// stall-duration and P95 one-way-delay deltas plus the predictor's own
// quality (precision/recall, lead time, capacity-forecast MAE).
#include "bench_common.hpp"

#include <algorithm>

#include "experiment/scenario.hpp"

namespace {

using namespace rpv;

struct ArmResult {
  double mean_stall_ms = 0.0;   // mean frozen-gap length (0 when stall-free)
  double stall_ms_per_run = 0.0;  // mean total frozen time per flight
  double stalls_per_min = 0.0;
  double p95_owd_ms = 0.0;
  double precision = 1.0;
  double recall = 1.0;
  double mean_lead_ms = 0.0;
  double capacity_mae = 0.0;
  std::uint64_t dips = 0;
  std::uint64_t deferrals = 0;
  std::uint64_t flushes = 0;
};

ArmResult run_arm(experiment::Environment env, pipeline::CcKind cc,
                  experiment::Policy policy,
                  const std::vector<std::uint64_t>& seeds) {
  std::vector<experiment::Scenario> scenarios;
  for (const auto seed : seeds) {
    experiment::Scenario s;
    s.env = env;
    s.mobility = experiment::Mobility::kAir;
    s.cc = cc;
    s.seed = seed;
    s.policy = policy;
    scenarios.push_back(s);
  }

  ArmResult a;
  std::vector<double> stall_ms;
  metrics::Cdf owd_ms;
  std::vector<double> lead_ms;
  std::uint64_t tp = 0, fp = 0, missed = 0;
  double mae_sum = 0.0;
  for (const auto& r : bench::run_scenarios(scenarios)) {
    stall_ms.insert(stall_ms.end(), r.stall_duration_ms.begin(),
                    r.stall_duration_ms.end());
    owd_ms.merge(r.owd_ms);
    lead_ms.insert(lead_ms.end(), r.prediction.ho_lead_time_ms.begin(),
                   r.prediction.ho_lead_time_ms.end());
    a.stalls_per_min += r.stalls_per_minute;
    tp += r.prediction.ho_true_positives;
    fp += r.prediction.ho_false_positives;
    missed += r.prediction.ho_missed;
    mae_sum += r.prediction.capacity_mae_mbps;
    a.dips += r.prediction.dip_windows;
    a.deferrals += r.prediction.keyframes_deferred;
    a.flushes += r.prediction.proactive_flushes;
  }
  const auto n = static_cast<double>(seeds.size());
  a.stalls_per_min /= n;
  a.capacity_mae = mae_sum / n;
  if (!stall_ms.empty()) {
    double sum = 0.0;
    for (const double x : stall_ms) sum += x;
    a.mean_stall_ms = sum / static_cast<double>(stall_ms.size());
    a.stall_ms_per_run = sum / n;
  }
  a.p95_owd_ms = owd_ms.quantile(0.95);
  a.precision = (tp + fp) == 0
                    ? 1.0
                    : static_cast<double>(tp) / static_cast<double>(tp + fp);
  a.recall = (tp + missed) == 0
                 ? 1.0
                 : static_cast<double>(tp) / static_cast<double>(tp + missed);
  if (!lead_ms.empty()) {
    double sum = 0.0;
    for (const double x : lead_ms) sum += x;
    a.mean_lead_ms = sum / static_cast<double>(lead_ms.size());
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::print_header(
      "Extension — link-quality prediction & proactive HO adaptation",
      "IMC'22 Section 5 outlook; predictability per 'A Vertical Look at UAV "
      "Connectivity in the Wild'");

  std::vector<std::uint64_t> seeds;
  for (std::uint64_t k = 0; k < static_cast<std::uint64_t>(bench::runs_or(3));
       ++k) {
    seeds.push_back(bench::seed_or(7301) + k * 7919);
  }

  const experiment::Environment envs[] = {experiment::Environment::kUrban,
                                          experiment::Environment::kRuralP1};
  const pipeline::CcKind ccs[] = {pipeline::CcKind::kGcc,
                                  pipeline::CcKind::kScream,
                                  pipeline::CcKind::kStatic};

  metrics::TextTable table{{"env", "method", "stall s/run re/pro",
                            "mean stall ms re/pro", "p95 owd re/pro (ms)",
                            "stalls/min re/pro", "prec", "recall", "lead (ms)",
                            "cap MAE", "dips", "defer", "flush"}};
  int urban_improved = 0;
  for (const auto env : envs) {
    for (const auto cc : ccs) {
      const auto re =
          run_arm(env, cc, experiment::Policy::kReactive, seeds);
      const auto pro =
          run_arm(env, cc, experiment::Policy::kProactive, seeds);
      table.add_row(
          {experiment::environment_name(env), pipeline::cc_name(cc),
           metrics::TextTable::num(re.stall_ms_per_run / 1000.0, 2) + "/" +
               metrics::TextTable::num(pro.stall_ms_per_run / 1000.0, 2),
           metrics::TextTable::num(re.mean_stall_ms, 0) + "/" +
               metrics::TextTable::num(pro.mean_stall_ms, 0),
           metrics::TextTable::num(re.p95_owd_ms, 1) + "/" +
               metrics::TextTable::num(pro.p95_owd_ms, 1),
           metrics::TextTable::num(re.stalls_per_min, 2) + "/" +
               metrics::TextTable::num(pro.stalls_per_min, 2),
           metrics::TextTable::num(pro.precision, 2),
           metrics::TextTable::num(pro.recall, 2),
           metrics::TextTable::num(pro.mean_lead_ms, 0),
           metrics::TextTable::num(pro.capacity_mae, 2),
           std::to_string(pro.dips), std::to_string(pro.deferrals),
           std::to_string(pro.flushes)});
      if (env == experiment::Environment::kUrban) {
        // Improved = strictly lower P95 one-way delay AND no-worse mean
        // stall time per flight. The per-run total is the honest stall
        // aggregate: the proactive arm removes the short queue-pressure
        // stalls entirely, which *raises* the per-event mean (the survivors
        // are the irreducible HET gaps) even as the pilot spends strictly
        // less time frozen.
        const bool improved = pro.p95_owd_ms < re.p95_owd_ms &&
                              pro.stall_ms_per_run <= re.stall_ms_per_run;
        if (improved) ++urban_improved;
        std::cout << "urban/" << pipeline::cc_name(cc) << ": p95 OWD "
                  << metrics::TextTable::num(re.p95_owd_ms, 1) << " -> "
                  << metrics::TextTable::num(pro.p95_owd_ms, 1)
                  << " ms, stall time "
                  << metrics::TextTable::num(re.stall_ms_per_run / 1000.0, 2)
                  << " -> "
                  << metrics::TextTable::num(pro.stall_ms_per_run / 1000.0, 2)
                  << " s/run "
                  << (improved ? "(improved)" : "(NOT improved)") << "\n";
      }
    }
  }

  std::cout << "\n" << table.render();
  std::cout << "\nExpected shape: the predictor arms before the A3 trigger "
               "(positive lead time, high recall), the pre-HO dip keeps the "
               "deep uplink queue shallow through the HET window, and the "
               "post-HO flush drops stale backlog — so the proactive arm "
               "cuts the HO-driven tail of one-way delay and the total time "
               "the pilot's view is frozen, most visibly in the HO-dense "
               "urban environment. (The per-event stall mean can move the "
               "other way: proactive removes the short queue-pressure stalls "
               "outright, leaving only the irreducible HET gaps.)\n";
  const bool pass = urban_improved >= 2;
  std::cout << (pass ? "VERDICT: proactive adaptation improves at least two "
                       "of three urban CC workloads.\n"
                     : "VERDICT: regression — proactive adaptation improved "
                       "fewer than two urban CC workloads.\n");
  return pass ? 0 : 1;
}
