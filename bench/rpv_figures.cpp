// rpv_figures: every table and figure of the paper's evaluation, plus the
// ablations of its discussion, from one set of flights.
//
//   rpv_figures [--only id,...] [--runs N] [--seed S] [--jobs J]
//
// Each figure is a function that asks a Flights object for the reports of
// its campaigns and prints the rows or series the paper plots. main()
// renders the selected figures twice: the first pass only records which
// (scenario, seed) pairs they ask for, one CampaignEngine batch then flies
// each distinct pair once, and the second pass prints from those reports
// (see EXPERIMENTS.md for the paper-vs-measured record). Output is
// byte-identical for any --jobs.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "flights.hpp"
#include "metrics/bootstrap.hpp"
#include "metrics/summary.hpp"

namespace rpv::bench {
namespace {

// --- shared figure helpers ---

metrics::TextTable summary_table(const std::string& value_name) {
  return metrics::TextTable{
      {value_name, "n", "min", "q1", "median", "q3", "max", "mean", "outliers"}};
}

// Boxplot-style row for a sample set.
void add_summary_row(metrics::TextTable& table, const std::string& label,
                     const std::vector<double>& samples, int precision = 2) {
  const auto s = metrics::Summary::of(samples);
  table.add_row({label, std::to_string(s.n), metrics::TextTable::num(s.min, precision),
                 metrics::TextTable::num(s.q1, precision),
                 metrics::TextTable::num(s.median, precision),
                 metrics::TextTable::num(s.q3, precision),
                 metrics::TextTable::num(s.max, precision),
                 metrics::TextTable::num(s.mean, precision),
                 std::to_string(s.outliers_hi)});
}

// "mean [lo, hi]" with a 95% bootstrap CI over the samples.
std::string mean_with_ci(const std::vector<double>& samples, int precision = 2) {
  const auto ci = metrics::bootstrap_mean_ci(samples);
  return metrics::TextTable::num(ci.mean, precision) + " [" +
         metrics::TextTable::num(ci.lo, precision) + ", " +
         metrics::TextTable::num(ci.hi, precision) + "]";
}

// CDF series printed at fixed evaluation points.
void print_cdf_rows(std::ostream& out, const std::string& label,
                    const metrics::Cdf& cdf, const std::vector<double>& xs,
                    const std::string& x_name) {
  out << "\n[" << label << "]  (" << x_name << " -> CDF)\n";
  for (const double x : xs) {
    out << "  " << metrics::TextTable::num(x, 1) << "\t"
        << metrics::TextTable::num(cdf.fraction_below(x), 4) << "\n";
  }
}

// Video flights in the air, base seed 1000.
experiment::Campaign video_campaign(experiment::Environment env,
                                    pipeline::CcKind cc, int runs) {
  experiment::Campaign c;
  c.scenario.env = env;
  c.scenario.cc = cc;
  c.scenario.mobility = experiment::Mobility::kAir;
  c.scenario.seed = seed_or(1000);
  c.runs = runs_or(runs);
  return c;
}

// Probe-only flights (100 ms pings), base seed 2000.
experiment::Campaign probe_campaign(experiment::Environment env,
                                    experiment::Mobility mobility, int runs) {
  experiment::Campaign c;
  c.scenario.env = env;
  c.scenario.mobility = mobility;
  c.scenario.cc = pipeline::CcKind::kNone;
  c.scenario.probe_interval = sim::Duration::millis(100);
  c.scenario.seed = seed_or(2000);
  c.runs = runs_or(runs);
  return c;
}

// The goodput windows of every run, concatenated.
std::vector<double> goodput_windows(
    const std::vector<pipeline::SessionReport>& reports) {
  std::vector<double> goodput;
  for (const auto& r : reports) {
    goodput.insert(goodput.end(), r.goodput_mbps_windows.begin(),
                   r.goodput_mbps_windows.end());
  }
  return goodput;
}

using experiment::Environment;
using experiment::Mobility;
using pipeline::CcKind;

// --- the figures ---

// Figure 4: handover performance in the air vs on the ground.
//  (a) HO frequency (HO/s) — air roughly an order of magnitude above ground,
//      urban above rural;
//  (b) HET distribution — bulk below the 49.5 ms 3GPP threshold, heavy
//      outlier tail in the air reaching seconds.
void fig4(Flights& flights, std::ostream& out) {
  print_header("Figure 4 — HO frequency and HET, air vs ground",
               "IMC'22 Fig. 4(a)/(b), Section 4.1", out);

  struct Row {
    Environment env;
    Mobility mobility;
  };
  const std::vector<Row> rows = {
      {Environment::kUrban, Mobility::kAir},
      {Environment::kUrban, Mobility::kGround},
      {Environment::kRuralP1, Mobility::kAir},
      {Environment::kRuralP1, Mobility::kGround},
  };

  metrics::TextTable freq_ci{{"scenario", "HO/s mean [95% CI]"}};
  auto freq_table = summary_table("HO frequency (HO/s)");
  auto het_table = summary_table("HET (ms)");
  metrics::TextTable het_extra{
      {"scenario", "HET<=49.5ms (%)", "outliers>100ms", "outliers>500ms", "max (ms)"}};

  for (const auto& row : rows) {
    const auto label = experiment::environment_name(row.env) + " " +
                       experiment::mobility_name(row.mobility);
    const auto reports = flights.run(probe_campaign(row.env, row.mobility, 8));
    const auto freqs = experiment::pool_ho_frequency(reports);
    add_summary_row(freq_table, label, freqs, 3);
    freq_ci.add_row({label, mean_with_ci(freqs, 3)});
    const auto het = experiment::pool_het(reports);
    add_summary_row(het_table, label, het, 1);

    int ok = 0, over100 = 0, over500 = 0;
    double max_ms = 0.0;
    for (const double h : het) {
      if (h <= 49.5) ++ok;
      if (h > 100.0) ++over100;
      if (h > 500.0) ++over500;
      max_ms = std::max(max_ms, h);
    }
    het_extra.add_row(
        {label,
         metrics::TextTable::num(het.empty() ? 0.0 : 100.0 * ok / het.size(), 1),
         std::to_string(over100), std::to_string(over500),
         metrics::TextTable::num(max_ms, 0)});
  }

  out << "\n(a) Handover frequency\n" << freq_table.render();
  out << "\n(a) Per-run means with bootstrap confidence\n" << freq_ci.render();
  out << "\n(b) Handover execution time\n" << het_table.render();
  out << "\n(b) HET threshold compliance (3GPP success: <= 49.5 ms)\n"
      << het_extra.render();
  out << "\nPaper shape: air HO frequency ~an order of magnitude above "
         "ground; urban > rural; HET bulk < 49.5 ms with air outliers "
         "up to ~4 s.\n";
}

// Figure 5: one-way latency CDF of RTP packets, ground vs air, urban vs
// rural. The paper finds ~99% of ground packets below 100 ms and ~96% in the
// air, with air outliers beyond 1 s.
void fig5(Flights& flights, std::ostream& out) {
  print_header("Figure 5 — one-way latency CDF, ground vs air",
               "IMC'22 Fig. 5, Section 4.1", out);

  const std::vector<double> xs = {20, 30, 40, 50, 75, 100, 200, 500, 1000, 2000};

  metrics::TextTable summary{{"scenario", "median (ms)", "mean (ms)",
                              "P(<100ms) %", "P(<500ms) %", "p99 (ms)"}};

  struct Row {
    Environment env;
    Mobility mobility;
  };
  for (const auto& row : std::vector<Row>{{Environment::kUrban, Mobility::kGround},
                                          {Environment::kRuralP1, Mobility::kGround},
                                          {Environment::kUrban, Mobility::kAir},
                                          {Environment::kRuralP1, Mobility::kAir}}) {
    const auto label = experiment::mobility_name(row.mobility) + " " +
                       experiment::environment_name(row.env);
    // Static-bitrate video is the transported workload, as in the paper's
    // packet-level analysis.
    auto campaign = video_campaign(row.env, CcKind::kStatic, 5);
    campaign.scenario.mobility = row.mobility;
    const auto owd = experiment::pool_owd(flights.run(campaign));
    print_cdf_rows(out, label, owd, xs, "one-way latency (ms)");
    summary.add_row({label, metrics::TextTable::num(owd.median(), 1),
                     metrics::TextTable::num(owd.mean(), 1),
                     metrics::TextTable::num(100.0 * owd.fraction_below(100.0), 2),
                     metrics::TextTable::num(100.0 * owd.fraction_below(500.0), 2),
                     metrics::TextTable::num(owd.quantile(0.99), 0)});
  }

  out << "\n" << summary.render();
  out << "\nPaper shape: ground ~99% < 100 ms; air ~96% < 100 ms with "
         "outliers beyond 1 s; rural latencies above urban.\n";
}

// Figure 6: achieved goodput of the three delivery methods in the urban and
// rural environments. Paper: urban 20-25 Mbps (static pinned at 25; SCReAM
// ~21; GCC ~19); rural 8-10.5 Mbps with SCReAM best at using the fluctuating
// capacity and both CCs above the 8 Mbps static pick.
void fig6(Flights& flights, std::ostream& out) {
  print_header("Figure 6 — goodput by delivery method and environment",
               "IMC'22 Fig. 6, Section 4.2.1", out);

  auto table = summary_table("goodput (Mbps)");
  for (const auto env : {Environment::kUrban, Environment::kRuralP1}) {
    for (const auto cc : {CcKind::kGcc, CcKind::kScream, CcKind::kStatic}) {
      add_summary_row(table,
                      experiment::environment_name(env) + " " + pipeline::cc_name(cc),
                      goodput_windows(flights.run(video_campaign(env, cc, 5))));
    }
  }
  out << "\n" << table.render();
  out << "\nPaper shape: urban static ~25 > SCReAM ~21 > GCC ~19 Mbps; "
         "rural SCReAM ~10.5 > GCC ~8.5 >= static 8 Mbps.\n";
}

// Figure 7: adaptive video delivery performance in urban and rural tests —
// (a) FPS CDF, (b) SSIM CDF, (c) playback latency CDF, per delivery method.
void fig7(Flights& flights, std::ostream& out) {
  print_header("Figure 7 — FPS, SSIM and playback-latency CDFs per method",
               "IMC'22 Fig. 7(a)-(c), Sections 4.2.1-4.2.3", out);

  const std::vector<double> fps_xs = {1, 5, 10, 15, 20, 25, 29, 30, 33};
  const std::vector<double> ssim_xs = {0.1, 0.25, 0.5, 0.7, 0.8, 0.9, 0.95};
  const std::vector<double> lat_xs = {150, 200, 250, 300, 400, 600, 800, 1000};

  metrics::TextTable headline{{"scenario", "30FPS time (%)", "FPS<10 (%)",
                               "SSIM>=0.5 (%)", "SSIM>=0.9 (%)",
                               "latency<300ms (%)", "stalls/min"}};

  for (const auto env : {Environment::kUrban, Environment::kRuralP1}) {
    for (const auto cc : {CcKind::kStatic, CcKind::kScream, CcKind::kGcc}) {
      const auto label =
          pipeline::cc_name(cc) + " - " + experiment::environment_name(env);
      const auto reports = flights.run(video_campaign(env, cc, 5));

      const auto fps = experiment::pool_fps(reports);
      const auto ssim = experiment::pool_ssim(reports);
      const auto latency = experiment::pool_playback_latency(reports);

      print_cdf_rows(out, label + " / FPS", fps, fps_xs, "frames per second");
      print_cdf_rows(out, label + " / SSIM", ssim, ssim_xs, "SSIM");
      print_cdf_rows(out, label + " / playback latency", latency, lat_xs,
                     "latency (ms)");

      headline.add_row(
          {label,
           metrics::TextTable::num(100.0 * fps.fraction_at_least(29.0), 1),
           metrics::TextTable::num(100.0 * fps.fraction_below(9.99), 2),
           metrics::TextTable::num(100.0 * ssim.fraction_at_least(0.5), 2),
           metrics::TextTable::num(100.0 * ssim.fraction_at_least(0.9), 1),
           metrics::TextTable::num(100.0 * latency.fraction_below(300.0), 1),
           metrics::TextTable::num(experiment::mean_stalls_per_minute(reports), 2)});
    }
  }

  out << "\n" << headline.render();
  out << "\nPaper shape: CCs hold 30 FPS ~90% urban but dip below 10 FPS "
         "(GCC ~3%, SCReAM ~1.5%) more than static; SSIM >= 0.5 between "
         "80.91% and 99.63% (SCReAM minimizes outliers, static urban "
         "worst); playback < 300 ms — urban: GCC/static ~90%, SCReAM "
         "~38%; rural: SCReAM ~85%, GCC lowest.\n";
}

// Figure 8: timeline of one GCC flight — network latency, playback latency,
// packet losses, and handover instants. The paper shows network-latency
// spikes starting ~0.5 s before each handover, with playback latency
// following whenever the network latency exceeds the 150 ms jitter buffer.
void fig8(Flights& flights, std::ostream& out) {
  print_header("Figure 8 — HO / latency timeline of one GCC flight",
               "IMC'22 Fig. 8(a)/(b), Section 4.2.2", out);

  experiment::Scenario s;
  s.env = Environment::kRuralP1;
  s.cc = CcKind::kGcc;
  s.seed = seed_or(4242);
  const auto r = flights.run(std::vector<experiment::Scenario>{s}).front();

  // 1-second resolution timeline rows.
  out << "\ntime(s)\tnet_lat_ms\tplay_lat_ms\thandover\tlosses\n";
  const auto end = r.duration;
  std::size_t second = 0;
  for (double t = 0.0; t < end.sec(); t += 1.0, ++second) {
    const auto from = sim::TimePoint::origin() + sim::Duration::seconds(t);
    const auto to = from + sim::Duration::seconds(1.0);
    const auto net = r.owd_per_second_ms.mean(second);
    const auto play = r.playback_latency_per_second_ms.mean(second);
    int hos = 0;
    for (const auto& ev : r.handovers.events()) {
      if (ev.start >= from && ev.start < to) ++hos;
    }
    int losses = 0;
    for (const auto& lt : r.loss_times) {
      if (lt >= from && lt < to) ++losses;
    }
    out << metrics::TextTable::num(t, 0) << "\t"
        << metrics::TextTable::num(net.value_or(0.0), 1) << "\t"
        << metrics::TextTable::num(play.value_or(0.0), 1) << "\t" << hos << "\t"
        << losses << "\n";
  }

  // Quantify the pre-HO spike the zoomed panel (a) shows.
  // The max over [start - 1 s, start] against the min over
  // [start - 3 s, start - 1 s].
  int spiking = 0;
  for (const auto& w : r.handover_owd_ms) {
    if (w.before.n > 0 && w.lead.n > 0 && w.before.max > 2.0 * w.lead.min) {
      ++spiking;
    }
  }
  out << "\nHandovers preceded by a >2x network-latency spike: " << spiking << "/"
      << r.handovers.count() << "\n";
  out << "Paper shape: spikes begin ~0.5 s before HOs and last ~1 s; "
         "playback latency rises when network latency exceeds the "
         "150 ms jitter buffer.\n";
}

// Figure 9: maximum-to-minimum one-way-latency ratio in the 1-second windows
// before and after each aerial handover. Paper: ~8x on average before, ~5x
// after, with outliers up to 37x before.
void fig9(Flights& flights, std::ostream& out) {
  print_header("Figure 9 — latency ratio around aerial handovers",
               "IMC'22 Fig. 9, Section 4.2.2", out);

  std::vector<double> before, after;
  for (const auto env : {Environment::kUrban, Environment::kRuralP1}) {
    for (const auto cc : {CcKind::kStatic, CcKind::kGcc, CcKind::kScream}) {
      const auto reports = flights.run(video_campaign(env, cc, 4));
      const auto b = experiment::pool_latency_ratio_before(reports);
      const auto a = experiment::pool_latency_ratio_after(reports);
      before.insert(before.end(), b.begin(), b.end());
      after.insert(after.end(), a.begin(), a.end());
    }
  }

  auto table = summary_table("latency ratio (max/min)");
  add_summary_row(table, "Before HO", before);
  add_summary_row(table, "After HO", after);
  out << "\n" << table.render();

  const auto b_sum = metrics::Summary::of(before);
  const auto a_sum = metrics::Summary::of(after);
  out << "\nmean before / mean after = "
      << metrics::TextTable::num(b_sum.mean / std::max(a_sum.mean, 1e-9), 2) << "\n";
  out << "Paper shape: before-HO ratio ~8x mean (outliers to 37x), "
         "after-HO ~5x mean — the spike precedes the handover.\n";
}

// Figure 10: competing operators in the rural region — (a) achievable
// throughput and (b) HO frequency for the default operator P1 vs the denser
// competitor P2. Paper: P2 offers more capacity but also more handovers.
void fig10(Flights& flights, std::ostream& out) {
  print_header("Figure 10 — rural operators P1 vs P2",
               "IMC'22 Fig. 10(a)/(b), Section 5", out);

  auto tp_table = summary_table("throughput (Mbps)");
  auto ho_table = summary_table("HO frequency (HO/s)");

  for (const auto env : {Environment::kRuralP1, Environment::kRuralP2}) {
    const std::string op = env == Environment::kRuralP1 ? "P1" : "P2";
    // Throughput: what SCReAM (the best rural utilizer) extracts.
    add_summary_row(tp_table, op + " (rural)",
                    goodput_windows(
                        flights.run(video_campaign(env, CcKind::kScream, 5))));
    // HO frequency from dedicated probe flights.
    const auto probes = flights.run(probe_campaign(env, Mobility::kAir, 8));
    add_summary_row(ho_table, op + " air", experiment::pool_ho_frequency(probes), 3);
  }

  out << "\n(a) Achievable throughput\n" << tp_table.render();
  out << "\n(b) HO frequency in the air\n" << ho_table.render();
  out << "\nPaper shape: P2's denser rural deployment gives higher "
         "throughput and more frequent handovers than P1.\n";
}

// Figure 12 (Appendix A.3): video delivery performance by operator in the
// rural environment — goodput, FPS, playback latency, and SSIM per method
// over P1 vs P2. Paper: larger P2 capacity improves goodput and SSIM, but
// SCReAM performs significantly poorer with P2 at higher bitrates (the ack-
// window limitation), so latency/FPS do not simply improve.
void fig12(Flights& flights, std::ostream& out) {
  print_header("Figure 12 — MNO comparison of video delivery (rural)",
               "IMC'22 Fig. 12(a)-(d), Appendix A.3", out);

  metrics::TextTable table{{"method-operator", "goodput med (Mbps)",
                            "30FPS time (%)", "latency<300ms (%)",
                            "SSIM med", "SSIM>=0.5 (%)"}};

  for (const auto cc : {CcKind::kGcc, CcKind::kScream, CcKind::kStatic}) {
    for (const auto env : {Environment::kRuralP1, Environment::kRuralP2}) {
      const std::string op = env == Environment::kRuralP1 ? "P1" : "P2";
      auto campaign = video_campaign(env, cc, 4);
      // The paper observed SCReAM's ack-window pathology especially at P2's
      // higher bitrates; the campaign default of 256 already mitigates — use
      // the library default of 64 here, as the A.3 measurements did.
      campaign.scenario.rfc8888_ack_window = 64;
      const auto reports = flights.run(campaign);
      const auto goodput = experiment::pool_goodput(reports);
      const auto fps = experiment::pool_fps(reports);
      const auto latency = experiment::pool_playback_latency(reports);
      const auto ssim = experiment::pool_ssim(reports);
      table.add_row(
          {pipeline::cc_name(cc) + " - " + op,
           metrics::TextTable::num(goodput.median(), 2),
           metrics::TextTable::num(100.0 * fps.fraction_at_least(29.0), 1),
           metrics::TextTable::num(100.0 * latency.fraction_below(300.0), 1),
           metrics::TextTable::num(ssim.median(), 3),
           metrics::TextTable::num(100.0 * ssim.fraction_at_least(0.5), 2)});
    }
  }

  out << "\n" << table.render();
  out << "\nPaper shape: P2's extra rural capacity lifts goodput and "
         "received-frame quality (SSIM), but SCReAM's playback latency "
         "and FPS worsen at P2's higher bitrates (RFC 8888 ack-window "
         "limitation, Section 4.2.1).\n";
}

// Figure 13 (Appendix): ICMP-style RTT measured at different altitude bands
// without cross traffic, urban and rural. Paper: no clear trend below 100 m;
// above that the proportion of high-RTT outliers increases.
void fig13(Flights& flights, std::ostream& out) {
  print_header("Figure 13 — RTT by altitude band (no cross traffic)",
               "IMC'22 Fig. 13(a)/(b), Appendix A.2", out);

  const std::vector<std::pair<double, double>> bands = {
      {0.0, 20.0}, {21.0, 60.0}, {61.0, 100.0}, {101.0, 140.0}};

  for (const auto env : {Environment::kUrban, Environment::kRuralP1}) {
    const auto reports = flights.run(probe_campaign(env, Mobility::kAir, 8));
    out << "\n--- " << experiment::environment_name(env) << " ---\n";
    metrics::TextTable table{{"altitude band (m)", "n", "median (ms)",
                              "p95 (ms)", "p99 (ms)", "P(>100ms) %",
                              "P(>500ms) %"}};
    for (const auto& [lo, hi] : bands) {
      const auto rtt = experiment::pool_rtt_in_band(reports, lo, hi);
      table.add_row(
          {metrics::TextTable::num(lo, 0) + "-" + metrics::TextTable::num(hi, 0),
           std::to_string(rtt.count()), metrics::TextTable::num(rtt.median(), 1),
           metrics::TextTable::num(rtt.quantile(0.95), 1),
           metrics::TextTable::num(rtt.quantile(0.99), 1),
           metrics::TextTable::num(100.0 * (1.0 - rtt.fraction_below(100.0)), 2),
           metrics::TextTable::num(100.0 * (1.0 - rtt.fraction_below(500.0)), 2)});
    }
    out << table.render();
  }

  out << "\nPaper shape: medians stable across bands (min RTT ~35-45 ms); "
         "the 101-140 m band shows a clearly larger high-RTT outlier "
         "proportion.\n";
}

// Section 4.2.1 in-text table: video stall rates and CC ramp-up times.
// Paper: static 0.11 stalls/min, SCReAM 0.89, GCC 1.37 (urban); ramp-up to
// 25 Mbps takes ~12 s for GCC and ~25 s for SCReAM.
void table_stalls(Flights& flights, std::ostream& out) {
  print_header("Table — stall rates and CC ramp-up (Section 4.2.1)",
               "IMC'22 Section 4.2.1 text", out);

  metrics::TextTable stalls{{"method", "stalls/min (urban)", "stalls/min (rural)"}};
  metrics::TextTable ramp{{"method", "ramp-up 2->22.5 Mbps (s), urban mean"}};

  for (const auto cc : {CcKind::kStatic, CcKind::kScream, CcKind::kGcc}) {
    const auto urban = flights.run(video_campaign(Environment::kUrban, cc, 6));
    const auto rural = flights.run(video_campaign(Environment::kRuralP1, cc, 6));
    stalls.add_row(
        {pipeline::cc_name(cc),
         metrics::TextTable::num(experiment::mean_stalls_per_minute(urban), 2),
         metrics::TextTable::num(experiment::mean_stalls_per_minute(rural), 2)});

    if (cc != CcKind::kStatic) {
      double total = 0.0;
      int counted = 0;
      for (const auto& r : urban) {
        const double t = r.ramp_up_seconds(22.5e6);
        if (t > 0) {
          total += t;
          ++counted;
        }
      }
      ramp.add_row({pipeline::cc_name(cc),
                    counted > 0 ? metrics::TextTable::num(total / counted, 1)
                                : std::string("never reached")});
    }
  }

  out << "\nStall rates (inter-frame gap > 300 ms)\n" << stalls.render();
  out << "\nRamp-up to ~25 Mbps\n" << ramp.render();
  out << "\nPaper shape: static 0.11, SCReAM 0.89, GCC 1.37 stalls/min; "
         "ramp-up ~12 s (GCC) and ~25 s (SCReAM).\n";
}

// Ablation (Section 4.2.1): SCReAM's RFC 8888 acknowledgment window — the
// Ericsson library default of 64 packets vs the paper's mitigation of 256.
// Post-handover arrival bursts larger than the window leave received packets
// unacknowledged; SCReAM misreads them as losses and cuts its rate.
void ablation_ack_window(Flights& flights, std::ostream& out) {
  print_header("Ablation — SCReAM RFC 8888 ack window 64 vs 256",
               "IMC'22 Section 4.2.1 (implementation discussion)", out);

  metrics::TextTable table{{"ack window", "environment", "goodput med (Mbps)",
                            "misloss pkts/run", "queue discards/run",
                            "latency<300ms (%)"}};

  for (const int window : {64, 256}) {
    for (const auto env : {Environment::kUrban, Environment::kRuralP1}) {
      auto campaign = video_campaign(env, CcKind::kScream, 5);
      campaign.scenario.rfc8888_ack_window = window;
      const auto reports = flights.run(campaign);
      const auto goodput = experiment::pool_goodput(reports);
      const auto latency = experiment::pool_playback_latency(reports);
      double misloss = 0.0, discards = 0.0;
      for (const auto& r : reports) {
        misloss += static_cast<double>(r.scream_misloss_packets);
        discards += static_cast<double>(r.queue_discard_events);
      }
      misloss /= static_cast<double>(reports.size());
      discards /= static_cast<double>(reports.size());
      table.add_row({std::to_string(window), experiment::environment_name(env),
                     metrics::TextTable::num(goodput.median(), 2),
                     metrics::TextTable::num(misloss, 0),
                     metrics::TextTable::num(discards, 1),
                     metrics::TextTable::num(
                         100.0 * latency.fraction_below(300.0), 1)});
    }
  }

  out << "\n" << table.render();
  out << "\nPaper shape: the 64-packet window mislabels received packets "
         "as lost during arrival bursts, needlessly lowering SCReAM's "
         "bitrate; widening to 256 reduces those events.\n";
}

// Ablation (Appendix A.4): the proposed drop-on-latency jitter-buffer
// strategy — always show the pilot the newest frame instead of stretching
// playback. Compares playback-latency quantiles, stalls, and frame drops.
void ablation_jitterbuffer(Flights& flights, std::ostream& out) {
  print_header("Ablation — rtpjitterbuffer drop-on-latency (A.4)",
               "IMC'22 Appendix A.4", out);

  metrics::TextTable table{{"mode", "method", "latency med (ms)", "p95 (ms)",
                            "latency<300ms (%)", "frames played/run",
                            "stalls/min"}};

  for (const bool drop : {false, true}) {
    for (const auto cc : {CcKind::kGcc, CcKind::kScream}) {
      auto campaign = video_campaign(Environment::kUrban, cc, 5);
      campaign.scenario.drop_on_latency = drop;
      const auto reports = flights.run(campaign);
      const auto latency = experiment::pool_playback_latency(reports);
      double played = 0.0;
      for (const auto& r : reports) played += static_cast<double>(r.frames_played);
      played /= static_cast<double>(reports.size());
      table.add_row(
          {drop ? "drop-on-latency" : "default", pipeline::cc_name(cc),
           metrics::TextTable::num(latency.median(), 0),
           metrics::TextTable::num(latency.quantile(0.95), 0),
           metrics::TextTable::num(100.0 * latency.fraction_below(300.0), 1),
           metrics::TextTable::num(played, 0),
           metrics::TextTable::num(experiment::mean_stalls_per_minute(reports), 2)});
    }
  }

  out << "\n" << table.render();
  out << "\nExpected shape: drop-on-latency trades dropped frames for a "
         "faster return to baseline latency after spikes — the paper "
         "proposes it so the pilot always sees the newest picture.\n";
}

// `runs` flights of `s` seeded base, base + 1, ... (the AQM and DAPS
// ablations' seed ladder, unlike a Campaign's base + i * 7919).
std::vector<experiment::Scenario> consecutive_seeds(const experiment::Scenario& s,
                                                    int runs,
                                                    std::uint64_t base_seed) {
  std::vector<experiment::Scenario> scenarios;
  for (std::uint64_t k = 0; k < static_cast<std::uint64_t>(runs_or(runs)); ++k) {
    scenarios.push_back(s);
    scenarios.back().seed = seed_or(base_seed) + k;
  }
  return scenarios;
}

// Ablation (paper Section 5): smart queue management in the cellular
// uplink. The paper attributes the large latency spikes to operator
// bufferbloat and points at AQM as a mitigation; this ablation enables a
// CoDel-style AQM on the deep uplink buffer and measures its effect on
// latency and on the static stream's loss exposure.
void ablation_aqm(Flights& flights, std::ostream& out) {
  print_header("Ablation — CoDel-style AQM on the uplink buffer",
               "IMC'22 Section 5 (bufferbloat discussion)", out);

  metrics::TextTable table{{"queue", "method", "OWD med (ms)", "OWD p99 (ms)",
                            "latency<300ms (%)", "PER (%)", "goodput (Mbps)"}};

  for (const bool aqm : {false, true}) {
    for (const auto cc : {CcKind::kStatic, CcKind::kGcc}) {
      experiment::Scenario s;
      s.env = Environment::kUrban;
      s.cc = cc;
      s.aqm = aqm;
      const auto rs = flights.run(consecutive_seeds(s, 4, 5000));
      const auto owd = experiment::pool_owd(rs);
      const auto latency = experiment::pool_playback_latency(rs);
      const auto goodput = experiment::pool_goodput(rs);
      table.add_row(
          {aqm ? "CoDel" : "deep FIFO", pipeline::cc_name(cc),
           metrics::TextTable::num(owd.median(), 1),
           metrics::TextTable::num(owd.quantile(0.99), 0),
           metrics::TextTable::num(100.0 * latency.fraction_below(300.0), 1),
           metrics::TextTable::num(100.0 * experiment::mean_per(rs), 3),
           metrics::TextTable::num(goodput.median(), 1)});
    }
  }

  out << "\n" << table.render();
  out << "\nExpected shape: AQM shortens the OWD tail (late arrivals "
         "become drops that the CC reacts to), trading a higher PER — "
         "hardest on the non-adaptive static stream.\n";
}

// Ablation (paper Section 5): the Dual Active Protocol Stack (DAPS)
// make-before-break handover of 3GPP Release 16. The paper argues DAPS
// "could remove the observed latency spikes" by avoiding the bearer
// interruption; this ablation toggles it and measures the around-HO latency
// ratios of Fig. 9 plus the end-to-end latency tail.
void ablation_daps(Flights& flights, std::ostream& out) {
  print_header("Ablation — break-before-make vs DAPS handover",
               "IMC'22 Section 5 (HO mitigation discussion)", out);

  metrics::TextTable table{{"handover", "ratio before HO (mean)",
                            "ratio after HO (mean)", "OWD p99 (ms)",
                            "latency<300ms (%)", "stalls/min"}};

  for (const bool daps : {false, true}) {
    experiment::Scenario s;
    s.env = Environment::kUrban;
    s.cc = CcKind::kGcc;
    s.daps = daps;
    const auto rs = flights.run(consecutive_seeds(s, 5, 7000));
    const auto before = experiment::pool_latency_ratio_before(rs);
    const auto after = experiment::pool_latency_ratio_after(rs);
    const auto owd = experiment::pool_owd(rs);
    const auto latency = experiment::pool_playback_latency(rs);
    const auto b = metrics::Summary::of(before);
    const auto a = metrics::Summary::of(after);
    table.add_row({daps ? "DAPS (make-before-break)" : "break-before-make",
                   metrics::TextTable::num(b.mean, 2),
                   metrics::TextTable::num(a.mean, 2),
                   metrics::TextTable::num(owd.quantile(0.99), 0),
                   metrics::TextTable::num(100.0 * latency.fraction_below(300.0), 1),
                   metrics::TextTable::num(experiment::mean_stalls_per_minute(rs), 2)});
  }

  out << "\n" << table.render();
  out << "\nExpected shape: DAPS removes the execution-time interruption "
         "so the after-HO ratio and the OWD tail shrink; the pre-HO "
         "cell-edge degradation remains (it precedes the trigger).\n";
}

// --- the registry: ids in print order ---

struct Figure {
  const char* id;
  void (*render)(Flights&, std::ostream&);
};

constexpr Figure kFigures[] = {
    {"fig4", fig4},
    {"fig5", fig5},
    {"fig6", fig6},
    {"fig7", fig7},
    {"fig8", fig8},
    {"fig9", fig9},
    {"fig10", fig10},
    {"fig12", fig12},
    {"fig13", fig13},
    {"table_stalls", table_stalls},
    {"ablation_ack_window", ablation_ack_window},
    {"ablation_jitterbuffer", ablation_jitterbuffer},
    {"ablation_aqm", ablation_aqm},
    {"ablation_daps", ablation_daps},
};

std::string figure_ids() {
  std::string ids;
  for (const auto& f : kFigures) ids += std::string{ids.empty() ? "" : ","} + f.id;
  return ids;
}

// The figures a --only list names, in registry order; empty, after saying
// why, when the list names an unknown id or none.
std::vector<const Figure*> select(const std::string& only) {
  std::vector<bool> chosen(std::size(kFigures), false);
  std::stringstream list{only};
  for (std::string id; std::getline(list, id, ',');) {
    const auto* f = std::find_if(std::begin(kFigures), std::end(kFigures),
                                 [&](const Figure& g) { return id == g.id; });
    if (f == std::end(kFigures)) {
      std::cerr << "unknown figure id: '" << id << "' (ids: " << figure_ids()
                << ")\n";
      return {};
    }
    chosen[static_cast<std::size_t>(f - std::begin(kFigures))] = true;
  }
  std::vector<const Figure*> out;
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    if (chosen[i]) out.push_back(&kFigures[i]);
  }
  if (out.empty()) {
    std::cerr << "--only names no figure (ids: " << figure_ids() << ")\n";
  }
  return out;
}

}  // namespace
}  // namespace rpv::bench

int main(int argc, char** argv) {
  using namespace rpv;
  // --only is rpv_figures' own flag; bench_common parses the rest.
  std::string only = bench::figure_ids();
  std::vector<char*> rest{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::string{argv[i]} != "--only") {
      rest.push_back(argv[i]);
    } else if (i + 1 < argc) {
      only = argv[++i];
    } else {
      std::cerr << "--only needs a value\n";
      return 2;
    }
  }
  bench::parse_args(static_cast<int>(rest.size()), rest.data(),
                    "  --only ids  comma-separated figures to print (default: "
                    "all), from\n            " +
                        bench::figure_ids() + "\n");
  const auto figures = bench::select(only);
  if (figures.empty()) return 2;

  bench::Flights flights;
  std::ostream discard{nullptr};
  for (const auto* f : figures) f->render(flights, discard);
  const auto start = std::chrono::steady_clock::now();
  const exec::CampaignEngine engine{{.jobs = bench::options().jobs}};
  flights.fly(engine);
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
  std::cerr << "flights: " << flights.distinct() << " simulated of "
            << flights.requested() << " requested, "
            << metrics::TextTable::num(wall.count(), 1) << " s on "
            << engine.jobs() << " worker(s)\n";
  for (const auto* f : figures) f->render(flights, std::cout);
  return 0;
}
