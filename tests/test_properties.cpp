// Property-style parameterized sweeps across seeds, rates, and module
// configurations: invariants that must hold for any input in the domain.
#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bond/reorder_window.hpp"
#include "cc/gcc/gcc_controller.hpp"
#include "cc/scream/scream_controller.hpp"
#include "cellular/link_queue.hpp"
#include "cellular/loss_model.hpp"
#include "experiment/scenario.hpp"
#include "metrics/cdf.hpp"
#include "metrics/handover_log.hpp"
#include "metrics/time_series.hpp"
#include "net/packet.hpp"
#include "pipeline/report_json.hpp"
#include "pipeline/session.hpp"
#include "radiomap/radio_map.hpp"
#include "obs/event_sink.hpp"
#include "rtp/fec.hpp"
#include "rtp/feedback.hpp"
#include "rtp/jitter_buffer.hpp"
#include "rtp/packetizer.hpp"
#include "rtp/seq_window.hpp"
#include "rtp/sequence.hpp"
#include "video/encoder_model.hpp"
#include "video/ssim_model.hpp"

namespace rpv {
namespace {

using sim::Duration;
using sim::Simulator;
using sim::TimePoint;

// --- Encoder rate tracking across the paper's full bitrate range ---

class EncoderRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(EncoderRateSweep, RealizedWithinTenPercent) {
  const double target = GetParam();
  video::EncoderModel enc{video::EncoderConfig{}, sim::Rng{99}};
  enc.set_target_bitrate(target);
  std::size_t total = 0;
  const int frames = 1800;  // one minute
  for (int i = 0; i < frames; ++i) {
    total += enc.encode(i, TimePoint::from_us(i * 33'333), 1.0, false).size_bytes;
  }
  const double realized = static_cast<double>(total) * 8.0 * 30.0 / frames;
  EXPECT_NEAR(realized, target, target * 0.10);
}

INSTANTIATE_TEST_SUITE_P(PaperRange, EncoderRateSweep,
                         ::testing::Values(2e6, 4e6, 8e6, 12e6, 16e6, 20e6, 25e6));

// --- SSIM monotonicity across the whole rate sweep ---

class SsimRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(SsimRateSweep, CleanScoreAboveThresholdAndBelowCeiling) {
  const double rate = GetParam();
  video::SsimModel m{video::SsimConfig{}, sim::Rng{1}};
  const double s = m.clean_ssim(rate, 1.0);
  EXPECT_GT(s, video::SsimModel::kThreshold);
  EXPECT_LT(s, 1.0);
}

INSTANTIATE_TEST_SUITE_P(PaperRange, SsimRateSweep,
                         ::testing::Values(2e6, 4e6, 8e6, 12e6, 16e6, 20e6, 25e6));

// --- Packetizer conservation across frame sizes ---

class PacketizerSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PacketizerSweep, BytesAndMarkersConserved) {
  const std::size_t bytes = GetParam();
  rtp::PacketizerConfig cfg;
  rtp::Packetizer pk{cfg};
  video::Frame f;
  f.id = 1;
  f.size_bytes = bytes;
  const auto packets = pk.packetize(f);
  std::size_t payload = 0;
  int markers = 0;
  for (const auto& p : packets) {
    payload += p.size_bytes - cfg.header_overhead_bytes;
    markers += p.frame_last ? 1 : 0;
    EXPECT_LE(p.size_bytes, cfg.mtu_payload_bytes + cfg.header_overhead_bytes);
  }
  EXPECT_EQ(payload, bytes);
  EXPECT_EQ(markers, 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PacketizerSweep,
                         ::testing::Values(1, 100, 1199, 1200, 1201, 5000,
                                           33'000, 104'000, 1'000'000));

// --- Sequence unwrapper: random reorder fuzz across seeds ---

class UnwrapperFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UnwrapperFuzz, ValuesConsistentUnderBoundedReorder) {
  sim::Rng rng{GetParam()};
  rtp::SeqUnwrapper u;
  // Generate 50k sequential numbers delivered with bounded reorder (window
  // of 16) and verify every unwrapped value equals the true index.
  const int n = 50'000;
  std::vector<int> pendings;
  int next_emit = 0;
  std::vector<std::pair<std::uint16_t, std::int64_t>> stream;
  for (int i = 0; i < n; ++i) pendings.push_back(i);
  // Bounded shuffle.
  for (int i = 0; i < n; ++i) {
    const int j = std::min<int>(n - 1, i + static_cast<int>(rng.uniform_int(0, 15)));
    std::swap(pendings[i], pendings[j]);
  }
  (void)next_emit;
  for (const int idx : pendings) {
    stream.emplace_back(static_cast<std::uint16_t>(idx & 0xFFFF), idx);
  }
  for (const auto& [seq16, truth] : stream) {
    EXPECT_EQ(u.unwrap(seq16), truth);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnwrapperFuzz, ::testing::Values(1, 2, 3, 4, 5));

// --- Link queue work conservation across service rates ---

class LinkQueueRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(LinkQueueRateSweep, AllAcceptedPacketsEventuallyDeliver) {
  const double rate = GetParam();
  Simulator sim;
  int delivered = 0;
  int dropped = 0;
  cellular::LinkQueue q{
      sim, cellular::LinkQueueConfig{}, [rate] { return rate; },
      [&](net::Packet, cellular::LinkQueue::DoneFn) { ++delivered; },
      [&](const net::Packet&) { ++dropped; }};
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    net::Packet p;
    p.id = static_cast<std::uint64_t>(i) + 1;
    p.size_bytes = 1240;
    sim.schedule_at(TimePoint::from_us(i * 1000), [&q, p] { q.enqueue(p); });
  }
  sim.run_all();
  EXPECT_EQ(delivered + dropped, n);
  if (rate > 12e6) {
    EXPECT_EQ(dropped, 0);  // above the offered load
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, LinkQueueRateSweep,
                         ::testing::Values(1e6, 5e6, 15e6, 50e6));

// --- Loss model PER scales sanely across loads ---

class LossSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LossSeedSweep, RateStableAcrossSeeds) {
  cellular::LossModel lm{cellular::LossConfig{}, sim::Rng{GetParam()}};
  for (int i = 0; i < 1'000'000; ++i) lm.drops_packet();
  EXPECT_GT(lm.loss_rate(), 1e-4);
  EXPECT_LT(lm.loss_rate(), 3e-3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossSeedSweep, ::testing::Values(10, 20, 30, 40));

// --- GCC never exceeds configured bounds under arbitrary feedback ---

class GccFeedbackFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GccFeedbackFuzz, TargetStaysInBounds) {
  sim::Rng rng{GetParam()};
  cc::gcc::GccConfig cfg;
  cc::gcc::GccController gcc{cfg};
  std::uint16_t seq = 0;
  double t_ms = 0.0;
  for (int round = 0; round < 300; ++round) {
    rtp::FeedbackReport report;
    const int pkts = static_cast<int>(rng.uniform_int(1, 30));
    for (int k = 0; k < pkts; ++k) {
      t_ms += rng.uniform(0.1, 5.0);
      gcc.on_packet_sent({seq, 1240,
                          TimePoint::from_us(static_cast<std::int64_t>(t_ms * 1000))});
      const bool received = rng.chance(0.9);
      const double arrival = t_ms + rng.uniform(20.0, 400.0);
      report.results.push_back(
          {seq, received,
           TimePoint::from_us(static_cast<std::int64_t>(arrival * 1000))});
      ++seq;
    }
    gcc.on_feedback(report,
                    TimePoint::from_us(static_cast<std::int64_t>((t_ms + 50) * 1000)));
    EXPECT_GE(gcc.target_bitrate_bps(), cfg.aimd.min_rate_bps * 0.99);
    EXPECT_LE(gcc.target_bitrate_bps(), cfg.aimd.max_rate_bps * 1.01);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GccFeedbackFuzz,
                         ::testing::Values(101, 102, 103, 104, 105));

// --- SCReAM accounting never goes negative under arbitrary feedback ---

class ScreamFeedbackFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScreamFeedbackFuzz, FlightAccountingConsistent) {
  sim::Rng rng{GetParam()};
  cc::scream::ScreamController sc;
  std::uint16_t seq = 0;
  double t_ms = 0.0;
  for (int round = 0; round < 300; ++round) {
    const int pkts = static_cast<int>(rng.uniform_int(0, 20));
    std::uint16_t first = seq;
    for (int k = 0; k < pkts; ++k) {
      t_ms += rng.uniform(0.1, 3.0);
      if (!sc.can_send(1240)) break;
      sc.on_packet_sent({seq++, 1240,
                         TimePoint::from_us(static_cast<std::int64_t>(t_ms * 1000))});
    }
    if (seq != first && rng.chance(0.8)) {
      rtp::FeedbackReport report;
      for (std::uint16_t s = first; s != seq; ++s) {
        report.results.push_back(
            {s, rng.chance(0.95),
             TimePoint::from_us(static_cast<std::int64_t>((t_ms + 40) * 1000))});
      }
      sc.on_feedback(report,
                     TimePoint::from_us(static_cast<std::int64_t>((t_ms + 45) * 1000)));
    }
    sc.on_tick(TimePoint::from_us(static_cast<std::int64_t>(t_ms * 1000)));
    EXPECT_GE(sc.cwnd_bytes(), 2u * 1240u);
    EXPECT_GE(sc.target_bitrate_bps(), 2e6 * 0.99);
    EXPECT_LE(sc.target_bitrate_bps(), 30e6 * 1.01);
  }
}

// --- The flat RFC 8888 feedback path matches the ordered-map model ---
//
// Reference models: the RFC 8888 collector and SCReAM's flight accounting
// written over std::map. The flat seq windows must match them exactly, so
// the fuzzers drive each pair side by side and compare after every call.

TimePoint at_ms(double ms) {
  return TimePoint::from_us(static_cast<std::int64_t>(ms * 1000));
}

class MapRfc8888Collector {
 public:
  explicit MapRfc8888Collector(int ack_window) : ack_window_{ack_window} {}

  void on_packet(std::uint16_t transport_seq, TimePoint arrival) {
    const std::int64_t s = unwrapper_.unwrap(transport_seq);
    arrivals_.emplace(s, arrival);
    any_seen_ = true;
    if (s > highest_) highest_ = s;
    const std::int64_t keep_from = highest_ - 4 * ack_window_;
    while (!arrivals_.empty() && arrivals_.begin()->first < keep_from) {
      arrivals_.erase(arrivals_.begin());
    }
  }

  rtp::FeedbackReport build_report(TimePoint now) const {
    rtp::FeedbackReport report;
    report.generated = now;
    if (!any_seen_) return report;
    const std::int64_t first = std::max<std::int64_t>(
        arrivals_.empty() ? highest_ : arrivals_.begin()->first,
        highest_ - ack_window_ + 1);
    for (std::int64_t s = first; s <= highest_; ++s) {
      rtp::PacketResult r;
      r.transport_seq = static_cast<std::uint16_t>(s & 0xFFFF);
      const auto it = arrivals_.find(s);
      if (it != arrivals_.end()) {
        r.received = true;
        r.arrival = it->second;
      }
      report.results.push_back(r);
    }
    return report;
  }

 private:
  int ack_window_;
  std::map<std::int64_t, TimePoint> arrivals_;
  std::int64_t highest_ = -1;
  bool any_seen_ = false;
  rtp::SeqUnwrapper unwrapper_;
};

class MapScreamController {
 public:
  explicit MapScreamController(cc::scream::ScreamConfig cfg = {})
      : cfg_{cfg},
        rate_bps_{cfg.initial_rate_bps},
        cwnd_{std::max<std::size_t>(cfg.min_cwnd_bytes, 20 * cfg.mss_bytes)} {}

  void on_packet_sent(const cc::SentPacket& p) {
    const std::int64_t seq = unwrapper_.unwrap(p.transport_seq);
    last_sent_seq_ = p.transport_seq;
    flights_.emplace(seq, Flight{p.size_bytes, p.send_time});
    bytes_in_flight_ += p.size_bytes;
  }

  void on_feedback(const rtp::FeedbackReport& report, TimePoint now) {
    if (report.results.empty()) return;
    std::size_t bytes_newly_acked = 0;
    std::int64_t highest_reported = -1;
    for (const auto& r : report.results) {
      const std::int64_t newest = unwrapper_.highest();
      const int back = rtp::seq_diff(last_sent_seq_, r.transport_seq);
      const std::int64_t seq = newest - back;
      highest_reported = std::max(highest_reported, seq);
      if (!r.received) continue;
      const auto it = flights_.find(seq);
      if (it == flights_.end()) continue;
      const double owd_ms = (r.arrival - it->second.send_time).ms();
      const double rtt_ms = (now - it->second.send_time).ms();
      srtt_ms_ = 0.9 * srtt_ms_ + 0.1 * rtt_ms;
      if (owd_ms < base_owd_ms_) base_owd_ms_ = owd_ms;
      window_min_owd_ms_ = std::min(window_min_owd_ms_, owd_ms);
      if (now - base_window_start_ > cfg_.base_refresh) {
        base_owd_ms_ = window_min_owd_ms_;
        window_min_owd_ms_ = 1e9;
        base_window_start_ = now;
      }
      last_qdelay_ms_ = std::max(0.0, owd_ms - base_owd_ms_);
      bytes_newly_acked += it->second.size_bytes;
      bytes_in_flight_ -= std::min(bytes_in_flight_, it->second.size_bytes);
      flights_.erase(it);
    }
    if (highest_reported >= 0 && !report.results.empty()) {
      const std::int64_t window_low =
          highest_reported - static_cast<std::int64_t>(report.results.size()) + 1;
      while (!flights_.empty() && flights_.begin()->first < window_low) {
        declare_lost(flights_.begin()->first, now);
      }
      for (const auto& r : report.results) {
        if (r.received) continue;
        const std::int64_t newest = unwrapper_.highest();
        const int back = rtp::seq_diff(last_sent_seq_, r.transport_seq);
        const std::int64_t seq = newest - back;
        if (highest_reported - seq >
            static_cast<std::int64_t>(report.results.size()) / 2) {
          declare_lost(seq, now);
        }
      }
    }
    const double off_target =
        (cfg_.qdelay_target_ms - last_qdelay_ms_) / cfg_.qdelay_target_ms;
    if (bytes_newly_acked > 0) {
      const double delta = cfg_.gain * off_target *
                           static_cast<double>(bytes_newly_acked) *
                           static_cast<double>(cfg_.mss_bytes) /
                           static_cast<double>(cwnd_);
      const double new_cwnd = static_cast<double>(cwnd_) + delta;
      cwnd_ = static_cast<std::size_t>(
          std::max(static_cast<double>(cfg_.min_cwnd_bytes), new_cwnd));
    }
    maybe_loss_event(now);
    const auto cwnd_floor = static_cast<std::size_t>(
        cfg_.min_rate_bps * (srtt_ms_ / 1e3) / 8.0);
    cwnd_ = std::max(cwnd_, std::max(cfg_.min_cwnd_bytes, cwnd_floor));
    update_rate(now);
  }

  void on_tick(TimePoint now) {
    while (!flights_.empty()) {
      const auto it = flights_.begin();
      if (now - it->second.send_time < cfg_.flight_timeout) break;
      declare_lost(it->first, now);
    }
  }

  void on_feedback_timeout(TimePoint now, double factor) {
    cwnd_ = std::max(cfg_.min_cwnd_bytes,
                     static_cast<std::size_t>(static_cast<double>(cwnd_) * factor));
    rate_bps_ = std::max(cfg_.min_rate_bps, rate_bps_ * factor);
    last_rate_update_ = now;
  }

  void on_send_queue_delay(double ms) { rtp_queue_delay_ms_ = ms; }
  void on_queue_discard() {
    rate_bps_ = std::max(cfg_.min_rate_bps, rate_bps_ * cfg_.queue_discard_rate_factor);
    rtp_queue_delay_ms_ = 0.0;
  }

  [[nodiscard]] double target_bitrate_bps() const { return rate_bps_; }
  [[nodiscard]] std::size_t cwnd_bytes() const { return cwnd_; }
  [[nodiscard]] std::size_t bytes_in_flight() const { return bytes_in_flight_; }
  [[nodiscard]] std::uint64_t packets_declared_lost() const { return declared_lost_; }
  [[nodiscard]] std::uint64_t loss_events() const { return loss_events_; }

 private:
  struct Flight {
    std::size_t size_bytes = 0;
    TimePoint send_time;
  };

  void declare_lost(std::int64_t seq, TimePoint now) {
    const auto it = flights_.find(seq);
    if (it == flights_.end()) return;
    bytes_in_flight_ -= std::min(bytes_in_flight_, it->second.size_bytes);
    flights_.erase(it);
    ++declared_lost_;
    pending_loss_ = true;
    maybe_loss_event(now);
  }

  void maybe_loss_event(TimePoint now) {
    if (!pending_loss_) return;
    if (!last_loss_event_.is_never() &&
        now - last_loss_event_ < cfg_.loss_event_guard) {
      pending_loss_ = false;
      return;
    }
    last_loss_event_ = now;
    pending_loss_ = false;
    ++loss_events_;
    cwnd_ = std::max(cfg_.min_cwnd_bytes,
                     static_cast<std::size_t>(static_cast<double>(cwnd_) *
                                              cfg_.loss_beta_cwnd));
    rate_bps_ = std::max(cfg_.min_rate_bps, rate_bps_ * cfg_.loss_beta_rate);
  }

  void update_rate(TimePoint now) {
    double dt = 0.1;
    if (!last_rate_update_.is_never()) {
      dt = std::clamp((now - last_rate_update_).sec(), 0.0, 0.5);
    }
    last_rate_update_ = now;
    const double cwnd_rate =
        static_cast<double>(cwnd_) * 8.0 / std::max(srtt_ms_ / 1e3, 1e-3);
    const bool queue_ok = rtp_queue_delay_ms_ < cfg_.queue_hold_ms;
    const bool qdelay_ok = last_qdelay_ms_ < 0.75 * cfg_.qdelay_target_ms;
    if (queue_ok && qdelay_ok) {
      const double scale = std::max(1.0, rate_bps_ / 6e6);
      rate_bps_ += cfg_.ramp_up_bps_per_sec * scale * dt;
    } else if (last_qdelay_ms_ > cfg_.qdelay_target_ms) {
      rate_bps_ *= (1.0 - 0.5 * dt);
    }
    rate_bps_ = std::min(rate_bps_, cwnd_rate);
    rate_bps_ = std::clamp(rate_bps_, cfg_.min_rate_bps, cfg_.max_rate_bps);
  }

  cc::scream::ScreamConfig cfg_;
  double rate_bps_;
  std::size_t cwnd_;
  std::size_t bytes_in_flight_ = 0;
  std::map<std::int64_t, Flight> flights_;
  rtp::SeqUnwrapper unwrapper_;
  std::uint16_t last_sent_seq_ = 0;
  double base_owd_ms_ = 1e9;
  double window_min_owd_ms_ = 1e9;
  TimePoint base_window_start_ = TimePoint::origin();
  double last_qdelay_ms_ = 0.0;
  double srtt_ms_ = 50.0;
  double rtp_queue_delay_ms_ = 0.0;
  bool pending_loss_ = false;
  TimePoint last_loss_event_ = TimePoint::never();
  TimePoint last_rate_update_ = TimePoint::never();
  std::uint64_t loss_events_ = 0;
  std::uint64_t declared_lost_ = 0;
};

// Random send / ack / loss / timeout sequences, including sends of old seqs
// that land below the flight window's head.
TEST_P(ScreamFeedbackFuzz, MatchesMapReference) {
  sim::Rng rng{GetParam()};
  cc::scream::ScreamController flat;
  MapScreamController ref;
  std::uint16_t next = 65000;  // crosses the 16-bit wrap
  double t_ms = 0.0;
  for (int step = 0; step < 4000; ++step) {
    const double op = rng.uniform();
    if (op < 0.5) {
      t_ms += rng.uniform(0.1, 3.0);
      std::uint16_t seq = next;
      if (rng.chance(0.05)) {
        seq = static_cast<std::uint16_t>(next - rng.uniform_int(1, 300));
      } else {
        ++next;
      }
      const cc::SentPacket p{
          seq, static_cast<std::size_t>(rng.uniform_int(200, 1240)), at_ms(t_ms)};
      flat.on_packet_sent(p);
      ref.on_packet_sent(p);
    } else if (op < 0.8) {
      // A report over a random window ending near the newest seq; an empty
      // one stands for feedback carrying only a keyframe request.
      rtp::FeedbackReport report;
      report.keyframe_request = rng.chance(0.05);
      const auto len = rng.uniform_int(0, 300);
      const auto end = static_cast<std::uint16_t>(next - rng.uniform_int(0, 20));
      for (auto k = len; k > 0; --k) {
        report.results.push_back({static_cast<std::uint16_t>(end - k),
                                  rng.chance(0.9),
                                  at_ms(t_ms + rng.uniform(-20.0, 80.0))});
      }
      const auto now = at_ms(t_ms + rng.uniform(0.0, 60.0));
      flat.on_feedback(report, now);
      ref.on_feedback(report, now);
    } else if (op < 0.93) {
      if (rng.chance(0.1)) t_ms += rng.uniform(500.0, 3000.0);  // past the flight timeout
      flat.on_tick(at_ms(t_ms));
      ref.on_tick(at_ms(t_ms));
    } else if (op < 0.96) {
      flat.on_feedback_timeout(at_ms(t_ms), 0.8);
      ref.on_feedback_timeout(at_ms(t_ms), 0.8);
    } else if (op < 0.98) {
      flat.on_queue_discard(at_ms(t_ms));
      ref.on_queue_discard();
    } else {
      const double ms = rng.uniform(0.0, 80.0);
      flat.on_send_queue_delay(ms);
      ref.on_send_queue_delay(ms);
    }
    ASSERT_EQ(flat.bytes_in_flight(), ref.bytes_in_flight()) << "step " << step;
    ASSERT_EQ(flat.packets_declared_lost(), ref.packets_declared_lost())
        << "step " << step;
    ASSERT_EQ(flat.loss_events(), ref.loss_events()) << "step " << step;
    ASSERT_EQ(flat.cwnd_bytes(), ref.cwnd_bytes()) << "step " << step;
    ASSERT_EQ(flat.target_bitrate_bps(), ref.target_bitrate_bps())
        << "step " << step;
  }
  EXPECT_GT(ref.packets_declared_lost(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScreamFeedbackFuzz,
                         ::testing::Values(201, 202, 203, 204, 205));

bool same_report(const rtp::FeedbackReport& a, const rtp::FeedbackReport& b) {
  if (a.generated != b.generated || a.keyframe_request != b.keyframe_request ||
      a.results.size() != b.results.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const auto& x = a.results[i];
    const auto& y = b.results[i];
    if (x.transport_seq != y.transport_seq || x.received != y.received ||
        x.arrival != y.arrival) {
      return false;
    }
  }
  return true;
}

class Rfc8888CollectorFuzz
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

// Seeded arrival streams with drop bursts, duplicates, reordering up to
// 3 * window, sparse stretches that leave few seqs retained, packets late
// around and past the trim point highest - 4 * window, and the 16-bit wrap.
TEST_P(Rfc8888CollectorFuzz, ReportsMatchMapReference) {
  const auto [window, seed] = GetParam();
  sim::Rng rng{seed};
  rtp::Rfc8888Collector flat{window};
  MapRfc8888Collector ref{window};
  std::int64_t next = 65536 - rng.uniform_int(1, 40 * window + 100);
  std::int64_t top = next;  // highest seq delivered so far
  double t_ms = 0.0;
  auto deliver = [&](std::int64_t seq) {
    t_ms += rng.uniform(0.0, 0.5);
    const auto wire = static_cast<std::uint16_t>(seq & 0xFFFF);
    flat.on_packet(wire, at_ms(t_ms));
    ref.on_packet(wire, at_ms(t_ms));
  };
  std::size_t reports = 0;
  for (int batch = 0; batch < 80; ++batch) {
    std::vector<std::pair<double, std::int64_t>> arrivals;  // (order key, seq)
    const bool sparse = rng.chance(0.3);
    const auto n = rng.uniform_int(1, 4 * window + 16);
    for (std::int64_t i = 0; i < n; ++i, ++next) {
      if (sparse) {
        next += rng.uniform_int(0, 2 * window);
      } else if (rng.chance(0.03)) {
        next += rng.uniform_int(1, 2 * window);  // drop burst
      }
      if (rng.chance(0.05)) continue;  // single loss
      const double key = static_cast<double>(i) +
                         (rng.chance(0.3) ? rng.uniform(0.0, 3.0 * window) : 0.0);
      arrivals.emplace_back(key, next);
      if (rng.chance(0.03)) arrivals.emplace_back(key + rng.uniform(0.0, 8.0), next);
    }
    if (rng.chance(0.3)) {
      arrivals.emplace_back(rng.uniform(0.0, static_cast<double>(n)),
                            next - 4 * window - rng.uniform_int(1, window + 1));
    }
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [key, seq] : arrivals) {
      deliver(seq);
      top = std::max(top, seq);
      if (rng.chance(0.05)) deliver(top - 4 * window + rng.uniform_int(-2, 1));
      if (rng.chance(16.0 / window)) {
        ASSERT_TRUE(same_report(flat.build_report(at_ms(t_ms)),
                                ref.build_report(at_ms(t_ms))))
            << "batch " << batch << " seq " << seq;
        ++reports;
      }
    }
    ASSERT_TRUE(same_report(flat.build_report(at_ms(t_ms)),
                            ref.build_report(at_ms(t_ms))))
        << "batch " << batch;
    ++reports;
  }
  EXPECT_GT(next, 65536 + 4 * window);  // the stream wrapped
  EXPECT_GE(reports, 80u);
}

INSTANTIATE_TEST_SUITE_P(
    WindowsAndSeeds, Rfc8888CollectorFuzz,
    ::testing::Combine(::testing::Values(1, 4, 64, 256),
                       ::testing::Values(std::uint64_t{401}, std::uint64_t{402},
                                         std::uint64_t{403})));

class SeqWindowFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// Random inserts anywhere near a sliding centre (negative seqs included),
// erases and range trims against std::map.
TEST_P(SeqWindowFuzz, MatchesStdMap) {
  sim::Rng rng{GetParam()};
  rtp::SeqWindow<int> flat;
  std::map<std::int64_t, int> ref;
  std::int64_t centre = rng.uniform_int(-5000, 5000);
  for (int step = 0; step < 20000; ++step) {
    const std::int64_t seq = centre + rng.uniform_int(-300, 300);
    const double op = rng.uniform();
    if (op < 0.5) {
      ASSERT_EQ(flat.insert(seq, step), ref.emplace(seq, step).second);
    } else if (op < 0.9) {
      flat.erase(seq);
      ref.erase(seq);
    } else {
      flat.erase_below(seq - 200);
      ref.erase(ref.begin(), ref.lower_bound(seq - 200));
    }
    centre += rng.uniform_int(0, 2);
    ASSERT_EQ(flat.size(), ref.size()) << "step " << step;
    if (!ref.empty()) {
      ASSERT_EQ(flat.front(), ref.begin()->first) << "step " << step;
      ASSERT_EQ(flat.back(), ref.rbegin()->first) << "step " << step;
    }
    const std::int64_t probe = centre + rng.uniform_int(-400, 400);
    const int* found = flat.find(probe);
    const auto it = ref.find(probe);
    ASSERT_EQ(found != nullptr, it != ref.end()) << "step " << step;
    if (found != nullptr) {
      ASSERT_EQ(*found, it->second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeqWindowFuzz, ::testing::Values(501, 502, 503));

// --- Bonded receive path: flat tables against the std::map originals ---
//
// MapReorderWindow, MapFecGroupTable and MapFecDecoder are the bonded
// receive path as it was written over std::map, std::unordered_set and a
// FIFO deque of dedup keys. Two changes are carried over from the flat
// window: a packet whose unwrapped seq another packet already holds is
// released at once and counted late (the original dropped it), and a seq is
// placed against next_expected_, so a copy trailing the stream by more than
// half the seq space is released late instead of landing ahead of it (the
// original unwrapped against the newest seq). The fuzzers drive each pair
// side by side and compare after every call.

class MapReorderWindow {
 public:
  MapReorderWindow(Simulator& sim, bond::ReorderWindowConfig cfg,
                   bond::ReorderWindow::DeliverFn deliver)
      : sim_{sim}, cfg_{cfg}, deliver_{std::move(deliver)} {}

  void attach_observer(obs::EventBus* bus) { bus_ = bus; }

  void on_packet(net::Packet p, int path) {
    const auto now = sim_.now();
    if (path >= 0) {
      const auto idx = static_cast<std::size_t>(path);
      if (idx >= path_latency_ms_.size()) {
        path_latency_ms_.resize(idx + 1, 0.0);
        path_seen_.resize(idx + 1, false);
      }
      const double owd_ms = (now - p.sent).ms();
      if (!path_seen_[idx]) {
        path_latency_ms_[idx] = owd_ms;
        path_seen_[idx] = true;
      } else {
        path_latency_ms_[idx] += cfg_.skew_alpha * (owd_ms - path_latency_ms_[idx]);
      }
    }
    const std::uint64_t key = dedup_key(p);
    if (!seen_.insert(key).second) {
      ++duplicates_suppressed_;
      return;
    }
    seen_order_.push_back(key);
    if (seen_order_.size() > 60000) {
      for (int i = 0; i < 20000; ++i) {
        seen_.erase(seen_order_.front());
        seen_order_.pop_front();
      }
    }
    if (!started_) {
      started_ = true;
      next_expected_ = p.transport_seq;
    }
    const std::int64_t seq =
        next_expected_ +
        rtp::seq_diff(p.transport_seq, static_cast<std::uint16_t>(next_expected_));
    if (seq - next_expected_ >= bond::ReorderWindow::kMaxJump) {
      if (seq != jump_successor_) {
        jump_successor_ = seq + 1;
        ++late_;
        ++delivered_;
        deliver_(std::move(p), path);
        return;
      }
      if (!buffer_.empty()) {
        const auto released = static_cast<std::uint32_t>(buffer_.size());
        release(buffer_.end());
        ++flushes_;
        publish_flush(released, 2, hold_window().ms());
      }
      next_expected_ = seq;
    }
    jump_successor_ = -1;
    if (seq < next_expected_ || buffer_.count(seq) != 0) {
      ++late_;
      ++delivered_;
      deliver_(std::move(p), path);
      return;
    }
    buffer_.emplace(seq, Held{std::move(p), now, path});
    drain_in_order();
    if (buffer_.size() >= cfg_.max_packets) {
      const auto released = static_cast<std::uint32_t>(buffer_.size());
      release(buffer_.end());
      ++flushes_;
      publish_flush(released, 1, hold_window().ms());
    }
    arm_timer();
  }

  void flush_all() {
    timer_.cancel();
    timer_deadline_ = TimePoint::never();
    if (buffer_.empty()) return;
    const auto released = static_cast<std::uint32_t>(buffer_.size());
    release(buffer_.end());
    ++flushes_;
    publish_flush(released, 2, hold_window().ms());
  }

  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t duplicates_suppressed() const { return duplicates_suppressed_; }
  std::uint64_t flushes() const { return flushes_; }
  std::uint64_t late_packets() const { return late_; }
  std::size_t held() const { return buffer_.size(); }
  // How many accepted keys the duplicate filter remembers.
  std::size_t remembered() const { return seen_order_.size(); }

  double skew_ms() const {
    double lo = 0.0;
    double hi = 0.0;
    bool any = false;
    for (std::size_t i = 0; i < path_latency_ms_.size(); ++i) {
      if (!path_seen_[i]) continue;
      if (!any) {
        lo = hi = path_latency_ms_[i];
        any = true;
      } else {
        lo = std::min(lo, path_latency_ms_[i]);
        hi = std::max(hi, path_latency_ms_[i]);
      }
    }
    return any ? hi - lo : 0.0;
  }

 private:
  struct Held {
    net::Packet packet;
    TimePoint arrived;
    int path = 0;
  };
  using Buffer = std::map<std::int64_t, Held>;

  static std::uint64_t dedup_key(const net::Packet& p) {
    if (p.kind == net::PacketKind::kFecParity) {
      return (1ULL << 48) |
             (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.fec_group))
              << 16) |
             p.transport_seq;
    }
    return (static_cast<std::uint64_t>(p.frame_id) << 16) | p.transport_seq;
  }

  Duration hold_window() const {
    const auto skew = Duration::seconds(skew_ms() * 1.5 / 1e3);
    return std::clamp(skew, cfg_.base_hold, cfg_.max_hold);
  }

  void drain_in_order() {
    auto it = buffer_.begin();
    while (it != buffer_.end() && it->first == next_expected_) {
      ++next_expected_;
      ++delivered_;
      deliver_(std::move(it->second.packet), it->second.path);
      it = buffer_.erase(it);
    }
  }

  void release(Buffer::iterator end_it) {
    auto it = buffer_.begin();
    while (it != end_it) {
      next_expected_ = it->first + 1;
      ++delivered_;
      deliver_(std::move(it->second.packet), it->second.path);
      it = buffer_.erase(it);
    }
    drain_in_order();
  }

  void flush_expired() {
    timer_deadline_ = TimePoint::never();
    if (buffer_.empty()) return;
    const auto now = sim_.now();
    const auto hold = hold_window();
    auto end_it = buffer_.begin();
    std::uint32_t released = 0;
    for (auto it = buffer_.begin(); it != buffer_.end(); ++it) {
      if (it->second.arrived + hold <= now) {
        end_it = std::next(it);
        released = static_cast<std::uint32_t>(std::distance(buffer_.begin(), end_it));
      }
    }
    if (released > 0) {
      release(end_it);
      ++flushes_;
      publish_flush(released, 0, hold.ms());
    }
    arm_timer();
  }

  void arm_timer() {
    if (buffer_.empty()) {
      timer_.cancel();
      timer_deadline_ = TimePoint::never();
      return;
    }
    TimePoint oldest = TimePoint::never();
    for (const auto& [seq, held] : buffer_) oldest = std::min(oldest, held.arrived);
    const auto deadline = oldest + hold_window();
    if (timer_.pending() && deadline >= timer_deadline_) return;
    timer_deadline_ = deadline;
    timer_ = sim_.schedule_timer_at(deadline, [this] { flush_expired(); });
  }

  void publish_flush(std::uint32_t released, std::uint8_t reason, double hold_ms) {
    if (bus_ == nullptr || !bus_->wants(obs::EventKind::kReorderFlush)) return;
    bus_->publish(obs::Component::kBond, obs::EventKind::kReorderFlush, sim_.now(),
                  obs::ReorderFlushPayload{released, reason, hold_ms});
  }

  Simulator& sim_;
  bond::ReorderWindowConfig cfg_;
  bond::ReorderWindow::DeliverFn deliver_;
  obs::EventBus* bus_ = nullptr;
  Buffer buffer_;
  bool started_ = false;
  std::int64_t next_expected_ = 0;
  std::int64_t jump_successor_ = -1;
  std::unordered_set<std::uint64_t> seen_;
  std::deque<std::uint64_t> seen_order_;
  std::vector<double> path_latency_ms_;
  std::vector<bool> path_seen_;
  TimePoint timer_deadline_ = TimePoint::never();
  sim::Timer timer_;
  std::uint64_t delivered_ = 0;
  std::uint64_t duplicates_suppressed_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t late_ = 0;
};

class MapFecGroupTable {
 public:
  void put(std::int32_t group, std::vector<net::Packet> members) {
    groups_[group] = std::move(members);
    while (groups_.size() > 512) groups_.erase(groups_.begin());
  }
  const std::vector<net::Packet>* get(std::int32_t group) const {
    const auto it = groups_.find(group);
    return it == groups_.end() ? nullptr : &it->second;
  }

 private:
  std::map<std::int32_t, std::vector<net::Packet>> groups_;
};

class MapFecDecoder {
 public:
  explicit MapFecDecoder(const MapFecGroupTable& table) : table_{table} {}

  std::optional<net::Packet> on_media_packet(const net::Packet& p, TimePoint now) {
    if (p.fec_group < 0) return std::nullopt;
    auto& st = states_[p.fec_group];
    st.seen_transport_seqs.push_back(p.transport_seq);
    while (states_.size() > 512) states_.erase(states_.begin());
    return try_repair(p.fec_group, now);
  }

  std::optional<net::Packet> on_parity_packet(const net::Packet& parity,
                                              TimePoint now) {
    if (parity.fec_group < 0) return std::nullopt;
    states_[parity.fec_group].parity_seen = true;
    return try_repair(parity.fec_group, now);
  }

  std::uint64_t recovered_packets() const { return recovered_; }

 private:
  struct GroupState {
    std::vector<std::uint16_t> seen_transport_seqs;
    bool parity_seen = false;
    bool repaired = false;
  };

  std::optional<net::Packet> try_repair(std::int32_t group, TimePoint now) {
    auto& st = states_[group];
    if (!st.parity_seen || st.repaired) return std::nullopt;
    const auto* members = table_.get(group);
    if (members == nullptr) return std::nullopt;
    const net::Packet* missing = nullptr;
    int missing_count = 0;
    for (const auto& m : *members) {
      if (std::find(st.seen_transport_seqs.begin(), st.seen_transport_seqs.end(),
                    m.transport_seq) == st.seen_transport_seqs.end()) {
        ++missing_count;
        missing = &m;
      }
    }
    if (missing_count != 1) return std::nullopt;
    st.repaired = true;
    ++recovered_;
    net::Packet rebuilt = *missing;
    rebuilt.received = now;
    return rebuilt;
  }

  const MapFecGroupTable& table_;
  std::map<std::int32_t, GroupState> states_;
  std::uint64_t recovered_ = 0;
};

// One side of the reorder-window fuzz: a window on its own simulator, with
// every release and every flush event logged.
template <class Window>
struct WindowRun {
  Simulator sim;
  std::vector<std::pair<std::uint64_t, int>> released;  // (packet id, path)
  std::vector<std::pair<TimePoint, obs::ReorderFlushPayload>> flush_events;
  obs::EventBus bus;
  obs::FunctionSink sink{obs::kind_bit(obs::EventKind::kReorderFlush),
                         [this](const obs::Event& e) {
                           flush_events.emplace_back(
                               e.t, std::get<obs::ReorderFlushPayload>(e.payload));
                         }};
  Window window;

  explicit WindowRun(bond::ReorderWindowConfig cfg)
      : window{sim, cfg, [this](net::Packet p, int path) {
                 released.emplace_back(p.id, path);
               }} {
    bus.subscribe(&sink);
    window.attach_observer(&bus);
  }
};

// Compares the logs past `checked` (then advances it) and every counter.
::testing::AssertionResult same_window(const WindowRun<bond::ReorderWindow>& flat,
                                       const WindowRun<MapReorderWindow>& ref,
                                       std::pair<std::size_t, std::size_t>& checked) {
  auto& [releases, flushes] = checked;
  if (flat.released.size() != ref.released.size()) {
    return ::testing::AssertionFailure() << "released " << flat.released.size()
                                         << " vs " << ref.released.size();
  }
  for (; releases < flat.released.size(); ++releases) {
    if (flat.released[releases] != ref.released[releases]) {
      return ::testing::AssertionFailure() << "release #" << releases << ": id "
                                           << flat.released[releases].first << " vs "
                                           << ref.released[releases].first;
    }
  }
  if (flat.flush_events.size() != ref.flush_events.size()) {
    return ::testing::AssertionFailure() << "flush events " << flat.flush_events.size()
                                         << " vs " << ref.flush_events.size();
  }
  for (; flushes < flat.flush_events.size(); ++flushes) {
    if (flat.flush_events[flushes] != ref.flush_events[flushes]) {
      return ::testing::AssertionFailure() << "flush event #" << flushes;
    }
  }
  const auto& a = flat.window;
  const auto& b = ref.window;
  if (a.delivered() != b.delivered() ||
      a.duplicates_suppressed() != b.duplicates_suppressed() ||
      a.flushes() != b.flushes() || a.late_packets() != b.late_packets() ||
      a.held() != b.held() || a.skew_ms() != b.skew_ms()) {
    return ::testing::AssertionFailure()
           << "counters delivered " << a.delivered() << "/" << b.delivered()
           << " duplicates " << a.duplicates_suppressed() << "/"
           << b.duplicates_suppressed() << " flushes " << a.flushes() << "/"
           << b.flushes() << " late " << a.late_packets() << "/" << b.late_packets()
           << " held " << a.held() << "/" << b.held();
  }
  return ::testing::AssertionSuccess();
}

class ReorderWindowFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// Seeded arrival streams over 1-4 paths of unequal latency and jitter:
// duplicated copies, media and parity packets, gaps (copies lost on every
// path), latency spikes that outlive the hold, overflow of a small
// max_packets, the 16-bit wrap, and late copies trailing their original by
// up to 60k packets. Past 60,000 accepted packets, copies of the oldest
// packet the reference still remembers and of the newest it forgot probe
// the duplicate filter's bound. Each logical packet owns its transport seq,
// as the sender guarantees.
TEST_P(ReorderWindowFuzz, MatchesMapReference) {
  sim::Rng rng{GetParam()};
  const auto paths = static_cast<int>(rng.uniform_int(1, 4));
  bond::ReorderWindowConfig cfg;
  if (rng.chance(0.5)) cfg.max_packets = static_cast<std::size_t>(rng.uniform_int(4, 48));
  const int n = 88'000;
  const double gap_ms = rng.uniform(0.2, 1.0);
  const auto seq0 = static_cast<std::uint16_t>(65536 - rng.uniform_int(1, 3000));

  std::vector<net::Packet> logical(n);
  for (int i = 0; i < n; ++i) {
    auto& p = logical[static_cast<std::size_t>(i)];
    p.transport_seq = static_cast<std::uint16_t>(seq0 + i);
    p.sent = at_ms(i * gap_ms);
    if (rng.chance(0.15)) {
      p.kind = net::PacketKind::kFecParity;
      p.fec_group = i / 10;
    } else {
      p.frame_id = static_cast<std::uint32_t>(i / 6);
    }
  }
  // Each packet is sprayed onto one path (lost there now and then) and
  // duplicated onto each other path with that path's probability.
  std::vector<double> base_ms(4);
  std::vector<double> jitter_ms(4);
  std::vector<double> dup_p(4);
  for (int k = 0; k < paths; ++k) {
    base_ms[k] = rng.uniform(5.0, 120.0);
    jitter_ms[k] = rng.uniform(0.5, 15.0);
    dup_p[k] = rng.uniform(0.05, 0.6);
  }
  const double loss_p = rng.uniform(0.0, 0.05);
  struct Copy {
    double at_ms;
    int index;
    int path;
  };
  std::vector<Copy> copies;
  for (int i = 0; i < n; ++i) {
    const double sent = i * gap_ms;
    const auto sprayed = rng.uniform_int(0, paths - 1);
    for (int k = 0; k < paths; ++k) {
      if (!rng.chance(k == sprayed ? 1.0 - loss_p : dup_p[k])) continue;
      double owd = base_ms[k] + rng.exponential(jitter_ms[k]);
      if (rng.chance(0.002)) owd += rng.uniform(50.0, 400.0);  // outlives the hold
      copies.push_back({sent + owd, i, k});
    }
    if (rng.chance(0.001)) {
      const double trail = static_cast<double>(rng.uniform_int(1, 60'000)) * gap_ms;
      copies.push_back({sent + trail + base_ms[0],
                        i, static_cast<int>(rng.uniform_int(0, paths - 1))});
    }
  }
  std::stable_sort(copies.begin(), copies.end(),
                   [](const Copy& a, const Copy& b) { return a.at_ms < b.at_ms; });

  WindowRun<bond::ReorderWindow> flat{cfg};
  WindowRun<MapReorderWindow> ref{cfg};
  std::pair<std::size_t, std::size_t> checked{0, 0};
  std::vector<int> accepted;  // logical index of each accepted copy, in order
  std::uint64_t fed = 0;
  int newest = 0;
  auto feed = [&](int i, int path) {
    net::Packet p = logical[static_cast<std::size_t>(i)];
    p.id = fed * 8 + static_cast<std::uint64_t>(path);  // a fresh id per copy
    ++fed;
    const auto dups = ref.window.duplicates_suppressed();
    flat.window.on_packet(p, path);
    ref.window.on_packet(p, path);
    if (ref.window.duplicates_suppressed() == dups) accepted.push_back(i);
  };
  std::set<std::size_t> probed;
  for (const auto& c : copies) {
    flat.sim.run_until(at_ms(c.at_ms));
    ref.sim.run_until(at_ms(c.at_ms));
    ASSERT_TRUE(same_window(flat, ref, checked)) << "timers before copy " << fed;
    feed(c.index, c.path);
    newest = std::max(newest, c.index);
    ASSERT_TRUE(same_window(flat, ref, checked)) << "copy " << fed;
    ASSERT_EQ(flat.window.delivered() + flat.window.duplicates_suppressed() +
                  flat.window.held(),
              fed);
    const std::size_t count = accepted.size();
    if (count >= 60'000 && (count - 60'000) % 20'000 <= 1 && probed.insert(count).second) {
      const std::size_t forgotten = count - ref.window.remembered();
      for (std::size_t back = 0; back <= 1 && back <= forgotten; ++back) {
        const int i = accepted[forgotten - back];
        if (newest - i >= 65'000) continue;  // the table forgets past 65,536 seqs
        feed(i, 0);
        ASSERT_TRUE(same_window(flat, ref, checked)) << "probe " << fed;
      }
    }
  }
  flat.window.flush_all();
  ref.window.flush_all();
  ASSERT_TRUE(same_window(flat, ref, checked)) << "final flush";
  EXPECT_EQ(flat.window.delivered() + flat.window.duplicates_suppressed(), fed);
  const auto& r = ref.window;
  EXPECT_GT(r.flushes(), 0u);
  EXPECT_GT(r.late_packets(), 0u);
  if (paths > 1) {
    EXPECT_GT(r.duplicates_suppressed(), 0u);
  }
  EXPECT_GE(probed.size(), 2u);  // the duplicate filter's bound was probed
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReorderWindowFuzz,
                         ::testing::Values(601, 602, 603, 604));

class FecDecoderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// A FecEncoder (random group size, interleave depth and mid-stream retunes)
// fills both tables while its media and parity reach the decoders lost,
// duplicated, reordered behind a delivery lag that changes now and then,
// and some of them late. A late packet of group g arrives just as the
// decoders first see group g + 512 - k, or just as the encoder completes
// that group, for small k: so both bounds of 512 groups are probed at their
// edge. Transport seqs wrap.
TEST_P(FecDecoderFuzz, MatchesMapReference) {
  sim::Rng rng{GetParam()};
  rtp::FecConfig cfg;
  cfg.group_size = static_cast<int>(rng.uniform_int(2, 12));
  cfg.interleave_depth = static_cast<int>(rng.uniform_int(1, 24));
  auto table = std::make_shared<rtp::FecGroupTable>();
  rtp::FecEncoder encoder{cfg, table};
  rtp::FecDecoder flat{table};
  MapFecGroupTable ref_table;
  MapFecDecoder ref{ref_table};

  std::multimap<double, net::Packet> in_flight;  // by delivery key
  // Late packets, by the group whose first sight (at the decoders) or
  // completion (at the encoder) releases them.
  std::multimap<std::int32_t, net::Packet> late_at_decoder;
  std::multimap<std::int32_t, net::Packet> late_at_encoder;
  std::int32_t newest_seen = -1;
  std::size_t fed = 0;
  auto same = [](const std::optional<net::Packet>& a,
                 const std::optional<net::Packet>& b) {
    return a.has_value() == b.has_value() &&
           (!a || (a->id == b->id && a->transport_seq == b->transport_seq &&
                   a->fec_group == b->fec_group && a->received == b->received));
  };
  auto release = [](std::multimap<std::int32_t, net::Packet>& late, std::int32_t upto) {
    std::vector<net::Packet> out;
    while (!late.empty() && late.begin()->first <= upto) {
      out.push_back(late.begin()->second);
      late.erase(late.begin());
    }
    return out;
  };
  std::function<void(const net::Packet&)> deliver = [&](const net::Packet& p) {
    const auto now = TimePoint::from_us(static_cast<std::int64_t>(fed++));
    const bool parity = p.kind == net::PacketKind::kFecParity;
    const auto a = parity ? flat.on_parity_packet(p, now) : flat.on_media_packet(p, now);
    const auto b = parity ? ref.on_parity_packet(p, now) : ref.on_media_packet(p, now);
    ASSERT_TRUE(same(a, b)) << "packet " << fed << " group " << p.fec_group;
    ASSERT_EQ(flat.recovered_packets(), ref.recovered_packets()) << "packet " << fed;
    if (!parity && p.fec_group > newest_seen) {
      newest_seen = p.fec_group;
      for (const auto& q : release(late_at_decoder, newest_seen)) deliver(q);
    }
  };

  double lag = 0.0;
  double jitter = 0.0;
  double pos = 0.0;  // send position
  auto send = [&](const net::Packet& p) {
    pos += 1.0;
    if (rng.chance(0.06)) return;  // lost
    if (rng.chance(0.04)) {
      const auto edge = p.fec_group + 512 - static_cast<std::int32_t>(rng.uniform_int(-2, 3));
      (rng.chance(0.5) ? late_at_decoder : late_at_encoder).emplace(edge, p);
      return;
    }
    const double key = pos + lag + rng.uniform(0.0, jitter);
    in_flight.emplace(key, p);
    if (rng.chance(0.02)) in_flight.emplace(key + rng.uniform(0.0, 30.0), p);
  };
  std::uint16_t tseq = static_cast<std::uint16_t>(65536 - rng.uniform_int(1, 2000));
  for (int i = 0; i < 40'000; ++i) {
    if (i % 4000 == 0) {
      lag = rng.chance(0.5) ? rng.uniform(0.0, 30.0) : rng.uniform(600.0, 3000.0);
      jitter = rng.uniform(0.0, 40.0);
    }
    if (rng.chance(0.002)) encoder.set_group_size(static_cast<int>(rng.uniform_int(2, 12)));
    net::Packet m;
    m.id = static_cast<std::uint64_t>(i) + 1;
    m.transport_seq = tseq++;
    m.size_bytes = static_cast<std::size_t>(rng.uniform_int(200, 1240));
    auto parity = encoder.on_media_packet(m);
    send(m);
    if (parity) {
      parity->transport_seq = tseq++;
      ref_table.put(parity->fec_group, *table->get(parity->fec_group));
      send(*parity);
      for (const auto& q : release(late_at_encoder, parity->fec_group)) deliver(q);
      if (HasFatalFailure()) return;
    }
    while (!in_flight.empty() && in_flight.begin()->first <= pos) {
      deliver(in_flight.begin()->second);
      in_flight.erase(in_flight.begin());
      if (HasFatalFailure()) return;
    }
  }
  for (const auto& [key, p] : in_flight) deliver(p);
  for (auto* late : {&late_at_decoder, &late_at_encoder}) {
    for (const auto& p : release(*late, std::numeric_limits<std::int32_t>::max())) {
      deliver(p);
    }
  }
  EXPECT_GT(ref.recovered_packets(), 500u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FecDecoderFuzz,
                         ::testing::Values(701, 702, 703, 704, 705, 706));

// --- Jitter buffer: releases are always frame-ordered, any loss pattern ---

class JitterBufferFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JitterBufferFuzz, ReleasesMonotoneInFrameId) {
  sim::Rng rng{GetParam()};
  Simulator sim;
  std::vector<std::uint32_t> released;
  rtp::JitterBuffer jb{sim, rtp::JitterBufferConfig{},
                       [&](const rtp::FrameReleaseEvent& ev) {
                         released.push_back(ev.frame_id);
                       }};
  rtp::Packetizer pk;
  for (std::uint32_t i = 0; i < 120; ++i) {
    video::Frame f;
    f.id = i;
    f.size_bytes = 2000 + static_cast<std::size_t>(rng.uniform_int(0, 4000));
    f.capture_time = TimePoint::from_us(i * 33'333);
    for (const auto& p : pk.packetize(f)) {
      if (rng.chance(0.03)) continue;  // random loss
      const auto arrival =
          f.capture_time +
          Duration::millis(static_cast<std::int64_t>(rng.uniform(30.0, 90.0)));
      sim.schedule_at(arrival, [&jb, p] { jb.on_packet(p); });
    }
  }
  sim.run_all();
  EXPECT_TRUE(std::is_sorted(released.begin(), released.end()));
  EXPECT_GT(released.size(), 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JitterBufferFuzz,
                         ::testing::Values(301, 302, 303, 304, 305, 306));

// --- RadioMap merge algebra under randomized observation streams ---

namespace {

radiomap::GridSpec random_spec(sim::Rng& rng) {
  radiomap::GridSpec spec;
  spec.origin = {rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0),
                 rng.uniform(-20.0, 20.0)};
  spec.voxel_xy_m = rng.uniform(5.0, 120.0);
  spec.voxel_z_m = rng.uniform(5.0, 60.0);
  spec.nx = static_cast<std::uint32_t>(rng.uniform_int(1, 8));
  spec.ny = static_cast<std::uint32_t>(rng.uniform_int(1, 8));
  spec.nz = static_cast<std::uint32_t>(rng.uniform_int(1, 6));
  return spec;
}

// One random observation applied to a map; the same rng stream applied to
// two maps produces identical mutations.
void random_observation(radiomap::RadioMap& map, const radiomap::GridSpec& spec,
                        sim::Rng& rng) {
  // Mostly in-extent points, occasionally outside (must be dropped).
  const geo::Vec3 p{
      spec.origin.x + rng.uniform(-0.2, 1.2) * spec.voxel_xy_m * spec.nx,
      spec.origin.y + rng.uniform(-0.2, 1.2) * spec.voxel_xy_m * spec.ny,
      spec.origin.z + rng.uniform(-0.2, 1.2) * spec.voxel_z_m * spec.nz};
  switch (rng.uniform_int(0, 4)) {
    case 0:
    case 1:
      map.observe_measurement(p, static_cast<std::uint32_t>(rng.uniform_int(1, 6)),
                              rng.uniform(-120.0, -60.0), rng.uniform(0.0, 40.0),
                              rng.chance(0.1));
      break;
    case 2: map.observe_rlf(p); break;
    case 3: map.observe_loss(p); break;
    default: map.observe_stall(p, rng.uniform(0.0, 500.0)); break;
  }
}

radiomap::RadioMap random_map(const radiomap::GridSpec& spec, sim::Rng& rng,
                              int observations) {
  radiomap::RadioMap map{spec};
  for (int i = 0; i < observations; ++i) random_observation(map, spec, rng);
  return map;
}

}  // namespace

class RadioMapMergeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RadioMapMergeFuzz, MergeIsCommutativeAssociativeAndOrderFree) {
  sim::Rng rng{GetParam()};
  const auto spec = random_spec(rng);
  const auto a = random_map(spec, rng, 200);
  const auto b = random_map(spec, rng, 150);
  const auto c = random_map(spec, rng, 100);

  // Commutative: a+b == b+a.
  auto ab = a;
  ab.merge(b);
  auto ba = b;
  ba.merge(a);
  EXPECT_TRUE(ab == ba);
  EXPECT_EQ(ab.canonical_bytes(), ba.canonical_bytes());

  // Associative: (a+b)+c == a+(b+c).
  auto ab_c = ab;
  ab_c.merge(c);
  auto bc = b;
  bc.merge(c);
  auto a_bc = a;
  a_bc.merge(bc);
  EXPECT_TRUE(ab_c == a_bc);
  EXPECT_EQ(ab_c.canonical_bytes(), a_bc.canonical_bytes());

  // Any fold order over shards gives the shard-merge bytes (the fleet
  // j1-vs-j8 invariant in miniature).
  auto cba = c;
  cba.merge(b);
  cba.merge(a);
  EXPECT_EQ(ab_c.canonical_bytes(), cba.canonical_bytes());

  // Merging an empty map is the identity.
  auto with_empty = ab_c;
  with_empty.merge(radiomap::RadioMap{spec});
  EXPECT_TRUE(with_empty == ab_c);

  // Interleaved single-stream accumulation equals split-and-merge: replay
  // the identical observation stream into one map vs. two alternating maps.
  sim::Rng replay_a{GetParam() + 17};
  sim::Rng replay_b{GetParam() + 17};
  radiomap::RadioMap whole{spec};
  radiomap::RadioMap even{spec}, odd{spec};
  for (int i = 0; i < 300; ++i) random_observation(whole, spec, replay_a);
  for (int i = 0; i < 300; ++i) {
    random_observation(i % 2 == 0 ? even : odd, spec, replay_b);
  }
  even.merge(odd);
  EXPECT_TRUE(whole == even);
  EXPECT_EQ(whole.canonical_bytes(), even.canonical_bytes());

  // And the canonical bytes round-trip exactly through the strict loader.
  EXPECT_EQ(radiomap::radio_map_from_bytes(whole.canonical_bytes())
                .canonical_bytes(),
            whole.canonical_bytes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RadioMapMergeFuzz,
                         ::testing::Values(401, 402, 403, 404, 405, 406, 407,
                                           408));

// --- Grid quantization round-trip for randomized extents/resolutions ---

class RadioMapQuantizeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RadioMapQuantizeFuzz, QuantizeIndexCenterNeverLeavesTheVoxel) {
  sim::Rng rng{GetParam()};
  for (int trial = 0; trial < 50; ++trial) {
    const auto spec = random_spec(rng);
    for (int i = 0; i < 200; ++i) {
      const geo::Vec3 p{
          spec.origin.x + rng.uniform(-0.5, 1.5) * spec.voxel_xy_m * spec.nx,
          spec.origin.y + rng.uniform(-0.5, 1.5) * spec.voxel_xy_m * spec.ny,
          spec.origin.z + rng.uniform(-0.5, 1.5) * spec.voxel_z_m * spec.nz};
      const auto idx = spec.index_of(p);
      const bool inside =
          p.x >= spec.origin.x &&
          p.x < spec.origin.x + spec.voxel_xy_m * spec.nx &&
          p.y >= spec.origin.y &&
          p.y < spec.origin.y + spec.voxel_xy_m * spec.ny &&
          p.z >= spec.origin.z && p.z < spec.origin.z + spec.voxel_z_m * spec.nz;
      if (!idx.has_value()) {
        // index_of may reject boundary points the naive float test admits
        // (accumulated division error), but never interior ones.
        if (inside) {
          const double fx = (p.x - spec.origin.x) / spec.voxel_xy_m;
          const double fy = (p.y - spec.origin.y) / spec.voxel_xy_m;
          const double fz = (p.z - spec.origin.z) / spec.voxel_z_m;
          ADD_FAILURE() << "in-extent point rejected: fx=" << fx
                        << " fy=" << fy << " fz=" << fz;
        }
        continue;
      }
      ASSERT_LT(*idx, spec.voxel_count());
      // The center maps back to the same voxel...
      EXPECT_EQ(spec.index_of(spec.center_of(*idx)).value(), *idx);
      // ...and the point lies inside [voxel_min, voxel_max).
      const auto lo = spec.voxel_min(*idx);
      const auto hi = spec.voxel_max(*idx);
      EXPECT_GE(p.x, lo.x);
      EXPECT_LT(p.x, hi.x + 1e-9);
      EXPECT_GE(p.y, lo.y);
      EXPECT_LT(p.y, hi.y + 1e-9);
      EXPECT_GE(p.z, lo.z);
      EXPECT_LT(p.z, hi.z + 1e-9);
      // Axis decomposition is consistent with the linear layout.
      EXPECT_EQ((spec.z_of(*idx) * spec.ny + spec.y_of(*idx)) * spec.nx +
                    spec.x_of(*idx),
                *idx);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RadioMapQuantizeFuzz,
                         ::testing::Values(501, 502, 503, 504, 505, 506));


// --- Fixed-bin distributions against the sample-vector original ---
//
// SampleCdf is metrics::Cdf as it was written over a sorted sample vector
// (linear interpolation between order statistics, upper/lower_bound
// fractions). The fuzz compares the binned Cdf with it on random data sets
// shaped like the report's quantities.

class SampleCdf {
 public:
  void add(double v) { samples_.push_back(v); sorted_ = false; }
  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  double quantile(double q) {
    sort();
    q = std::clamp(q, 0.0, 1.0);
    const double idx = q * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(idx));
    const auto hi = static_cast<std::size_t>(std::ceil(idx));
    if (lo == hi) return samples_[lo];
    const double f = idx - static_cast<double>(lo);
    return samples_[lo] * (1.0 - f) + samples_[hi] * f;
  }
  double order_statistic(std::size_t i) { sort(); return samples_[i]; }
  double mean() const {
    return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
           static_cast<double>(samples_.size());
  }
  double fraction_below(double x) {
    sort();
    const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
    return static_cast<double>(it - samples_.begin()) /
           static_cast<double>(samples_.size());
  }
  double fraction_at_least(double x) {
    sort();
    const auto it = std::lower_bound(samples_.begin(), samples_.end(), x);
    return static_cast<double>(samples_.end() - it) /
           static_cast<double>(samples_.size());
  }
  const std::vector<double>& samples() { sort(); return samples_; }

 private:
  void sort() {
    if (!sorted_) std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  std::vector<double> samples_;
  bool sorted_ = true;
};

// Width of the part of v's bin that [lo, hi] covers: how far a quantile
// estimate in that bin can be from v.
double bin_width_within(double v, double lo, double hi) {
  const auto [a, b] = metrics::Cdf::bounds(metrics::Cdf::bin_of(v));
  return std::min(b, hi) - std::max(a, lo);
}

// Every CDF point a bench or example prints is an edge, so its CDF value is
// exact.
const std::vector<double> kPrintedPoints = {
    0.1, 0.25, 0.5, 0.7, 0.8, 0.9, 0.95, 1, 5, 9.99, 10, 15, 20, 25, 29, 30,
    33, 40, 50, 75, 100, 150, 200, 250, 300, 400, 500, 600, 800, 1000, 2000};

TEST(CdfBins, EveryEdgeIsItsOwnBinAndIntervalsAreAtMostHalfAPercentWide) {
  const std::int32_t top = metrics::Cdf::max_bin();
  for (std::int32_t b = 2; b < top; b += 2) {
    const auto [lo, hi] = metrics::Cdf::bounds(b);
    ASSERT_EQ(lo, hi) << "bin " << b;
    ASSERT_EQ(metrics::Cdf::bin_of(lo), b);
    ASSERT_EQ(metrics::Cdf::bin_of(-lo), -b);
    const auto [ilo, ihi] = metrics::Cdf::bounds(b + 1);
    ASSERT_EQ(ilo, lo);
    if (b + 1 == top) {
      ASSERT_TRUE(std::isinf(ihi));
      continue;
    }
    ASSERT_GT(ihi, ilo);
    ASSERT_LE((ihi - ilo) / ilo, 0.005 * (1 + 1e-12)) << "bin " << b + 1;
    ASSERT_EQ(metrics::Cdf::bin_of(std::nextafter(lo, ihi)), b + 1);
    ASSERT_EQ(metrics::Cdf::bin_of(std::nextafter(ihi, lo)), b + 1);
  }
  EXPECT_EQ(metrics::Cdf::bin_of(0.0), 0);
  EXPECT_EQ(metrics::Cdf::bin_of(-0.0), 0);
  EXPECT_EQ(metrics::Cdf::bin_of(1e-300), 1);
  for (const double x : kPrintedPoints) {
    const auto [lo, hi] = metrics::Cdf::bounds(metrics::Cdf::bin_of(x));
    EXPECT_EQ(lo, x);
    EXPECT_EQ(hi, x);
  }
}

class CdfFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CdfFuzz, MatchesSampleReference) {
  sim::Rng rng{GetParam()};
  for (int shape = 0; shape < 4; ++shape) {
    SCOPED_TRACE("shape " + std::to_string(shape));
    const auto n = static_cast<int>(rng.uniform_int(1, 20'000));
    std::vector<double> xs;
    for (int i = 0; i < n; ++i) {
      double v = 0.0;
      switch (shape) {
        case 0:  // one-way latency in ms at microsecond resolution
          v = std::round(std::exp(rng.uniform(2.5, 8.5)) * 1e3) / 1e3;
          break;
        case 1:  // SSIM, with every unplayed frame scored 0
          v = rng.chance(0.3) ? 0.0 : rng.uniform(0.2, 1.0);
          break;
        case 2:  // frames per one-second window
          v = static_cast<double>(rng.uniform_int(0, 35));
          break;
        default:  // anything finite, either sign, past the outermost edges
          v = (rng.chance(0.5) ? -1.0 : 1.0) * std::pow(10.0, rng.uniform(-12.0, 12.0));
          if (rng.chance(0.05)) v = 0.0;
          break;
      }
      xs.push_back(v);
    }
    metrics::Cdf c;
    SampleCdf ref;
    for (const double v : xs) {
      c.add(v);
      ref.add(v);
    }
    ASSERT_EQ(c.count(), ref.count());
    const auto& sorted = ref.samples();
    EXPECT_EQ(c.min(), sorted.front());
    EXPECT_EQ(c.max(), sorted.back());
    double magnitude = 0.0;
    for (const double v : xs) magnitude += std::abs(v);
    magnitude /= static_cast<double>(n);
    EXPECT_LE(std::abs(c.mean() - ref.mean()), 1e-12 * magnitude);

    // Quantiles: within one bin of the interpolated order statistics.
    for (int k = 0; k <= 40; ++k) {
      const double q = k / 40.0;
      const double idx = q * static_cast<double>(n - 1);
      const double lo = ref.order_statistic(static_cast<std::size_t>(std::floor(idx)));
      const double hi = ref.order_statistic(static_cast<std::size_t>(std::ceil(idx)));
      const double width = std::max(bin_width_within(lo, c.min(), c.max()),
                                    bin_width_within(hi, c.min(), c.max()));
      const double exact = ref.quantile(q);
      EXPECT_LE(std::abs(c.quantile(q) - exact), width + 1e-12 * std::abs(exact))
          << "q " << q;
    }
    EXPECT_EQ(c.quantile(0.0), sorted.front());
    EXPECT_EQ(c.quantile(1.0), sorted.back());

    // Fractions: exact at every edge, the printed points and each sample's
    // own bin edge among them.
    std::vector<double> points = kPrintedPoints;
    points.push_back(0.0);
    for (int k = 0; k < 200; ++k) {
      const double v = xs[static_cast<std::size_t>(rng.uniform_int(0, n - 1))];
      const auto [lo, hi] = metrics::Cdf::bounds(metrics::Cdf::bin_of(v));
      if (std::isfinite(lo)) points.push_back(lo);
      if (std::isfinite(hi)) points.push_back(hi);
    }
    for (const double x : points) {
      ASSERT_EQ(c.fraction_below(x), ref.fraction_below(x)) << "x " << x;
      ASSERT_EQ(c.fraction_at_least(x), ref.fraction_at_least(x)) << "x " << x;
      ASSERT_EQ(c.fraction_below(-x), ref.fraction_below(-x)) << "x " << -x;
      ASSERT_EQ(c.fraction_at_least(-x), ref.fraction_at_least(-x)) << "x " << -x;
    }

    // Merge: associative, commutative, and the same as adding the union.
    std::vector<metrics::Cdf> part(3);
    for (const double v : xs) part[static_cast<std::size_t>(rng.uniform_int(0, 2))].add(v);
    auto merged = [&](std::size_t a, std::size_t b, std::size_t d, bool left) {
      metrics::Cdf out = part[a];
      if (left) {
        out.merge(part[b]);
        out.merge(part[d]);
      } else {
        metrics::Cdf tail = part[b];
        tail.merge(part[d]);
        out.merge(tail);
      }
      return out;
    };
    const auto bins = c.occupied();
    for (const auto& m : {merged(0, 1, 2, true), merged(0, 1, 2, false),
                          merged(2, 0, 1, true), merged(1, 2, 0, false)}) {
      const auto m_bins = m.occupied();
      EXPECT_TRUE(std::equal(m_bins.begin(), m_bins.end(), bins.begin(), bins.end(),
                             [](const auto& a, const auto& b) {
                               return a.bin == b.bin && a.n == b.n;
                             }));
      EXPECT_EQ(m.count(), c.count());
      EXPECT_EQ(m.min(), c.min());
      EXPECT_EQ(m.max(), c.max());
      EXPECT_LE(std::abs(m.sum() - c.sum()), 1e-12 * magnitude * n);
    }
    // Zeros land in their own bin, counted exactly.
    const auto zeros = static_cast<std::uint64_t>(std::count(xs.begin(), xs.end(), 0.0));
    std::uint64_t in_zero_bin = 0;
    for (const auto& b : c.occupied()) {
      if (b.bin == 0) in_zero_bin = b.n;
    }
    EXPECT_EQ(in_zero_bin, zeros);
    // The sparse form rebuilds the same distribution.
    EXPECT_EQ(metrics::Cdf::from_parts(c.occupied(), c.sum(), c.min(), c.max()), c);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdfFuzz, ::testing::Values(701, 702, 703, 704));

TEST(CdfBins, RejectsNanAndInfinityAndKeepsItsState) {
  metrics::Cdf c;
  c.add(3.0);
  const auto before = c;
  EXPECT_THROW(c.add(std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
  EXPECT_THROW(c.add(std::numeric_limits<double>::infinity()), std::invalid_argument);
  EXPECT_THROW(c.add(-std::numeric_limits<double>::infinity()), std::invalid_argument);
  EXPECT_EQ(c, before);
}

// --- In-session windows against the trace they replaced ---
//
// A session keeps no per-packet trace. These flights rebuild one from the
// media kPacketReceived events of run_scenario(s, sink) (one-way latency)
// and read the player's in-memory playback-latency series, then check that
// the report's per-second rows and per-handover extremes equal what
// TimeSeries::mean_in/max_in/min_in give on those series, and that the two
// distributions hold exactly their samples.

class OwdCollector final : public obs::EventSink {
 public:
  void on_event(const obs::Event& e) override {
    const auto& p = std::get<obs::PacketPayload>(e.payload);
    if (p.kind == static_cast<std::uint8_t>(net::PacketKind::kFecParity)) return;
    owd.add(e.t, p.owd_ms);
  }
  [[nodiscard]] std::uint64_t interest_mask() const override {
    return obs::kind_bit(obs::EventKind::kPacketReceived);
  }
  metrics::TimeSeries owd;
};

// run_scenario's session, kept alive so its player can be read.
struct HeldFlight {
  std::unique_ptr<geo::Trajectory> trajectory;
  std::unique_ptr<pipeline::Session> session;
  pipeline::SessionReport report;
};

HeldFlight fly(const experiment::Scenario& s) {
  auto rng = experiment::scenario_rng(s.seed);
  std::vector<cellular::CellLayout> layouts;
  layouts.push_back(experiment::make_layout(s, rng));
  std::string label = experiment::environment_name(s.env);
  if (s.multipath != experiment::Multipath::kNone) {
    experiment::Scenario other = s;
    other.env = experiment::Environment::kRuralP2;  // rural P1's competitor
    layouts.push_back(experiment::make_layout(other, rng));
    label += "+" + experiment::environment_name(other.env);
  }
  label += "/" + experiment::mobility_name(s.mobility);
  HeldFlight f;
  f.trajectory = std::make_unique<geo::Trajectory>(experiment::make_trajectory(s, rng));
  f.session = std::make_unique<pipeline::Session>(
      experiment::make_session_config(s), std::move(layouts), f.trajectory.get(),
      label, experiment::bond_policy_of(s.multipath));
  f.report = f.session->run();
  return f;
}

void expect_window(const metrics::WindowExtrema& w, const metrics::TimeSeries& ts,
                   TimePoint from, TimePoint to) {
  EXPECT_EQ(w.n, ts.values_in(from, to).size());
  if (w.n == 0) return;
  EXPECT_EQ(w.max, *ts.max_in(from, to));
  EXPECT_EQ(w.min, *ts.min_in(from, to));
}

void expect_rows(const metrics::PerSecond& rows, const metrics::TimeSeries& ts,
                 Duration horizon) {
  const auto seconds = static_cast<std::size_t>(horizon.sec()) + 1;
  ASSERT_LE(rows.rows().size(), seconds + 1);
  for (std::size_t k = 0; k <= seconds; ++k) {
    const auto from = TimePoint::origin() + Duration::seconds(static_cast<double>(k));
    const auto to = from + Duration::seconds(1.0);
    const auto want = ts.mean_in(from, to);
    const auto got = rows.mean(k);
    ASSERT_EQ(got.has_value(), want.has_value()) << "second " << k;
    if (want) {
      EXPECT_EQ(*got, *want) << "second " << k;  // bit for bit
    }
  }
}

class SessionWindows : public ::testing::TestWithParam<int> {};

TEST_P(SessionWindows, MatchTheRebuiltTraces) {
  experiment::Scenario s;
  switch (GetParam()) {
    case 0:  // single-path GCC
      s.env = experiment::Environment::kUrban;
      s.cc = pipeline::CcKind::kGcc;
      s.seed = 7201;
      break;
    case 1:  // single-path SCReAM
      s.env = experiment::Environment::kRuralP1;
      s.cc = pipeline::CcKind::kScream;
      s.seed = 7202;
      break;
    default:  // bonded, RLF storm on both operators
      s.env = experiment::Environment::kRuralP1;
      s.cc = pipeline::CcKind::kStatic;
      s.multipath = experiment::Multipath::kBondHighReliability;
      s.fault_preset = experiment::FaultPreset::kRlfStorm;
      s.faults_on_both_operators = true;
      s.seed = 7203;
      break;
  }
  OwdCollector sink;
  const auto r = experiment::run_scenario(s, &sink);
  const auto held = fly(s);
  // The held session flew the same flight.
  ASSERT_EQ(pipeline::report_to_json(held.report).dump(),
            pipeline::report_to_json(r).dump());
  const auto& owd = sink.owd;
  const auto& play = held.session->receiver()->player().playback_latency_ms();
  ASSERT_GT(owd.count(), 1000u);
  ASSERT_GT(play.count(), 1000u);
  ASSERT_GT(r.handovers.count(), 0u);

  metrics::Cdf owd_cdf;
  owd_cdf.add_all(owd.values());
  EXPECT_EQ(r.owd_ms, owd_cdf);
  metrics::Cdf play_cdf;
  play_cdf.add_all(play.values());
  EXPECT_EQ(r.playback_latency_ms, play_cdf);

  const auto horizon = r.duration + Duration::seconds(2.0);
  expect_rows(r.owd_per_second_ms, owd, horizon);
  expect_rows(r.playback_latency_per_second_ms, play, horizon);

  const auto& events = r.handovers.events();
  ASSERT_EQ(r.handover_owd_ms.size(), events.size());
  const auto second = Duration::seconds(1.0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    SCOPED_TRACE("handover " + std::to_string(i));
    const auto& e = events[i];
    const auto& w = r.handover_owd_ms[i];
    expect_window(w.lead, owd, e.start - Duration::seconds(3.0), e.start - second);
    expect_window(w.before, owd, e.start - second, e.start);
    expect_window(w.after, owd, e.start + e.het, e.start + e.het + second);
  }
}

INSTANTIATE_TEST_SUITE_P(Flights, SessionWindows, ::testing::Values(0, 1, 2));

// The trace-window latency ratios (HandoverLog::latency_ratios over an OWD
// TimeSeries, as written before reports kept windows) equal the ratios of
// the streamed windows on random streams with random handovers.
std::vector<metrics::LatencyRatio> trace_latency_ratios(
    const metrics::HandoverLog& log, const metrics::TimeSeries& owd) {
  const auto window = Duration::seconds(1.0);
  std::vector<metrics::LatencyRatio> out;
  for (const auto& e : log.events()) {
    const auto end = e.start + e.het;
    const auto max_b = owd.max_in(e.start - window, e.start);
    const auto min_b = owd.min_in(e.start - window, e.start);
    const auto max_a = owd.max_in(end, end + window);
    const auto min_a = owd.min_in(end, end + window);
    if (!max_b || !min_b || !max_a || !min_a) continue;
    if (*min_b <= 0.0 || *min_a <= 0.0) continue;
    out.push_back({*max_b / *min_b, *max_a / *min_a});
  }
  return out;
}

class HandoverWindowFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HandoverWindowFuzz, StreamedWindowsMatchTraceWindows) {
  sim::Rng rng{GetParam()};
  metrics::HandoverLog log;
  metrics::HandoverWindowTracker tracker{log};
  metrics::TimeSeries owd;
  std::int64_t t_us = 0;
  std::int64_t next_ho_us = rng.uniform_int(0, 5'000'000);
  for (int i = 0; i < 60'000; ++i) {
    // Bursts, same-instant samples, and silent gaps longer than 3 s.
    t_us += rng.chance(0.2) ? 0
            : rng.chance(0.0003) ? rng.uniform_int(1'000'000, 4'000'000)
                                : rng.uniform_int(1, 2'000);
    while (next_ho_us <= t_us) {
      // Logged at its start, as the handover controller does; some on the
      // same microsecond as a sample, some while no sample arrives.
      log.record({TimePoint::from_us(next_ho_us),
                  Duration::micros(rng.uniform_int(0, 1'500'000)), 1u, 2u, false});
      next_ho_us += rng.chance(0.1) ? 0 : rng.uniform_int(1, 6'000'000);
    }
    const double v = rng.chance(0.0002) ? 0.0 : rng.uniform(10.0, 900.0);
    tracker.add(TimePoint::from_us(t_us), v);
    owd.add(TimePoint::from_us(t_us), v);
  }
  log.record({TimePoint::from_us(t_us), Duration::millis(40), 1u, 2u, false});
  const auto windows = tracker.finish();
  ASSERT_EQ(windows.size(), log.count());
  const auto second = Duration::seconds(1.0);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const auto& e = log.events()[i];
    expect_window(windows[i].lead, owd, e.start - Duration::seconds(3.0), e.start - second);
    expect_window(windows[i].before, owd, e.start - second, e.start);
    expect_window(windows[i].after, owd, e.start + e.het, e.start + e.het + second);
  }
  const auto streamed = metrics::latency_ratios(windows);
  const auto traced = trace_latency_ratios(log, owd);
  ASSERT_EQ(streamed.size(), traced.size());
  EXPECT_GT(streamed.size(), 10u);
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].before, traced[i].before);
    EXPECT_EQ(streamed[i].after, traced[i].after);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HandoverWindowFuzz, ::testing::Values(801, 802, 803));

}  // namespace
}  // namespace rpv
