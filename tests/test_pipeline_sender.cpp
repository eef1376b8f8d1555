#include "pipeline/video_sender.hpp"

#include <gtest/gtest.h>

#include "cc/static_rate.hpp"

namespace rpv::pipeline {
namespace {

using sim::Duration;
using sim::Simulator;
using sim::TimePoint;

struct Fixture {
  Simulator sim;
  FrameTable table;
  std::vector<net::Packet> transmitted;
  std::unique_ptr<VideoSender> sender;

  explicit Fixture(double bitrate = 8e6, SenderConfig cfg = {}) {
    sender = std::make_unique<VideoSender>(
        sim, cfg, std::make_unique<cc::StaticRate>(bitrate), table,
        [this](net::Packet p) { transmitted.push_back(std::move(p)); },
        sim::Rng{1});
  }
};

TEST(VideoSender, EncodesAtThirtyFps) {
  Fixture f;
  f.sender->start(TimePoint::origin(), TimePoint::origin() + Duration::seconds(10.0));
  f.sim.run_all();
  EXPECT_NEAR(static_cast<double>(f.sender->frames_encoded()), 300.0, 2.0);
}

TEST(VideoSender, FrameTablePopulated) {
  Fixture f;
  f.sender->start(TimePoint::origin(), TimePoint::origin() + Duration::seconds(2.0));
  f.sim.run_all();
  EXPECT_EQ(f.table.size(), f.sender->frames_encoded());
  EXPECT_TRUE(f.table.get(0).has_value());
}

TEST(VideoSender, TransmitsApproximatelyTargetRate) {
  Fixture f{8e6};
  f.sender->start(TimePoint::origin(), TimePoint::origin() + Duration::seconds(20.0));
  f.sim.run_all();
  const double realized =
      static_cast<double>(f.sender->bytes_sent()) * 8.0 / 20.0;
  // Media + RTP/UDP/IP overhead sits a few percent above the video rate.
  EXPECT_NEAR(realized, 8e6, 1.5e6);
}

TEST(VideoSender, PacingSpacesPackets) {
  Fixture f{8e6};
  f.sender->start(TimePoint::origin(), TimePoint::origin() + Duration::seconds(5.0));
  f.sim.run_all();
  ASSERT_GT(f.transmitted.size(), 100u);
  // No instantaneous bursts: consecutive sends are spaced by at least the
  // serialization time at the pacing rate (1200 B at 10 Mbps = ~0.96 ms),
  // allowing for the pacer's scheduling quantum.
  int zero_gaps = 0;
  for (std::size_t i = 1; i < f.transmitted.size(); ++i) {
    if (f.transmitted[i].enqueued == f.transmitted[i - 1].enqueued) ++zero_gaps;
  }
  EXPECT_EQ(zero_gaps, 0);
}

TEST(VideoSender, PacketsCarryMonotoneTransportSeq) {
  Fixture f;
  f.sender->start(TimePoint::origin(), TimePoint::origin() + Duration::seconds(3.0));
  f.sim.run_all();
  for (std::size_t i = 1; i < f.transmitted.size(); ++i) {
    EXPECT_EQ(f.transmitted[i].transport_seq,
              static_cast<std::uint16_t>(f.transmitted[i - 1].transport_seq + 1));
  }
}

TEST(VideoSender, QueueDiscardWhenConfigured) {
  SenderConfig cfg;
  cfg.discard_queue = sim::Duration::millis(100);
  // A choked transmit path: accept only one packet per 10 ms by dropping the
  // rest inside a slow pacer. Easiest: use a window-limited controller that
  // never opens. Instead, emulate by a huge encoder target vs tiny pacing:
  // StaticRate pacing is 1.25x target, so choke with a tiny bitrate and a
  // huge forced encoder floor.
  cfg.encoder.min_bitrate_bps = 20e6;  // encoder pumps 20 Mbps no matter what
  Fixture f{2e6, cfg};                 // pacer drains at 2.5 Mbps
  f.sender->start(TimePoint::origin(), TimePoint::origin() + Duration::seconds(10.0));
  f.sim.run_all();
  EXPECT_GT(f.sender->queue_discard_events(), 0u);
  EXPECT_GT(f.sender->packets_discarded(), 0u);
}

TEST(VideoSender, NoDiscardWhenDisabled) {
  SenderConfig cfg;
  cfg.discard_queue = sim::Duration::millis(-1);
  cfg.encoder.min_bitrate_bps = 20e6;
  Fixture f{2e6, cfg};
  f.sender->start(TimePoint::origin(), TimePoint::origin() + Duration::seconds(5.0));
  f.sim.run_all();
  EXPECT_EQ(f.sender->queue_discard_events(), 0u);
}

TEST(VideoSender, TargetTraceRecorded) {
  Fixture f{8e6};
  f.sender->start(TimePoint::origin(), TimePoint::origin() + Duration::seconds(2.0));
  f.sim.run_all();
  // A constant target sets exactly one high: the first frame's, at start.
  EXPECT_GT(f.sender->frames_encoded(), 1u);
  const auto& highs = f.sender->target_bitrate_highs().samples();
  ASSERT_EQ(highs.size(), 1u);
  EXPECT_EQ(highs.front().t, TimePoint::origin());
  EXPECT_DOUBLE_EQ(highs.front().value, 8e6);
  EXPECT_EQ(f.sender->target_bitrate_highs().first_at_least(8e6),
            TimePoint::origin());
}

TEST(VideoSender, StartOffsetRespected) {
  Fixture f;
  f.sender->start(TimePoint::from_us(5'000'000),
                  TimePoint::from_us(6'000'000));
  f.sim.run_all();
  ASSERT_FALSE(f.transmitted.empty());
  EXPECT_GE(f.transmitted.front().enqueued, TimePoint::from_us(5'000'000));
}

}  // namespace
}  // namespace rpv::pipeline
