#include "pipeline/video_receiver.hpp"

#include <gtest/gtest.h>

#include "rtp/packetizer.hpp"

namespace rpv::pipeline {
namespace {

using sim::Duration;
using sim::Simulator;
using sim::TimePoint;

struct Fixture {
  Simulator sim;
  FrameTable table;
  std::vector<rtp::FeedbackReport> feedback;
  std::vector<std::size_t> feedback_sizes;
  std::unique_ptr<VideoReceiver> receiver;
  rtp::Packetizer packetizer;

  explicit Fixture(ReceiverConfig cfg = {}) {
    receiver = std::make_unique<VideoReceiver>(
        sim, cfg, table,
        [this](const rtp::FeedbackReport& r, std::size_t size) {
          feedback.push_back(r);
          feedback_sizes.push_back(size);
        },
        sim::Rng{1});
  }

  void deliver_frame(std::uint32_t id, std::size_t bytes, TimePoint capture,
                     TimePoint arrival) {
    video::Frame f;
    f.id = id;
    f.size_bytes = bytes;
    f.capture_time = capture;
    f.encoded_bitrate_bps = 8e6;
    table.put(f);
    for (auto& p : packetizer.packetize(f)) {
      p.enqueued = capture;
      p.received = arrival;
      sim.schedule_at(arrival, [this, p] { receiver->on_packet(p); });
    }
  }
};

TEST(VideoReceiver, FramesReachThePlayer) {
  Fixture f;
  f.receiver->start(TimePoint::origin(), TimePoint::origin() + Duration::seconds(5.0));
  for (std::uint32_t i = 0; i < 60; ++i) {
    f.deliver_frame(i, 3000, TimePoint::from_us(i * 33'333),
                    TimePoint::from_us(i * 33'333 + 40'000));
  }
  f.sim.run_all();
  f.receiver->finish();
  EXPECT_EQ(f.receiver->player().frames_played(), 60u);
}

TEST(VideoReceiver, OwdRecordedPerPacket) {
  Fixture f;
  f.receiver->start(TimePoint::origin(), TimePoint::origin() + Duration::seconds(2.0));
  f.deliver_frame(0, 2400, TimePoint::origin(), TimePoint::from_us(45'000));
  f.sim.run_all();
  ASSERT_GE(f.receiver->owd_ms().count(), 2u);
  EXPECT_NEAR(f.receiver->owd_ms().min(), 45.0, 0.1);
}

TEST(VideoReceiver, TwccFeedbackGenerated) {
  ReceiverConfig cfg;
  cfg.feedback = FeedbackKind::kTwcc;
  Fixture f{cfg};
  f.receiver->start(TimePoint::origin(), TimePoint::origin() + Duration::seconds(2.0));
  for (std::uint32_t i = 0; i < 30; ++i) {
    f.deliver_frame(i, 2400, TimePoint::from_us(i * 33'333),
                    TimePoint::from_us(i * 33'333 + 40'000));
  }
  f.sim.run_all();
  EXPECT_GT(f.feedback.size(), 10u);
  std::size_t acked = 0;
  for (const auto& r : f.feedback) acked += r.results.size();
  EXPECT_EQ(acked, 60u);  // 2 packets per frame, every packet acked once
}

TEST(VideoReceiver, Rfc8888FeedbackFasterClock) {
  ReceiverConfig cfg;
  cfg.feedback = FeedbackKind::kRfc8888;
  Fixture f{cfg};
  f.receiver->start(TimePoint::origin(), TimePoint::origin() + Duration::seconds(1.0));
  f.deliver_frame(0, 2400, TimePoint::origin(), TimePoint::from_us(40'000));
  f.sim.run_all();
  // 10 ms cadence from the first packet: ~96 reports in the second.
  EXPECT_GT(f.feedback.size(), 50u);
}

TEST(VideoReceiver, NoFeedbackWhenDisabled) {
  ReceiverConfig cfg;
  cfg.feedback = FeedbackKind::kNone;
  Fixture f{cfg};
  f.receiver->start(TimePoint::origin(), TimePoint::origin() + Duration::seconds(1.0));
  f.deliver_frame(0, 2400, TimePoint::origin(), TimePoint::from_us(40'000));
  f.sim.run_all();
  EXPECT_TRUE(f.feedback.empty());
}

TEST(VideoReceiver, FeedbackSizeScalesWithResults) {
  ReceiverConfig cfg;
  cfg.feedback = FeedbackKind::kTwcc;
  Fixture f{cfg};
  f.receiver->start(TimePoint::origin(), TimePoint::origin() + Duration::seconds(1.0));
  f.deliver_frame(0, 12000, TimePoint::origin(), TimePoint::from_us(40'000));
  f.sim.run_all();
  ASSERT_FALSE(f.feedback.empty());
  EXPECT_EQ(f.feedback_sizes[0], cfg.feedback_base_bytes +
                                     cfg.feedback_per_result_bytes *
                                         f.feedback[0].results.size());
}

TEST(VideoReceiver, GoodputWindowsTrackDeliveredBytes) {
  Fixture f;
  f.receiver->start(TimePoint::origin(), TimePoint::origin() + Duration::seconds(5.0));
  // ~1 Mbps of delivered media for 5 s.
  for (int i = 0; i < 150; ++i) {
    f.deliver_frame(static_cast<std::uint32_t>(i), 4167,
                    TimePoint::from_us(i * 33'333),
                    TimePoint::from_us(i * 33'333 + 40'000));
  }
  f.sim.run_all();
  const auto values = f.receiver->goodput_mbps().values();
  ASSERT_GE(values.size(), 4u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_NEAR(values[i], 1.0, 0.3);
  }
}

TEST(VideoReceiver, CorruptedFramesCounted) {
  Fixture f;
  f.receiver->start(TimePoint::origin(), TimePoint::origin() + Duration::seconds(3.0));
  // Frame 0 loses a packet (drop one manually).
  video::Frame fr;
  fr.id = 0;
  fr.size_bytes = 3600;
  fr.capture_time = TimePoint::origin();
  f.table.put(fr);
  auto packets = f.packetizer.packetize(fr);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (i == 1) continue;
    auto p = packets[i];
    p.enqueued = fr.capture_time;
    f.sim.schedule_at(TimePoint::from_us(40'000), [&f, p] { f.receiver->on_packet(p); });
  }
  // Frame 1 complete provides evidence.
  f.deliver_frame(1, 2400, TimePoint::from_us(33'333), TimePoint::from_us(73'333));
  f.sim.run_all();
  EXPECT_EQ(f.receiver->corrupted_frames(), 1u);
}

TEST(VideoReceiver, PacketCounters) {
  Fixture f;
  f.receiver->start(TimePoint::origin(), TimePoint::origin() + Duration::seconds(1.0));
  f.deliver_frame(0, 2400, TimePoint::origin(), TimePoint::from_us(40'000));
  f.sim.run_all();
  EXPECT_EQ(f.receiver->packets_received(), 2u);
  EXPECT_GT(f.receiver->media_bytes(), 2300u);
}

}  // namespace
}  // namespace rpv::pipeline
