#include "rtp/feedback.hpp"

#include <stdexcept>

#include <gtest/gtest.h>

namespace rpv::rtp {
namespace {

using sim::TimePoint;

TimePoint at_ms(double ms) {
  return TimePoint::from_us(static_cast<std::int64_t>(ms * 1000));
}

// --- TwccCollector ---

TEST(Twcc, EmptyReportWhenNoData) {
  TwccCollector c;
  EXPECT_FALSE(c.has_data());
  const auto r = c.build_report(at_ms(100));
  EXPECT_TRUE(r.results.empty());
}

TEST(Twcc, ReportsAllReceivedPackets) {
  TwccCollector c;
  for (std::uint16_t s = 0; s < 10; ++s) c.on_packet(s, at_ms(s));
  const auto r = c.build_report(at_ms(100));
  ASSERT_EQ(r.results.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(r.results[i].received);
    EXPECT_EQ(r.results[i].transport_seq, i);
  }
}

TEST(Twcc, GapsReportedAsLost) {
  TwccCollector c;
  c.on_packet(0, at_ms(0));
  c.on_packet(3, at_ms(3));
  const auto r = c.build_report(at_ms(100));
  ASSERT_EQ(r.results.size(), 4u);
  EXPECT_TRUE(r.results[0].received);
  EXPECT_FALSE(r.results[1].received);
  EXPECT_FALSE(r.results[2].received);
  EXPECT_TRUE(r.results[3].received);
}

TEST(Twcc, ConsecutiveReportsCoverContiguously) {
  TwccCollector c;
  c.on_packet(0, at_ms(0));
  c.on_packet(1, at_ms(1));
  auto r1 = c.build_report(at_ms(10));
  c.on_packet(4, at_ms(4));
  auto r2 = c.build_report(at_ms(20));
  // The second report must start right after the first's coverage and
  // include packets 2 and 3 as lost.
  ASSERT_EQ(r2.results.size(), 3u);
  EXPECT_EQ(r2.results[0].transport_seq, 2);
  EXPECT_FALSE(r2.results[0].received);
  EXPECT_FALSE(r2.results[1].received);
  EXPECT_TRUE(r2.results[2].received);
}

TEST(Twcc, PendingClearedAfterReport) {
  TwccCollector c;
  c.on_packet(0, at_ms(0));
  (void)c.build_report(at_ms(10));
  EXPECT_FALSE(c.has_data());
}

TEST(Twcc, ArrivalTimestampsPreserved) {
  TwccCollector c;
  c.on_packet(5, at_ms(42.5));
  const auto r = c.build_report(at_ms(100));
  ASSERT_EQ(r.results.size(), 1u);
  EXPECT_EQ(r.results[0].arrival, at_ms(42.5));
}

TEST(Twcc, SurvivesSequenceWrap) {
  TwccCollector c;
  c.on_packet(65534, at_ms(0));
  c.on_packet(65535, at_ms(1));
  (void)c.build_report(at_ms(10));
  c.on_packet(0, at_ms(2));
  c.on_packet(1, at_ms(3));
  const auto r = c.build_report(at_ms(20));
  ASSERT_EQ(r.results.size(), 2u);
  EXPECT_EQ(r.results[0].transport_seq, 0);
  EXPECT_EQ(r.results[1].transport_seq, 1);
}

TEST(Twcc, HugeGapGuardKeepsReportBounded) {
  TwccCollector c;
  c.on_packet(0, at_ms(0));
  (void)c.build_report(at_ms(10));
  // Extremely long silence then a far-away seq (e.g. after several wraps
  // worth of discards) must not produce a multi-million row report.
  c.on_packet(30000, at_ms(1000));
  const auto r = c.build_report(at_ms(1010));
  EXPECT_LE(r.results.size(), 20001u);
}

// --- Rfc8888Collector ---

TEST(Rfc8888, ReportsWindowAroundHighest) {
  Rfc8888Collector c{8};
  for (std::uint16_t s = 0; s < 20; ++s) c.on_packet(s, at_ms(s));
  const auto r = c.build_report(at_ms(100));
  ASSERT_EQ(r.results.size(), 8u);
  EXPECT_EQ(r.results.front().transport_seq, 12);
  EXPECT_EQ(r.results.back().transport_seq, 19);
}

TEST(Rfc8888, WindowCoversEverythingEarlyOn) {
  Rfc8888Collector c{64};
  for (std::uint16_t s = 0; s < 5; ++s) c.on_packet(s, at_ms(s));
  const auto r = c.build_report(at_ms(10));
  EXPECT_EQ(r.results.size(), 5u);
}

TEST(Rfc8888, MissingInWindowReportedLost) {
  Rfc8888Collector c{8};
  c.on_packet(0, at_ms(0));
  c.on_packet(2, at_ms(2));
  const auto r = c.build_report(at_ms(10));
  ASSERT_EQ(r.results.size(), 3u);
  EXPECT_TRUE(r.results[0].received);
  EXPECT_FALSE(r.results[1].received);
  EXPECT_TRUE(r.results[2].received);
}

TEST(Rfc8888, PacketsBeyondWindowFallOut) {
  // The paper's §4.2.1 pathology: packets received but older than the
  // bounded window are never acknowledged.
  Rfc8888Collector c{4};
  for (std::uint16_t s = 0; s < 3; ++s) c.on_packet(s, at_ms(s));
  // A burst advances the highest seq by 10; packets 0-2 leave the window.
  for (std::uint16_t s = 3; s < 13; ++s) c.on_packet(s, at_ms(10));
  const auto r = c.build_report(at_ms(20));
  ASSERT_EQ(r.results.size(), 4u);
  EXPECT_EQ(r.results.front().transport_seq, 9);  // 0-8 unacknowledgeable
}

TEST(Rfc8888, WiderWindowCoversBurst) {
  Rfc8888Collector c{64};
  for (std::uint16_t s = 0; s < 40; ++s) c.on_packet(s, at_ms(1));
  const auto r = c.build_report(at_ms(10));
  EXPECT_EQ(r.results.size(), 40u);  // all acknowledged with the wide window
}

TEST(Rfc8888, RepeatedReportsAreIdempotent) {
  Rfc8888Collector c{16};
  for (std::uint16_t s = 0; s < 10; ++s) c.on_packet(s, at_ms(s));
  const auto r1 = c.build_report(at_ms(10));
  const auto r2 = c.build_report(at_ms(20));
  EXPECT_EQ(r1.results.size(), r2.results.size());
  EXPECT_EQ(r1.results.front().transport_seq, r2.results.front().transport_seq);
}

TEST(Rfc8888, HasDataAfterFirstPacket) {
  Rfc8888Collector c{16};
  EXPECT_FALSE(c.has_data());
  c.on_packet(0, at_ms(0));
  EXPECT_TRUE(c.has_data());
}

TEST(Rfc8888, AckWindowAccessor) {
  Rfc8888Collector c{256};
  EXPECT_EQ(c.ack_window(), 256);
}

TEST(Rfc8888, SurvivesWrap) {
  Rfc8888Collector c{8};
  // Walk the full sequence space past the wrap.
  std::uint16_t s = 65500;
  for (int i = 0; i < 60; ++i) c.on_packet(s++, at_ms(i));
  const auto r = c.build_report(at_ms(100));
  ASSERT_EQ(r.results.size(), 8u);
  for (const auto& pr : r.results) EXPECT_TRUE(pr.received);
}

TEST(Rfc8888, RejectsWindowBelowOne) {
  EXPECT_THROW(Rfc8888Collector{0}, std::invalid_argument);
  EXPECT_THROW(Rfc8888Collector{-1}, std::invalid_argument);
}

TEST(Rfc8888, RingAllocatedOnFirstPacketOnly) {
  // A receiver that never sees an RFC 8888 packet (every TWCC session)
  // holds no ring; after the first packet the ring never regrows.
  Rfc8888Collector c{64};
  EXPECT_EQ(c.ring_slots(), 0u);
  c.on_packet(65000, at_ms(0));
  const auto slots = c.ring_slots();
  EXPECT_GE(slots, 4u * 64u + 1u);
  std::uint16_t s = 65000;
  for (int i = 1; i < 5000; ++i) {
    s = static_cast<std::uint16_t>(s + (i % 50 == 0 ? 300 : 1));  // gaps, wrap
    c.on_packet(s, at_ms(i));
  }
  EXPECT_EQ(c.ring_slots(), slots);
}

TEST(Rfc8888, LatePacketBehindRetainedStateIsDropped) {
  Rfc8888Collector c{4};  // retains seqs from highest - 16 up
  c.on_packet(100, at_ms(0));
  c.on_packet(130, at_ms(1));  // trims 100
  c.on_packet(110, at_ms(2));  // late: below 130 - 16, never retained
  EXPECT_EQ(c.build_report(at_ms(10)).results.size(), 1u);
  // A retained older arrival opens the full window below the highest seq.
  c.on_packet(120, at_ms(3));
  const auto r = c.build_report(at_ms(20));
  ASSERT_EQ(r.results.size(), 4u);
  EXPECT_EQ(r.results.front().transport_seq, 127);
  EXPECT_FALSE(r.results.front().received);
  EXPECT_TRUE(r.results.back().received);
}

TEST(Rfc8888, FirstArrivalWinsForDuplicates) {
  Rfc8888Collector c{8};
  c.on_packet(0, at_ms(1));
  c.on_packet(1, at_ms(2));
  c.on_packet(1, at_ms(9));
  const auto r = c.build_report(at_ms(10));
  ASSERT_EQ(r.results.size(), 2u);
  EXPECT_EQ(r.results[1].arrival, at_ms(2));
}

}  // namespace
}  // namespace rpv::rtp
