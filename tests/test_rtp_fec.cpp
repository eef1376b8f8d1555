#include "rtp/fec.hpp"

#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace rpv::rtp {
namespace {

using sim::TimePoint;

net::Packet media(std::uint16_t tseq, std::size_t bytes = 1240) {
  net::Packet p;
  p.id = tseq + 1;
  p.transport_seq = tseq;
  p.size_bytes = bytes;
  return p;
}

struct Fec {
  std::shared_ptr<FecGroupTable> table = std::make_shared<FecGroupTable>();
  FecEncoder enc;
  FecDecoder dec;
  explicit Fec(FecConfig cfg = {.group_size = 4, .interleave_depth = 1})
      : enc{cfg, table}, dec{table} {}
};

TEST(Fec, ParityEmittedPerGroup) {
  Fec f;
  int parities = 0;
  for (std::uint16_t i = 0; i < 12; ++i) {
    auto m = media(i);
    if (f.enc.on_media_packet(m)) ++parities;
  }
  EXPECT_EQ(parities, 3);
  EXPECT_EQ(f.enc.parity_packets(), 3u);
}

TEST(Fec, MediaTaggedWithGroup) {
  Fec f;
  auto m = media(0);
  f.enc.on_media_packet(m);
  EXPECT_EQ(m.fec_group, 0);
}

TEST(Fec, ParitySizeCoversLargestMember) {
  Fec f;
  std::optional<net::Packet> parity;
  for (std::uint16_t i = 0; i < 4; ++i) {
    auto m = media(i, i == 2 ? 5000 : 1000);
    parity = f.enc.on_media_packet(m);
  }
  ASSERT_TRUE(parity.has_value());
  EXPECT_EQ(parity->size_bytes, 5000u);
  EXPECT_EQ(parity->kind, net::PacketKind::kFecParity);
}

TEST(Fec, RecoversSingleMissingPacket) {
  Fec f;
  std::optional<net::Packet> parity;
  std::vector<net::Packet> sent;
  for (std::uint16_t i = 0; i < 4; ++i) {
    auto m = media(i);
    parity = f.enc.on_media_packet(m);
    sent.push_back(m);  // after encoding: the group tag must be set
    if (parity) break;
  }
  ASSERT_TRUE(parity.has_value());
  // Packet 2 is lost: deliver 0, 1, 3 and the parity.
  for (const std::uint16_t i : {0, 1, 3}) {
    EXPECT_FALSE(f.dec.on_media_packet(sent[i], TimePoint::from_us(i)).has_value());
  }
  const auto rebuilt = f.dec.on_parity_packet(*parity, TimePoint::from_us(100));
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_EQ(rebuilt->transport_seq, 2);
  EXPECT_EQ(f.dec.recovered_packets(), 1u);
}

TEST(Fec, NoRepairWithTwoMissing) {
  Fec f;
  std::optional<net::Packet> parity;
  std::vector<net::Packet> sent;
  for (std::uint16_t i = 0; i < 4; ++i) {
    auto m = media(i);
    parity = f.enc.on_media_packet(m);
    sent.push_back(m);  // after encoding: the group tag must be set
  }
  f.dec.on_media_packet(sent[0], TimePoint::from_us(0));
  f.dec.on_media_packet(sent[1], TimePoint::from_us(1));
  EXPECT_FALSE(f.dec.on_parity_packet(*parity, TimePoint::from_us(2)).has_value());
}

TEST(Fec, NoRepairWhenComplete) {
  Fec f;
  std::optional<net::Packet> parity;
  std::vector<net::Packet> sent;
  for (std::uint16_t i = 0; i < 4; ++i) {
    auto m = media(i);
    parity = f.enc.on_media_packet(m);
    sent.push_back(m);  // after encoding: the group tag must be set
  }
  for (const auto& m : sent) f.dec.on_media_packet(m, TimePoint::from_us(1));
  EXPECT_FALSE(f.dec.on_parity_packet(*parity, TimePoint::from_us(2)).has_value());
}

TEST(Fec, LateMemberCompletesRepair) {
  // Parity arrives while two members are missing; the late arrival of one
  // of them makes the group repairable.
  Fec f;
  std::optional<net::Packet> parity;
  std::vector<net::Packet> sent;
  for (std::uint16_t i = 0; i < 4; ++i) {
    auto m = media(i);
    parity = f.enc.on_media_packet(m);
    sent.push_back(m);  // after encoding: the group tag must be set
  }
  f.dec.on_media_packet(sent[0], TimePoint::from_us(0));
  f.dec.on_media_packet(sent[1], TimePoint::from_us(1));
  EXPECT_FALSE(f.dec.on_parity_packet(*parity, TimePoint::from_us(2)).has_value());
  const auto rebuilt = f.dec.on_media_packet(sent[3], TimePoint::from_us(3));
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_EQ(rebuilt->transport_seq, 2);
}

TEST(Fec, RepairHappensOnlyOnce) {
  Fec f;
  std::optional<net::Packet> parity;
  std::vector<net::Packet> sent;
  for (std::uint16_t i = 0; i < 4; ++i) {
    auto m = media(i);
    parity = f.enc.on_media_packet(m);
    sent.push_back(m);  // after encoding: the group tag must be set
  }
  for (const std::uint16_t i : {0, 1, 3}) {
    f.dec.on_media_packet(sent[i], TimePoint::from_us(i));
  }
  EXPECT_TRUE(f.dec.on_parity_packet(*parity, TimePoint::from_us(10)).has_value());
  EXPECT_FALSE(f.dec.on_parity_packet(*parity, TimePoint::from_us(11)).has_value());
  EXPECT_EQ(f.dec.recovered_packets(), 1u);
}

TEST(Fec, InterleavingSurvivesBurstLoss) {
  // With depth 8 and groups of 3, a burst of 8 consecutive losses costs each
  // group at most one member — all of them repairable.
  Fec f{FecConfig{.group_size = 3, .interleave_depth = 8}};
  std::vector<net::Packet> sent;
  std::vector<net::Packet> parities;
  for (std::uint16_t i = 0; i < 24; ++i) {
    auto m = media(i);
    if (auto parity = f.enc.on_media_packet(m)) parities.push_back(*parity);
    sent.push_back(m);
  }
  EXPECT_EQ(parities.size(), 8u);
  // Burst: packets 8..15 all lost.
  int recovered = 0;
  for (std::uint16_t i = 0; i < 24; ++i) {
    if (i >= 8 && i < 16) continue;
    if (f.dec.on_media_packet(sent[i], TimePoint::from_us(i))) ++recovered;
  }
  for (const auto& parity : parities) {
    if (f.dec.on_parity_packet(parity, TimePoint::from_us(100))) ++recovered;
  }
  EXPECT_EQ(recovered, 8);
}

TEST(Fec, UnprotectedPacketIgnoredByDecoder) {
  Fec f;
  net::Packet p = media(0);
  p.fec_group = -1;
  EXPECT_FALSE(f.dec.on_media_packet(p, TimePoint::from_us(0)).has_value());
}

TEST(Fec, ConstructorsRejectDegenerateConfigs) {
  const auto table = std::make_shared<FecGroupTable>();
  EXPECT_THROW((FecEncoder{{.group_size = 4, .interleave_depth = 0}, table}),
               std::invalid_argument);
  EXPECT_THROW((FecEncoder{{.group_size = 4, .interleave_depth = -1}, table}),
               std::invalid_argument);
  EXPECT_THROW((FecEncoder{{.group_size = 0, .interleave_depth = 1}, table}),
               std::invalid_argument);
  EXPECT_THROW((FecEncoder{FecConfig{}, nullptr}), std::invalid_argument);
  EXPECT_THROW(FecDecoder{nullptr}, std::invalid_argument);
  // The smallest valid encoder emits one parity per media packet.
  FecEncoder enc{{.group_size = 1, .interleave_depth = 1}, table};
  auto m = media(0);
  EXPECT_TRUE(enc.on_media_packet(m).has_value());
}

TEST(Fec, TableAndDecoderKeepTheNewest512Groups) {
  Fec f{{.group_size = 2, .interleave_depth = 1}};
  std::vector<net::Packet> sent;
  std::vector<net::Packet> parities;
  for (std::uint16_t i = 0; i < 2 * 600; ++i) {
    auto m = media(i);
    if (auto parity = f.enc.on_media_packet(m)) parities.push_back(*parity);
    sent.push_back(m);
  }
  ASSERT_EQ(parities.size(), 600u);
  // Groups 0..87 fell out of the table; 88..599 are still repairable.
  EXPECT_FALSE(f.dec.on_media_packet(sent[2 * 87], TimePoint::from_us(0)).has_value());
  EXPECT_FALSE(f.dec.on_parity_packet(parities[87], TimePoint::from_us(1)).has_value());
  EXPECT_FALSE(f.dec.on_media_packet(sent[2 * 88], TimePoint::from_us(2)).has_value());
  const auto rebuilt = f.dec.on_parity_packet(parities[88], TimePoint::from_us(3));
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_EQ(rebuilt->transport_seq, 2 * 88 + 1);
}

}  // namespace
}  // namespace rpv::rtp
