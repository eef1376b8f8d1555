#include "cellular/cellular_link.hpp"

#include <gtest/gtest.h>

#include "geo/flight_profiles.hpp"

namespace rpv::cellular {
namespace {

using sim::Duration;
using sim::Simulator;
using sim::TimePoint;

struct Fixture {
  Simulator sim;
  geo::Trajectory trajectory;
  std::unique_ptr<CellularLink> link;

  explicit Fixture(geo::Trajectory traj, CellularLinkConfig cfg = {},
                   std::uint64_t seed = 1)
      : trajectory{std::move(traj)} {
    sim::Rng rng{seed};
    auto layout = make_urban_layout(rng);
    link = std::make_unique<CellularLink>(sim, std::move(layout), cfg,
                                          &trajectory, rng.fork());
  }
};

net::Packet media_packet(std::uint64_t id, std::size_t bytes = 1240) {
  net::Packet p;
  p.id = id;
  p.size_bytes = bytes;
  return p;
}

TEST(CellularLink, UplinkDeliversWithPositiveLatency) {
  Fixture f{geo::make_static_profile({0, 0, 1.5}, Duration::seconds(10.0))};
  f.link->start();
  std::vector<net::Packet> got;
  f.sim.schedule_at(TimePoint::from_us(1000), [&] {
    f.link->send_uplink(media_packet(1), [&](net::Packet p) { got.push_back(p); });
  });
  f.sim.run_all();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_GT(got[0].received, got[0].enqueued);
  // At minimum the access latency applies.
  EXPECT_GT((got[0].received - got[0].enqueued).ms(), 10.0);
}

TEST(CellularLink, DownlinkDeliversQuickly) {
  Fixture f{geo::make_static_profile({0, 0, 1.5}, Duration::seconds(10.0))};
  f.link->start();
  std::vector<net::Packet> got;
  f.sim.schedule_at(TimePoint::from_us(1000), [&] {
    f.link->send_downlink(media_packet(2, 100),
                          [&](net::Packet p) { got.push_back(p); });
  });
  f.sim.run_all();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_LT((f.sim.now() - TimePoint::from_us(1000)).ms(), 10'000.0);
}

TEST(CellularLink, ManyPacketsConserved) {
  Fixture f{geo::make_static_profile({0, 0, 1.5}, Duration::seconds(30.0))};
  f.link->start();
  int delivered = 0, lost = 0;
  f.link->set_loss_callback([&](const net::Packet&) { ++lost; });
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    // Capture `i` by value: the lambda runs from the event loop long after
    // the loop variable's scope has ended.
    f.sim.schedule_at(TimePoint::from_us(i * 2000), [&f, &delivered, i] {
      f.link->send_uplink(media_packet(static_cast<std::uint64_t>(i) + 10),
                          [&](net::Packet) { ++delivered; });
    });
  }
  f.sim.run_all();
  EXPECT_EQ(delivered + lost, n);
  EXPECT_GT(delivered, n * 95 / 100);
}

TEST(CellularLink, FlightProducesHandovers) {
  Fixture f{geo::make_flight_profile({0, 0, 0})};
  f.link->start();
  f.sim.run_all();
  EXPECT_GT(f.link->handover_log().count(), 0u);
  EXPECT_GT(f.link->distinct_cells_seen(), 1u);
}

TEST(CellularLink, CapacityTraceCoversTrajectory) {
  Fixture f{geo::make_static_profile({0, 0, 1.5}, Duration::seconds(10.0))};
  f.link->start();
  f.sim.run_all();
  // One measurement per 100 ms over 10 s, every one positive.
  const auto& cap = f.link->capacity_mbps();
  EXPECT_NEAR(static_cast<double>(cap.count()), 100.0, 5.0);
  EXPECT_GT(cap.min(), 0.0);
}

TEST(CellularLink, AirborneFractionTracksAltitude) {
  Fixture f{geo::make_flight_profile({0, 0, 0})};
  f.link->start();
  double max_frac = 0.0;
  for (int s = 0; s < 300; ++s) {
    f.sim.schedule_at(TimePoint::from_us(s * 1'000'000),
                      [&] { max_frac = std::max(max_frac, f.link->airborne_fraction()); });
  }
  f.sim.run_all();
  EXPECT_GT(max_frac, 0.8);  // at 120 m with 45 m scale: ~0.93
}

TEST(CellularLink, UplinkOrderPreserved) {
  Fixture f{geo::make_static_profile({0, 0, 1.5}, Duration::seconds(20.0))};
  f.link->start();
  std::vector<std::uint64_t> order;
  for (std::uint64_t i = 1; i <= 500; ++i) {
    f.sim.schedule_at(TimePoint::from_us(static_cast<std::int64_t>(i) * 500), [&, i] {
      f.link->send_uplink(media_packet(i),
                          [&](net::Packet p) { order.push_back(p.id); });
    });
  }
  f.sim.run_all();
  // Serialization is FIFO; only the per-packet access jitter may reorder,
  // and at 500 us spacing it rarely does. Verify near-order.
  int inversions = 0;
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i] < order[i - 1]) ++inversions;
  }
  EXPECT_LT(inversions, static_cast<int>(order.size()) / 10);
}

TEST(CellularLink, DeterministicAcrossSeeds) {
  auto run = [](std::uint64_t seed) {
    Fixture f{geo::make_flight_profile({0, 0, 0}), CellularLinkConfig{}, seed};
    f.link->start();
    f.sim.run_all();
    return f.link->handover_log().count();
  };
  EXPECT_EQ(run(77), run(77));
}

TEST(CellularLink, QueueDelayVisible) {
  CellularLinkConfig cfg;
  Fixture f{geo::make_static_profile({0, 0, 1.5}, Duration::seconds(10.0)), cfg};
  f.link->start();
  f.sim.schedule_at(TimePoint::from_us(1000), [&] {
    // Dump a burst far above the link rate; queue delay must become visible.
    for (int i = 0; i < 200; ++i) {
      f.link->send_uplink(media_packet(1000 + i, 1240), [](net::Packet) {});
    }
    EXPECT_GT(f.link->queuing_delay_ms(), 1.0);
    EXPECT_GT(f.link->queued_bytes(), 0u);
  });
  f.sim.run_all();
}

}  // namespace
}  // namespace rpv::cellular
