// Tests for rpv::obs — the unified event-stream observability layer: bus
// masking, the bounded ring recorder, the JSONL timeline format, the metrics
// registry, config validation, and the determinism guarantee (recordings are
// byte-identical regardless of --jobs).
#include <gtest/gtest.h>

#include "exec/campaign_engine.hpp"
#include "experiment/scenario.hpp"
#include "obs/event.hpp"
#include "obs/event_json.hpp"
#include "obs/event_sink.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/recorder.hpp"
#include "pipeline/report_json.hpp"

namespace rpv {
namespace {

using sim::Duration;
using sim::TimePoint;

obs::Event make_event(std::int64_t t_us, obs::Component c, obs::EventKind k,
                      obs::Payload payload = {}) {
  obs::Event e;
  e.t = TimePoint::from_us(t_us);
  e.component = c;
  e.kind = k;
  e.payload = std::move(payload);
  return e;
}

// --- EventBus masking ---

TEST(EventBus, UnwantedKindsAreFreeAndUncounted) {
  obs::EventBus bus;
  // No sinks: nothing is wanted, publish is a no-op and mints no seq.
  EXPECT_FALSE(bus.wants(obs::EventKind::kStall));
  bus.publish(obs::Component::kReceiver, obs::EventKind::kStall,
              TimePoint::from_us(1), obs::StallPayload{500.0});
  EXPECT_EQ(bus.published(), 0u);

  obs::NullSink null;
  bus.subscribe(&null);  // mask 0: still nothing wanted
  EXPECT_FALSE(bus.wants(obs::EventKind::kStall));

  // A sink interested only in stalls makes exactly that kind hot.
  obs::FunctionSink stalls{obs::kind_bit(obs::EventKind::kStall),
                           [](const obs::Event&) {}};
  bus.subscribe(&stalls);
  EXPECT_TRUE(bus.wants(obs::EventKind::kStall));
  EXPECT_FALSE(bus.wants(obs::EventKind::kHandoverStart));
  bus.publish(obs::Component::kReceiver, obs::EventKind::kStall,
              TimePoint::from_us(2), obs::StallPayload{500.0});
  bus.publish(obs::Component::kCellular, obs::EventKind::kHandoverStart,
              TimePoint::from_us(3), obs::HandoverPayload{1, 2, 100});
  EXPECT_EQ(bus.published(), 1u);
}

TEST(EventBus, SeqIsMonotoneInPublishOrder) {
  obs::EventBus bus;
  std::vector<std::uint64_t> seqs;
  obs::FunctionSink all{obs::kAllKinds,
                        [&](const obs::Event& e) { seqs.push_back(e.seq); }};
  bus.subscribe(&all);
  for (int i = 0; i < 5; ++i) {
    bus.publish(obs::Component::kSession, obs::EventKind::kTargetRate,
                TimePoint::from_us(i), obs::RatePayload{1e6 * i});
  }
  ASSERT_EQ(seqs.size(), 5u);
  for (std::size_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], i);
}

TEST(EventBus, SharedSequenceStampsAcrossBuses) {
  obs::EventBus primary;
  obs::EventBus secondary;
  secondary.share_sequence(primary);
  std::vector<std::uint64_t> seqs;
  obs::FunctionSink all{obs::kAllKinds,
                        [&](const obs::Event& e) { seqs.push_back(e.seq); }};
  primary.subscribe(&all);
  secondary.subscribe(&all);
  for (int i = 0; i < 4; ++i) {
    (i % 2 == 0 ? primary : secondary)
        .publish(obs::Component::kSession, obs::EventKind::kTargetRate,
                 TimePoint::from_us(i), obs::RatePayload{1e6});
  }
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(primary.published(), 4u);
}

// --- RingBufferRecorder ---

TEST(RingBufferRecorder, DropsOldestOnOverflow) {
  obs::RingBufferRecorder rec{/*capacity=*/4, obs::kAllKinds};
  obs::EventBus bus;
  bus.subscribe(&rec);
  for (int i = 0; i < 6; ++i) {
    bus.publish(obs::Component::kCc, obs::EventKind::kTargetRate,
                TimePoint::from_us(i * 1000), obs::RatePayload{1e6 * i});
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.recorded(), 6u);
  EXPECT_EQ(rec.dropped(), 2u);
  const auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Oldest first, and the two oldest events (seq 0, 1) were evicted.
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].seq, i + 2);
  }
}

TEST(RingBufferRecorder, DefaultMaskExcludesPacketFirehose) {
  obs::RingBufferRecorder rec;  // kTimelineKinds
  obs::EventBus bus;
  bus.subscribe(&rec);
  EXPECT_FALSE(bus.wants(obs::EventKind::kPacketSent));
  EXPECT_FALSE(bus.wants(obs::EventKind::kPacketReceived));
  EXPECT_FALSE(bus.wants(obs::EventKind::kQueueEnqueue));
  EXPECT_TRUE(bus.wants(obs::EventKind::kPacketLost));
  EXPECT_TRUE(bus.wants(obs::EventKind::kHandoverStart));
}

// --- JSONL round-trip ---

TEST(EventJson, RoundTripsEveryPayloadType) {
  std::vector<obs::Event> events;
  events.push_back(make_event(
      1000, obs::Component::kCellular, obs::EventKind::kLinkMeasurement,
      obs::MeasurementPayload{3, -91.25, 5, -95.5, 12.5, 42.0, false, true,
                              120000}));
  events.push_back(make_event(2000, obs::Component::kCellular,
                              obs::EventKind::kHandoverStart,
                              obs::HandoverPayload{3, 5, 120000}));
  events.push_back(make_event(3000, obs::Component::kLinkQueue,
                              obs::EventKind::kQueueDrop,
                              obs::QueuePayload{77, 1200, 250000, 208, 1}));
  events.push_back(make_event(4000, obs::Component::kCc,
                              obs::EventKind::kTargetRate,
                              obs::RatePayload{8.5e6}));
  events.push_back(make_event(5000, obs::Component::kCc,
                              obs::EventKind::kOveruse,
                              obs::SignalPayload{1}));
  events.push_back(make_event(6000, obs::Component::kSender,
                              obs::EventKind::kFrameEncoded,
                              obs::FramePayload{42, 31000, true, false}));
  events.push_back(make_event(
      7000, obs::Component::kReceiver, obs::EventKind::kPacketReceived,
      obs::PacketPayload{9001, 1, 1200, 42, 777, 48.25}));
  events.push_back(make_event(8000, obs::Component::kReceiver,
                              obs::EventKind::kStall,
                              obs::StallPayload{512.5}));
  events.push_back(make_event(9000, obs::Component::kFault,
                              obs::EventKind::kFaultInjected,
                              obs::FaultPayload{2, 500000, 0.1}));
  events.push_back(
      make_event(10000, obs::Component::kSession, obs::EventKind::kRlf));
  for (std::size_t i = 0; i < events.size(); ++i) events[i].seq = i;

  const auto text = obs::to_jsonl(events);
  const auto parsed = obs::read_jsonl(text);
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed[i], events[i]) << "event " << i;
  }
  // The writer is canonical: re-serializing reproduces the bytes.
  EXPECT_EQ(obs::to_jsonl(parsed), text);
}

TEST(EventJson, RejectsMalformedLinesWithLineNumber) {
  try {
    (void)obs::read_jsonl("{\"t_us\":1,\"seq\":0,\"component\":\"cellular\","
                          "\"kind\":\"rlf\"}\nnot json\n");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("line 2"), std::string::npos);
  }
}

TEST(EventJson, RejectsOutOfRangeIntegers) {
  // Each of these used to wrap into the member silently: size_bytes is a
  // uint32, transport_seq a uint16, source_cell a uint32, seq a uint64.
  const char* lines[] = {
      R"({"t_us":1,"seq":0,"component":"receiver","kind":"packet-lost",)"
      R"("p":{"id":1,"kind":0,"size_bytes":5000000000,"frame_id":0,)"
      R"("transport_seq":0,"owd_ms":0}})",
      R"({"t_us":1,"seq":0,"component":"receiver","kind":"packet-lost",)"
      R"("p":{"id":1,"kind":0,"size_bytes":1200,"frame_id":0,)"
      R"("transport_seq":70000,"owd_ms":0}})",
      R"({"t_us":1,"seq":0,"component":"cellular","kind":"handover-start",)"
      R"("p":{"source_cell":4294967301,"target_cell":5,"het_us":0}})",
      R"({"t_us":1,"seq":-1,"component":"cellular","kind":"rlf"})",
      R"({"t_us":1e300,"seq":0,"component":"cellular","kind":"rlf"})",
  };
  for (const char* line : lines) {
    SCOPED_TRACE(line);
    EXPECT_THROW((void)obs::read_jsonl(std::string{line} + "\n"),
                 std::runtime_error);
  }
}

TEST(EventJson, NamesRoundTrip) {
  for (std::size_t i = 0; i < obs::kComponentCount; ++i) {
    const auto c = static_cast<obs::Component>(i);
    const auto back = obs::component_from_name(obs::component_name(c));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, c);
  }
  for (std::size_t i = 0; i < obs::kEventKindCount; ++i) {
    const auto k = static_cast<obs::EventKind>(i);
    const auto back = obs::event_kind_from_name(obs::event_kind_name(k));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, k);
  }
  EXPECT_FALSE(obs::component_from_name("bogus").has_value());
  EXPECT_FALSE(obs::event_kind_from_name("bogus").has_value());
}

// --- Histogram / MetricsRegistry ---

TEST(Histogram, BucketEdgesAreHalfOpen) {
  obs::Histogram h{"test_ms", {10.0, 20.0}};
  ASSERT_EQ(h.counts.size(), 3u);
  h.add(9.999);   // < 10        -> bucket 0
  h.add(10.0);    // on the edge -> bucket 1
  h.add(19.999);  //             -> bucket 1
  h.add(20.0);    // on the edge -> bucket 2 (overflow)
  h.add(1e9);     //             -> bucket 2
  EXPECT_EQ(h.counts[0], 1u);
  EXPECT_EQ(h.counts[1], 2u);
  EXPECT_EQ(h.counts[2], 2u);
  EXPECT_EQ(h.total, 5u);
}

TEST(Histogram, RejectsBadEdges) {
  EXPECT_THROW((obs::Histogram{"bad", {}}), std::invalid_argument);
  EXPECT_THROW((obs::Histogram{"bad", {5.0, 5.0}}), std::invalid_argument);
  EXPECT_THROW((obs::Histogram{"bad", {5.0, 1.0}}), std::invalid_argument);
}

TEST(MetricsRegistry, CountsAndFeedsHistograms) {
  obs::MetricsRegistry reg;
  obs::EventBus bus;
  bus.subscribe(&reg);
  bus.publish(obs::Component::kCellular, obs::EventKind::kHandoverStart,
              TimePoint::from_us(1000),
              obs::HandoverPayload{1, 2, /*het_us=*/150000});
  bus.publish(obs::Component::kCellular, obs::EventKind::kHandoverStart,
              TimePoint::from_us(2000),
              obs::HandoverPayload{2, 3, /*het_us=*/900000});
  bus.publish(obs::Component::kReceiver, obs::EventKind::kStall,
              TimePoint::from_us(3000), obs::StallPayload{450.0});
  EXPECT_EQ(reg.count(obs::Component::kCellular,
                      obs::EventKind::kHandoverStart),
            2u);
  EXPECT_EQ(reg.count(obs::Component::kReceiver, obs::EventKind::kStall), 1u);

  const auto summary = reg.summary();
  ASSERT_EQ(summary.counters.size(), 2u);
  // Component-major order: cellular before receiver.
  EXPECT_EQ(summary.counters[0].name, "cellular/handover-start");
  EXPECT_EQ(summary.counters[0].value, 2u);
  EXPECT_EQ(summary.counters[1].name, "receiver/stall");

  const obs::Histogram* het = nullptr;
  const obs::Histogram* stall = nullptr;
  for (const auto& h : summary.histograms) {
    if (h.name == "het_ms") het = &h;
    if (h.name == "stall_ms") stall = &h;
  }
  ASSERT_NE(het, nullptr);
  ASSERT_NE(stall, nullptr);
  EXPECT_EQ(het->total, 2u);
  EXPECT_EQ(stall->total, 1u);
}

// --- SessionConfig::validate ---

TEST(SessionConfigValidate, RejectsBadConfigs) {
  pipeline::SessionConfig ok;
  EXPECT_NO_THROW(ok.validate());

  pipeline::SessionConfig bad = ok;
  bad.sender.frame_interval = Duration::zero();
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = ok;
  bad.static_bitrate_bps = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = ok;
  bad.fec_group_size = -1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = ok;
  bad.obs.ring_capacity = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = ok;
  bad.c2.enabled = true;
  bad.c2.command_interval = Duration::zero();
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

// A zero feedback or poll interval re-arms its timer at the same instant
// forever; an ack window below one starves or crashes SCReAM mid-run.
TEST(SessionConfigValidate, RejectsFeedbackPathConfigsThatHangOrCrash) {
  const pipeline::SessionConfig ok;

  pipeline::SessionConfig bad = ok;
  bad.receiver.twcc_interval = Duration::zero();
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = ok;
  bad.receiver.rfc8888_interval = Duration::millis(-10);
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = ok;
  bad.sender.blocked_poll = Duration::zero();
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = ok;
  bad.receiver.rfc8888_ack_window = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

// --- End-to-end: observed sessions ---

experiment::Scenario quick_scenario(std::uint64_t seed) {
  experiment::Scenario s;
  s.env = experiment::Environment::kRuralP1;
  s.cc = pipeline::CcKind::kStatic;
  s.seed = seed;
  s.observe = true;
  return s;
}

TEST(ObsSession, DisabledSessionRecordsNothing) {
  auto s = quick_scenario(71);
  s.observe = false;
  const auto r = experiment::run_scenario(s);
  EXPECT_FALSE(r.obs_enabled);
  EXPECT_TRUE(r.events.empty());
  EXPECT_EQ(r.obs_events_recorded, 0u);
  EXPECT_TRUE(r.obs_metrics.counters.empty());
}

TEST(ObsSession, ObservedSessionRecordsTimeline) {
  const auto r = experiment::run_scenario(quick_scenario(72));
  EXPECT_TRUE(r.obs_enabled);
  ASSERT_FALSE(r.events.empty());
  EXPECT_EQ(r.obs_events_recorded, r.events.size() + r.obs_events_dropped);
  // Link measurements tick throughout the run.
  bool saw_measurement = false;
  sim::TimePoint last = sim::TimePoint::origin();
  for (const auto& e : r.events) {
    if (e.kind == obs::EventKind::kLinkMeasurement) saw_measurement = true;
    EXPECT_GE(e.t, last);  // (t, seq)-ordered
    last = e.t;
  }
  EXPECT_TRUE(saw_measurement);
  EXPECT_FALSE(r.obs_metrics.counters.empty());
}

TEST(ObsSession, ObservingARunLeavesSimEventsUnchanged) {
  // Subscribing every kind (kHandoverEnd included) must not add engine
  // events: the report's sim_events is the same with and without a recorder.
  experiment::Scenario s;
  s.env = experiment::Environment::kUrban;
  s.cc = pipeline::CcKind::kGcc;
  s.seed = 74;
  const auto plain = experiment::run_scenario(s);
  s.observe = true;
  const auto observed = experiment::run_scenario(s);
  ASSERT_GT(observed.handovers.count(), 0u);
  EXPECT_EQ(observed.sim_events, plain.sim_events);
}

TEST(ObsSession, BondedStreamHasOneIncreasingSeq) {
  // Each operator publishes on a stream of its own; all of a session's
  // streams stamp one publish-ordered sequence.
  auto s = quick_scenario(75);
  s.multipath = experiment::Multipath::kBondHighReliability;
  s.path_set = experiment::PathSet::kThreeWay;
  s.c2 = true;
  const auto r = experiment::run_scenario(s);
  ASSERT_GT(r.events.size(), 1u);
  std::size_t out_of_order = 0;
  for (std::size_t i = 1; i < r.events.size(); ++i) {
    if (r.events[i].seq <= r.events[i - 1].seq) ++out_of_order;
  }
  EXPECT_EQ(out_of_order, 0u);
}

TEST(ObsSession, ReportJsonRoundTripsObsBlock) {
  const auto r = experiment::run_scenario(quick_scenario(73));
  const auto doc = pipeline::report_to_json(r);
  const auto text = doc.dump(-1);
  const auto back = pipeline::report_from_json(json::parse(text));
  EXPECT_EQ(back.obs_enabled, r.obs_enabled);
  EXPECT_EQ(back.obs_events_recorded, r.obs_events_recorded);
  EXPECT_EQ(back.obs_events_dropped, r.obs_events_dropped);
  EXPECT_EQ(back.obs_metrics, r.obs_metrics);
  // Canonical serialization: a reload re-dumps byte-identically.
  EXPECT_EQ(pipeline::report_to_json(back).dump(-1), text);
}

TEST(ObsSession, RecordingIsIdenticalAcrossJobCounts) {
  std::vector<experiment::Scenario> scenarios;
  for (std::uint64_t i = 0; i < 3; ++i) {
    scenarios.push_back(quick_scenario(80 + i * 7919));
  }
  const exec::CampaignEngine serial{{.jobs = 1}};
  const exec::CampaignEngine parallel{{.jobs = 8}};
  const auto a = serial.run_scenarios(scenarios);
  const auto b = parallel.run_scenarios(scenarios);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(obs::to_jsonl(a[i].events), obs::to_jsonl(b[i].events))
        << "events.jsonl differs for scenario " << i;
    EXPECT_EQ(pipeline::report_to_json(a[i]).dump(-1),
              pipeline::report_to_json(b[i]).dump(-1))
        << "report differs for scenario " << i;
  }
}

}  // namespace
}  // namespace rpv
