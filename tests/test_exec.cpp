// rpv::exec — parallel loop, parallel campaign determinism, JSON round trips,
// and the run-artifact store.
#include <bit>
#include <filesystem>
#include <fstream>
#include <limits>

#include <gtest/gtest.h>
#include <malloc.h>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
extern "C" std::size_t __sanitizer_get_current_allocated_bytes();
#endif

#include "bench_common.hpp"
#include "flights.hpp"
#include "exec/campaign_engine.hpp"
#include "exec/parallel_for.hpp"
#include "exec/run_artifact.hpp"
#include "experiment/runner.hpp"
#include "json/json.hpp"
#include "pipeline/report_json.hpp"

namespace rpv {
namespace {

// --- resolve_jobs / parallel_for_index ---

TEST(ThreadPool, ResolveJobs) {
  EXPECT_EQ(exec::resolve_jobs(3), 3);
  EXPECT_GE(exec::resolve_jobs(0), 1);
  EXPECT_GE(exec::resolve_jobs(-1), 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const int jobs : {1, 2, 8}) {
    std::vector<int> hits(257, 0);
    exec::parallel_for_index(hits.size(), jobs,
                             [&](std::size_t i) { hits[i]++; });
    for (const int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      exec::parallel_for_index(16, 4,
                               [](std::size_t i) {
                                 if (i == 7) throw std::runtime_error{"boom"};
                               }),
      std::runtime_error);
}

// --- JSON value model ---

TEST(Json, ScalarRoundTrip) {
  EXPECT_EQ(json::parse("null").kind(), json::Value::Kind::kNull);
  EXPECT_TRUE(json::parse("true").as_bool());
  EXPECT_EQ(json::parse("-42").as_i64(), -42);
  EXPECT_EQ(json::parse("18446744073709551615").as_u64(),
            18446744073709551615ULL);
  EXPECT_DOUBLE_EQ(json::parse("0.25").as_double(), 0.25);
  EXPECT_EQ(json::parse("\"a\\nb\"").as_string(), "a\nb");
}

TEST(Json, DoubleDumpIsShortestRoundTrip) {
  const double x = 0.1;
  const auto v = json::parse(json::Value{x}.dump());
  EXPECT_EQ(v.as_double(), x);
  EXPECT_EQ(json::Value{x}.dump(), "0.1");
}

TEST(Json, ObjectKeepsInsertionOrder) {
  json::Value obj = json::Value::object();
  obj.set("zeta", 1).set("alpha", 2).set("mid", 3);
  EXPECT_EQ(obj.dump(), "{\"zeta\":1,\"alpha\":2,\"mid\":3}");
  // Overwrite keeps the original slot.
  obj.set("alpha", 9);
  EXPECT_EQ(obj.dump(), "{\"zeta\":1,\"alpha\":9,\"mid\":3}");
}

TEST(Json, NestedDocumentRoundTrip) {
  const std::string text =
      R"({"a":[1,2.5,"x",null,true],"b":{"c":[{"d":-7}]},"e":""})";
  const auto v = json::parse(text);
  EXPECT_EQ(v.dump(), text);
  EXPECT_EQ(v.at("b").at("c").items().at(0).at("d").as_i64(), -7);
}

TEST(Json, ParseErrorsThrow) {
  EXPECT_THROW(json::parse("{"), std::runtime_error);
  EXPECT_THROW(json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(json::parse("tru"), std::runtime_error);
  EXPECT_THROW(json::parse("{} x"), std::runtime_error);
  EXPECT_FALSE(json::try_parse("nope").has_value());
  EXPECT_TRUE(json::try_parse("[]").has_value());
}

TEST(Json, IntegerAccessorsRejectUnrepresentableValues) {
  // Doubles convert only when integral and inside the target range (a cast
  // of 1e300 would be undefined behaviour).
  EXPECT_EQ(json::parse("4.0").as_i64(), 4);
  EXPECT_EQ(json::parse("-4e0").as_i64(), -4);
  EXPECT_EQ(json::parse("4.0").as_u64(), 4u);
  for (const char* text : {"1e300", "-1e300", "2.5", "9223372036854775808.0"}) {
    SCOPED_TRACE(text);
    EXPECT_THROW((void)json::parse(text).as_i64(), std::runtime_error);
  }
  for (const char* text : {"1e300", "2.5", "-1.0", "18446744073709551616"}) {
    SCOPED_TRACE(text);
    EXPECT_THROW((void)json::parse(text).as_u64(), std::runtime_error);
  }
  // Negative integers never read as unsigned (-5 used to become 2^64 - 5).
  EXPECT_THROW((void)json::parse("-5").as_u64(), std::runtime_error);
  // A uint above INT64_MAX does not read as signed.
  EXPECT_THROW((void)json::parse("9223372036854775808").as_i64(),
               std::runtime_error);
  EXPECT_EQ(json::parse("9223372036854775807").as_i64(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(json::parse("-9223372036854775808").as_i64(),
            std::numeric_limits<std::int64_t>::min());
}

TEST(Json, NegativeZeroRoundTrips) {
  // "-0" has no integer form, so it stays the double -0.0 and every dump of
  // it re-parses to the same bytes.
  EXPECT_EQ(json::Value{-0.0}.dump(), "-0");
  EXPECT_EQ(json::parse("-0").dump(), "-0");
  EXPECT_EQ(json::parse("[-0.0]").dump(), "[-0]");
  EXPECT_EQ(json::parse("-0").as_i64(), 0);
}

TEST(Json, MissingKeyNamesTheKey) {
  const auto v = json::parse("{\"a\":1}");
  try {
    (void)v.at("missing");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("missing"), std::string::npos);
  }
}

TEST(Json, NestingDeeperThanTheLimitThrowsInsteadOfCrashing) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_EQ(json::parse(nested(json::kMaxDepth)).dump(), nested(json::kMaxDepth));
  try {
    (void)json::parse(nested(json::kMaxDepth + 1));
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    // The offset of the bracket that went one level too deep.
    EXPECT_NE(std::string{e.what()}.find(
                  "at offset " + std::to_string(json::kMaxDepth)),
              std::string::npos)
        << e.what();
  }
  // Unbalanced megabytes of brackets used to overflow the stack.
  for (const std::size_t n : {std::size_t{100'000}, std::size_t{1'000'000}}) {
    EXPECT_THROW((void)json::parse(std::string(n, '[')), std::runtime_error);
    EXPECT_THROW((void)json::parse(std::string(n / 2, '[') + "{\"a\":" +
                                   std::string(n / 2, '{')),
                 std::runtime_error);
  }
}

TEST(Json, DuplicateKeyThrows) {
  for (const char* text : {R"({"a":1,"b":2,"a":3})", R"({"x":{"k":1,"k":1}})"}) {
    SCOPED_TRACE(text);
    EXPECT_THROW((void)json::parse(text), std::runtime_error);
  }
  // A repeat among many keys, far from its first use.
  std::string big = "{";
  for (int i = 0; i < 100; ++i) big += "\"k" + std::to_string(i) + "\":0,";
  EXPECT_NO_THROW((void)json::parse(big + "\"k100\":0}"));
  EXPECT_THROW((void)json::parse(big + "\"k42\":0}"), std::runtime_error);
  // The same key in sibling objects is fine.
  EXPECT_NO_THROW((void)json::parse(R"([{"a":1},{"a":2}])"));
}

TEST(Json, HundredThousandKeyObjectParses) {
  // Members append as parsed; inserting each through set()'s scan of the
  // earlier keys made this quadratic (40k keys took seconds).
  constexpr int kKeys = 100'000;
  std::string text = "{";
  for (int i = 0; i < kKeys; ++i) {
    if (i > 0) text += ',';
    text += "\"key" + std::to_string(i) + "\":" + std::to_string(i);
  }
  text += '}';
  const auto v = json::parse(text);
  ASSERT_EQ(v.size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(v.members().front().key, "key0");
  EXPECT_EQ(v.at("key99999").as_i64(), 99999);
  EXPECT_EQ(v.dump(), text);
}

// --- JSON value node: the hand-managed 16-byte layout ---

static_assert(sizeof(json::Value) <= 16, "json::Value is a tag plus 8 bytes");

// Bytes the allocator has handed out and not had back.
std::size_t heap_in_use() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return __sanitizer_get_current_allocated_bytes();
#else
  const auto m = mallinfo2();
  return m.uordblks + m.hblkhd;
#endif
}

json::Value sample_document() {
  json::Value doc = json::Value::object();
  doc.set("name", "run").set("n", 3).set("xs", json::parse("[1,2.5,[true]]"));
  doc.set("sub", json::parse(R"({"k":"v","z":null})"));
  return doc;
}

TEST(JsonValue, CopyIsDeep) {
  const json::Value original = sample_document();
  const std::string before = original.dump();
  json::Value copy = original;
  copy.set("name", "changed").set("sub", 1);
  json::Value xs = copy.at("xs");
  xs.push_back("more");
  copy.set("xs", xs);
  EXPECT_EQ(original.dump(), before);
  EXPECT_EQ(copy.dump(),
            R"({"name":"changed","n":3,"xs":[1,2.5,[true],"more"],"sub":1})");

  json::Value assigned = json::Value::array();
  assigned = original;
  assigned.set("n", 4);
  EXPECT_EQ(original.dump(), before);
  EXPECT_EQ(assigned.at("n").as_i64(), 4);
}

TEST(JsonValue, MovedFromValueIsNullAndReusable) {
  for (json::Value v : {sample_document(), json::Value{"text"},
                        json::parse("[1,2]"), json::Value{7}}) {
    const std::string bytes = v.dump();
    json::Value moved{std::move(v)};
    EXPECT_TRUE(v.is_null());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(moved.dump(), bytes);

    json::Value target = json::parse(R"({"old":[1,2,3]})");
    target = std::move(moved);
    EXPECT_TRUE(moved.is_null());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(target.dump(), bytes);

    v.push_back(1).push_back("x");
    EXPECT_EQ(v.dump(), R"([1,"x"])");
    moved.set("k", true);
    EXPECT_EQ(moved.dump(), R"({"k":true})");
  }
}

TEST(JsonValue, SelfAssignmentIsANoOp) {
  json::Value v = sample_document();
  const std::string before = v.dump();
  json::Value& alias = v;
  v = alias;
  EXPECT_EQ(v.dump(), before);
  v = std::move(alias);
  EXPECT_EQ(v.dump(), before);

  json::Value s{"text"};
  json::Value& s_alias = s;
  s = s_alias;
  s = std::move(s_alias);
  EXPECT_EQ(s.as_string(), "text");
}

TEST(JsonValue, OverwritingAContainerMemberWithAScalarFreesIt) {
  constexpr std::size_t kItems = std::size_t{1} << 20;  // 16 MB of nodes
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  const std::size_t base = heap_in_use();
  json::Value doc = json::Value::object();
  {
    json::Value items = json::Value::array();
    items.reserve(kItems);
    for (std::size_t i = 0; i < kItems; ++i) items.push_back(std::uint64_t{i});
    json::Value wrapper = json::Value::object();
    wrapper.set("inner", items);
    doc.set("array", std::move(items)).set("object", std::move(wrapper));
  }
  EXPECT_GT(heap_in_use(), base + 30 * kMiB);
  doc.set("array", 1).set("object", false);
  EXPECT_LT(heap_in_use(), base + kMiB);
  EXPECT_EQ(doc.dump(), R"({"array":1,"object":false})");
}

TEST(JsonValue, ReserveOnANonArrayThrowsLikePushBack) {
  for (json::Value v : {json::Value::object(), json::Value{"s"}, json::Value{1},
                        json::Value{2.5}, json::Value{true}}) {
    SCOPED_TRACE(v.dump());
    EXPECT_THROW(v.reserve(4), std::runtime_error);
    EXPECT_THROW(v.push_back(1), std::runtime_error);
  }
  json::Value null;
  null.reserve(4).push_back(1);
  EXPECT_EQ(null.dump(), "[1]");
}

// --- Campaign determinism: parallel == serial, byte for byte ---

experiment::Campaign small_campaign() {
  experiment::Campaign c;
  c.scenario.env = experiment::Environment::kRuralP1;
  c.scenario.cc = pipeline::CcKind::kStatic;
  c.scenario.seed = 77;
  c.runs = 3;
  return c;
}

std::vector<std::string> report_bytes(
    const std::vector<pipeline::SessionReport>& rs) {
  std::vector<std::string> out;
  out.reserve(rs.size());
  for (const auto& r : rs) out.push_back(pipeline::report_to_json(r).dump());
  return out;
}

// The campaign flown one run_scenario after another on this thread.
std::vector<pipeline::SessionReport> run_serially(const experiment::Campaign& c) {
  std::vector<pipeline::SessionReport> out;
  for (const auto seed : exec::campaign_seeds(c)) {
    auto s = c.scenario;
    s.seed = seed;
    out.push_back(experiment::run_scenario(s));
  }
  return out;
}

TEST(CampaignEngine, ParallelReportsAreByteIdenticalToSerial) {
  const auto c = small_campaign();
  const auto serial = report_bytes(run_serially(c));
  ASSERT_EQ(serial.size(), 3u);
  for (const int jobs : {2, 8}) {
    const exec::CampaignEngine engine{{.jobs = jobs}};
    const auto parallel = report_bytes(engine.run(c).reports);
    ASSERT_EQ(parallel.size(), serial.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i], serial[i]) << "jobs=" << jobs << " run=" << i;
    }
  }
}

TEST(CampaignEngine, EngineMatchesLegacySerialRunner) {
  const auto c = small_campaign();
  const exec::CampaignEngine engine{{.jobs = 4}};
  const auto result = engine.run(c);
  EXPECT_EQ(result.seeds, exec::campaign_seeds(c));
  ASSERT_EQ(result.seeds.size(), 3u);
  EXPECT_EQ(result.seeds[1], c.scenario.seed + 7919);
  EXPECT_EQ(report_bytes(result.reports), report_bytes(run_serially(c)));
  EXPECT_GT(result.wall_seconds, 0.0);
}

TEST(CampaignEngine, ValidatesCampaignAndGrid) {
  auto c = small_campaign();
  const exec::CampaignEngine engine;
  c.runs = 0;
  EXPECT_THROW((void)engine.run(c), std::invalid_argument);
  c.runs = -3;
  EXPECT_THROW((void)engine.run(c), std::invalid_argument);
  EXPECT_THROW((void)engine.run_grid({}, 2, 1), std::invalid_argument);
  const auto cells = exec::expand_grid({}, experiment::Scenario{});
  EXPECT_THROW((void)engine.run_grid(cells, 0, 1), std::invalid_argument);
}

// rpv_figures' Flights: a recording pass, one batch, then replays.
TEST(Flights, FliesEachDistinctPairOnceAndReplaysIt) {
  experiment::Scenario probe;
  probe.env = experiment::Environment::kRuralP2;
  probe.mobility = experiment::Mobility::kGround;
  probe.cc = pipeline::CcKind::kNone;
  probe.probe_interval = sim::Duration::millis(200);
  const experiment::Campaign c{probe, 2};  // seeds s and s + 7919
  auto second = probe;
  second.seed = probe.seed + 7919;
  auto third = probe;
  third.seed = 5;
  const std::vector<experiment::Scenario> list{second, third};

  bench::Flights flights;
  EXPECT_EQ(flights.run(c).size(), 2u);
  EXPECT_EQ(flights.run(list).size(), 2u);
  EXPECT_EQ(flights.requested(), 4u);
  EXPECT_EQ(flights.distinct(), 3u);

  flights.fly(exec::CampaignEngine{{.jobs = 2}});
  const auto campaign = flights.run(c);
  const auto replay = flights.run(list);
  ASSERT_EQ(campaign.size(), 2u);
  EXPECT_EQ(report_bytes({campaign[1]}), report_bytes({replay[0]}));
  EXPECT_EQ(report_bytes(replay),
            report_bytes({experiment::run_scenario(second),
                          experiment::run_scenario(third)}));
  // A pair the recording pass never asked for is an error, not a flight.
  auto unrecorded = probe;
  unrecorded.seed = 6;
  EXPECT_THROW((void)flights.run(std::vector<experiment::Scenario>{unrecorded}),
               std::logic_error);
}

// A Scenario compares its radio map by pointer, so the recording pass and
// the replay must be handed the same warm-up map, not two equal builds.
TEST(Flights, BuildsEachWarmUpMapOnceAndReplaysItsFlights) {
  radiomap::GridSpec spec;  // two 50 m columns: a short survey flight
  spec.nx = 2;
  experiment::Scenario base;
  base.env = experiment::Environment::kRuralP1;
  base.cc = pipeline::CcKind::kNone;
  base.seed = 7301;
  auto urban = base;
  urban.env = experiment::Environment::kUrban;

  bench::Flights flights;
  const auto map = flights.radio_map(base, spec);
  ASSERT_NE(map, nullptr);
  EXPECT_GT(map->total_samples(), 0u);
  EXPECT_EQ(flights.radio_map(base, spec), map);
  EXPECT_NE(flights.radio_map(urban, spec), map);

  experiment::Scenario probe;
  probe.env = experiment::Environment::kRuralP1;
  probe.mobility = experiment::Mobility::kGround;
  probe.cc = pipeline::CcKind::kNone;
  probe.probe_interval = sim::Duration::millis(200);
  probe.radio_map = map;
  (void)flights.run(std::vector<experiment::Scenario>{probe});
  flights.fly(exec::CampaignEngine{{.jobs = 2}});

  auto replay = probe;
  replay.radio_map = flights.radio_map(base, spec);
  EXPECT_EQ(replay.radio_map, map);
  EXPECT_EQ(report_bytes(flights.run(std::vector<experiment::Scenario>{replay})),
            report_bytes({experiment::run_scenario(probe)}));
}

// Flights stores its batch, maps included, and a Flights made from the store
// replays it without flying a flight or a survey.
TEST(Flights, ReplaysItsStoredBatchWithoutFlying) {
  const auto dir = std::filesystem::path{::testing::TempDir()} /
                   "rpv_flights_store" /
                   std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  std::filesystem::remove_all(dir);
  radiomap::GridSpec spec;  // two 50 m columns: a short survey flight
  spec.nx = 2;
  experiment::Scenario base;
  base.env = experiment::Environment::kRuralP1;
  base.cc = pipeline::CcKind::kNone;
  base.seed = 7301;
  experiment::Scenario probe;
  probe.env = experiment::Environment::kRuralP1;
  probe.mobility = experiment::Mobility::kGround;
  probe.cc = pipeline::CcKind::kNone;
  probe.probe_interval = sim::Duration::millis(200);
  const experiment::Campaign c{probe, 2};

  bench::Flights flown;
  auto mapped = probe;
  mapped.radio_map = flown.radio_map(base, spec);
  (void)flown.run(c);
  (void)flown.run(std::vector<experiment::Scenario>{mapped});
  flown.fly(exec::CampaignEngine{{.jobs = 2}});
  const auto campaign = report_bytes(flown.run(c));
  const auto map_run =
      report_bytes(flown.run(std::vector<experiment::Scenario>{mapped}));
  std::move(flown).write(dir, 2, 0.0);

  bench::Flights stored{dir};
  auto replay = mapped;
  replay.radio_map = stored.radio_map(base, spec);
  EXPECT_EQ(stored.radio_map(base, spec), replay.radio_map);  // shared
  EXPECT_NE(replay.radio_map, mapped.radio_map);              // read, not built
  EXPECT_EQ(replay.radio_map->canonical_bytes(),
            mapped.radio_map->canonical_bytes());
  (void)stored.run(c);
  (void)stored.run(std::vector<experiment::Scenario>{replay});
  stored.fly(exec::CampaignEngine{{.jobs = 2}});
  EXPECT_EQ(stored.simulated(), 0u);
  EXPECT_EQ(stored.requested(), 3u);
  EXPECT_EQ(report_bytes(stored.run(c)), campaign);
  EXPECT_EQ(report_bytes(stored.run(std::vector<experiment::Scenario>{replay})),
            map_run);

  // A pair the store lacks is an error naming it, not a flight.
  auto missing = probe;
  missing.seed = 6;
  bench::Flights again{dir};
  try {
    (void)again.run(std::vector<experiment::Scenario>{missing});
    ADD_FAILURE() << "a pair the store lacks was answered";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("rural-p1-ground-probe seed 6"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove_all(dir.parent_path());
}

TEST(CampaignEngine, ExpandGridCrossProduct) {
  exec::GridAxes axes;
  axes.envs = {experiment::Environment::kUrban,
               experiment::Environment::kRuralP1};
  axes.ccs = {pipeline::CcKind::kGcc, pipeline::CcKind::kScream,
              pipeline::CcKind::kStatic};
  const auto cells = exec::expand_grid(axes);
  ASSERT_EQ(cells.size(), 6u);
  EXPECT_EQ(cells[0].label, "urban-air-gcc");
  EXPECT_EQ(cells[0].scenario.env, experiment::Environment::kUrban);
  EXPECT_EQ(cells[5].label, "rural-p1-air-static");
  EXPECT_EQ(cells[5].scenario.cc, pipeline::CcKind::kStatic);
  // Empty axes collapse to the base scenario's value.
  experiment::Scenario base;
  base.mobility = experiment::Mobility::kGround;
  const auto single = exec::expand_grid({}, base);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].scenario.mobility, experiment::Mobility::kGround);
}

// --- SessionReport JSON round trip ---

pipeline::SessionReport faulted_report() {
  // A scenario that populates the optional report sections too: faults +
  // resilience (fault_outcomes, PLI/watchdog counters), probes
  // (rtt_by_altitude), and the C2 channel.
  experiment::Scenario s;
  s.env = experiment::Environment::kRuralP1;
  s.cc = pipeline::CcKind::kGcc;
  s.seed = 4051;
  s.c2 = true;
  s.probe_interval = sim::Duration::millis(500);
  s.resilience = true;
  s.model_reference_loss = true;
  s.faults.wan_outage(120.0, 2.0);
  s.faults.capacity_collapse(200.0, 1.0, 0.1);
  return experiment::run_scenario(s);
}

std::vector<std::uint64_t> bits(const std::vector<double>& xs) {
  std::vector<std::uint64_t> out;
  for (const double x : xs) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

// The report stores each fact once; the figure statistics are derived from
// its records at read time, so a stored run must reproduce every one of them
// bit for bit.
void expect_derived_statistics_bit_identical(
    const pipeline::SessionReport& r, const pipeline::SessionReport& back) {
  EXPECT_EQ(bits(back.handovers.het_ms()), bits(r.handovers.het_ms()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.handovers.frequency(back.duration)),
            std::bit_cast<std::uint64_t>(r.handovers.frequency(r.duration)));
  EXPECT_EQ(back.handovers.ping_pong_count(), r.handovers.ping_pong_count());
  auto ratios = [](const pipeline::SessionReport& x) {
    std::vector<double> flat;
    for (const auto& lr : metrics::latency_ratios(x.handover_owd_ms)) {
      flat.push_back(lr.before);
      flat.push_back(lr.after);
    }
    return bits(flat);
  };
  EXPECT_EQ(ratios(back), ratios(r));
  EXPECT_EQ(back.stall_duration_ms.size(), r.stall_duration_ms.size());
  const std::vector<pipeline::SessionReport> before{r};
  const std::vector<pipeline::SessionReport> after{back};
  const auto owd = experiment::pool_owd(before);
  const auto owd_back = experiment::pool_owd(after);
  const auto play = experiment::pool_playback_latency(before);
  const auto play_back = experiment::pool_playback_latency(after);
  ASSERT_FALSE(owd.empty());
  ASSERT_FALSE(play.empty());
  for (const double q : {0.0, 0.05, 0.5, 0.95, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(owd_back.quantile(q)),
              std::bit_cast<std::uint64_t>(owd.quantile(q)));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(play_back.quantile(q)),
              std::bit_cast<std::uint64_t>(play.quantile(q)));
  }
}

pipeline::SessionReport urban_report() {
  experiment::Scenario s;
  s.env = experiment::Environment::kUrban;
  s.cc = pipeline::CcKind::kGcc;
  s.seed = 4052;
  return experiment::run_scenario(s);
}

// Operator pair + LEO under an RLF storm on both operators: a bonded run
// with path switches, stalls and handovers on the primary operator.
pipeline::SessionReport three_way_report() {
  experiment::Scenario s;
  s.env = experiment::Environment::kRuralP1;
  s.cc = pipeline::CcKind::kGcc;
  s.seed = 4053;
  s.multipath = experiment::Multipath::kBondHighReliability;
  s.path_set = experiment::PathSet::kThreeWay;
  s.fault_preset = experiment::FaultPreset::kRlfStorm;
  s.faults_on_both_operators = true;
  return experiment::run_scenario(s);
}

TEST(ReportJson, RoundTripIsByteStableAndLossless) {
  const auto r = faulted_report();
  const auto doc = pipeline::report_to_json(r);
  const std::string bytes = doc.dump();
  const auto back = pipeline::report_from_json(json::parse(bytes));
  // Byte-stable: serializing the loaded report reproduces the same bytes.
  EXPECT_EQ(pipeline::report_to_json(back).dump(), bytes);
  // Spot checks across field categories.
  EXPECT_EQ(back.cc_name, r.cc_name);
  EXPECT_EQ(back.environment, r.environment);
  EXPECT_EQ(back.duration.us(), r.duration.us());
  EXPECT_EQ(back.ssim, r.ssim);
  EXPECT_EQ(back.packets_sent, r.packets_sent);
  EXPECT_EQ(back.handovers.count(), r.handovers.count());
  EXPECT_EQ(back.rtt_by_altitude, r.rtt_by_altitude);
  EXPECT_EQ(back.command_latency_ms, r.command_latency_ms);
  ASSERT_EQ(back.fault_outcomes.size(), r.fault_outcomes.size());
  ASSERT_GE(back.fault_outcomes.size(), 2u);
  for (std::size_t i = 0; i < r.fault_outcomes.size(); ++i) {
    EXPECT_EQ(back.fault_outcomes[i].event.kind, r.fault_outcomes[i].event.kind);
    EXPECT_EQ(back.fault_outcomes[i].recovery_ms,
              r.fault_outcomes[i].recovery_ms);
  }
  EXPECT_EQ(back.owd_ms, r.owd_ms);
  EXPECT_EQ(back.playback_latency_ms, r.playback_latency_ms);
  EXPECT_EQ(back.owd_per_second_ms, r.owd_per_second_ms);
  EXPECT_EQ(back.playback_latency_per_second_ms, r.playback_latency_per_second_ms);
  EXPECT_EQ(back.handover_owd_ms, r.handover_owd_ms);
  EXPECT_EQ(back.target_bitrate_highs_bps, r.target_bitrate_highs_bps);
  EXPECT_EQ(back.capacity_mbps, r.capacity_mbps);
  EXPECT_EQ(back.losses_per_second, r.losses_per_second);
  EXPECT_EQ(back.telemetry_latency_ms, r.telemetry_latency_ms);
  expect_derived_statistics_bit_identical(r, back);

  // A plain single-path urban flight and a bonded three-way flight too.
  for (const auto& flight : {urban_report(), three_way_report()}) {
    SCOPED_TRACE(flight.environment + " " + flight.cc_name);
    ASSERT_GT(flight.handovers.count(), 0u);
    ASSERT_FALSE(metrics::latency_ratios(flight.handover_owd_ms).empty());
    const std::string flight_bytes = pipeline::report_to_json(flight).dump();
    const auto loaded = pipeline::report_from_json(json::parse(flight_bytes));
    EXPECT_EQ(pipeline::report_to_json(loaded).dump(), flight_bytes);
    expect_derived_statistics_bit_identical(flight, loaded);
  }
}

TEST(ReportJson, RejectsWrongSchema) {
  // 7 is the last version that stored the derived statistics, 9 the last
  // that stored per-sample bitrate, capacity, loss and C2 series.
  for (const std::int64_t schema : {7, 9, 999}) {
    auto doc = pipeline::report_to_json(pipeline::SessionReport{});
    doc.set("schema", schema);
    try {
      (void)pipeline::report_from_json(doc);
      ADD_FAILURE() << "schema " << schema << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string{e.what()},
                "report_json: unsupported schema version " +
                    std::to_string(schema));
    }
  }
  EXPECT_THROW((void)pipeline::report_from_json(json::parse("{}")),
               std::runtime_error);
}

TEST(ReportJson, RejectsOutOfRangeIntegers) {
  const auto good = pipeline::report_to_json(pipeline::SessionReport{});
  const std::pair<const char*, json::Value> cases[] = {
      {"frames_encoded", std::int64_t{4294967301}},  // above uint32
      {"packets_sent", std::int64_t{-1}},            // negative unsigned
      {"max_ladder_level", std::int64_t{1} << 40},   // above int
      {"duration_us", 1e300},                        // beyond int64
      {"cells_seen", 2.5},                           // not an integer
  };
  for (const auto& [key, value] : cases) {
    SCOPED_TRACE(key);
    auto doc = good;
    doc.set(key, value);
    try {
      (void)pipeline::report_from_json(doc);
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find(key), std::string::npos) << e.what();
    }
  }
}

// The bitrate highs must rise strictly and never go back in time: anything
// else cannot come from metrics::Highs, and ramp_up_seconds would misread it.
TEST(ReportJson, RejectsHighsThatDoNotRise) {
  auto r = pipeline::SessionReport{};
  r.target_bitrate_highs_bps.add(sim::TimePoint::from_us(0), 1e6);
  r.target_bitrate_highs_bps.add(sim::TimePoint::from_us(40'000), 2e6);
  const auto good = pipeline::report_to_json(r);
  EXPECT_EQ(pipeline::report_from_json(good).target_bitrate_highs_bps,
            r.target_bitrate_highs_bps);
  const std::pair<json::Value, json::Value> cases[] = {
      {json::parse("[0, 40000]"), json::parse("[2000000, 1000000]")},  // falls
      {json::parse("[0, 40000]"), json::parse("[1000000, 1000000]")},  // flat
      {json::parse("[40000, 0]"), json::parse("[1000000, 2000000]")},  // back in time
  };
  for (const auto& [t_us, values] : cases) {
    auto doc = good;
    auto highs = doc.at("target_bitrate_highs_bps");
    highs.set("t_us", t_us);
    highs.set("values", values);
    doc.set("target_bitrate_highs_bps", highs);
    EXPECT_THROW((void)pipeline::report_from_json(doc), std::runtime_error)
        << highs.dump();
  }
}

// --- Artifact store ---

class RunArtifactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path{::testing::TempDir()} /
           ("rpv_exec_store_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(RunArtifactTest, WriteThenLoadRoundTripsCampaign) {
  exec::GridAxes axes;
  axes.envs = {experiment::Environment::kRuralP1};
  axes.mobilities = {experiment::Mobility::kAir,
                     experiment::Mobility::kGround};
  experiment::Scenario base;
  base.cc = pipeline::CcKind::kNone;
  base.probe_interval = sim::Duration::millis(200);
  const auto cells = exec::expand_grid(axes, base);
  ASSERT_EQ(cells.size(), 2u);

  const exec::CampaignEngine engine{{.jobs = 2}};
  const auto result = engine.run_grid(cells, /*runs=*/2, /*base_seed=*/31);

  exec::CampaignManifest manifest;
  manifest.name = "probe-mini";
  manifest.git_describe = exec::current_git_describe();
  manifest.runs_per_cell = 2;
  manifest.jobs = result.jobs;
  manifest.wall_seconds = result.wall_seconds;
  const exec::RunArtifactStore store{dir_};
  const auto campaign_dir = store.write_campaign(manifest, result);

  // Manifest contents.
  EXPECT_TRUE(std::filesystem::exists(campaign_dir / "manifest.json"));
  const auto doc =
      json::parse(*json::read_file((campaign_dir / "manifest.json").string()));
  EXPECT_EQ(doc.at("schema").as_i64(), 2);
  EXPECT_EQ(doc.at("name").as_string(), "probe-mini");
  EXPECT_FALSE(doc.at("git").as_string().empty());
  EXPECT_EQ(doc.at("runs_per_cell").as_i64(), 2);
  EXPECT_EQ(doc.at("jobs").as_i64(), result.jobs);
  ASSERT_EQ(doc.at("cells").items().size(), 2u);
  const auto& cell0 = doc.at("cells").items()[0];
  EXPECT_EQ(cell0.at("label").as_string(), "rural-p1-air-probe");
  EXPECT_EQ(cell0.at("scenario").at("environment").as_string(), "rural-p1");
  EXPECT_EQ(cell0.at("scenario").at("probe_interval_us").as_i64(), 200000);
  ASSERT_EQ(cell0.at("runs").items().size(), 2u);
  EXPECT_EQ(cell0.at("runs").items()[0].at("seed").as_u64(), 31u);
  EXPECT_EQ(cell0.at("runs").items()[1].at("seed").as_u64(), 31u + 7919u);
  for (const auto& rj : cell0.at("runs").items()) {
    EXPECT_TRUE(std::filesystem::exists(campaign_dir /
                                        rj.at("file").as_string()));
  }

  // Loader: stored reports reproduce the in-memory ones byte for byte.
  const auto loaded = exec::RunArtifactStore::load_campaign(campaign_dir);
  ASSERT_EQ(loaded.cells.size(), result.cells.size());
  for (std::size_t c = 0; c < loaded.cells.size(); ++c) {
    EXPECT_EQ(loaded.cells[c].cell.label, result.cells[c].cell.label);
    EXPECT_TRUE(loaded.cells[c].cell.scenario == result.cells[c].cell.scenario);
    EXPECT_EQ(loaded.cells[c].seeds, result.cells[c].seeds);
    ASSERT_EQ(loaded.cells[c].reports.size(), result.cells[c].reports.size());
    for (std::size_t i = 0; i < loaded.cells[c].reports.size(); ++i) {
      EXPECT_EQ(pipeline::report_to_json(loaded.cells[c].reports[i]).dump(),
                pipeline::report_to_json(result.cells[c].reports[i]).dump());
    }
  }

  // A stored run tampered with an integer its member cannot hold makes the
  // load fail instead of wrapping (4294967301 used to reload as 5).
  const auto run_path =
      campaign_dir / cell0.at("runs").items()[0].at("file").as_string();
  auto run = json::parse(*json::read_file(run_path.string()));
  run.set("frames_encoded", std::int64_t{4294967301});
  ASSERT_TRUE(json::write_file(run_path.string(), run, -1));
  EXPECT_THROW((void)exec::RunArtifactStore::load_campaign(campaign_dir),
               std::runtime_error);
}

TEST_F(RunArtifactTest, RejectsBadCampaignNames) {
  const exec::RunArtifactStore store{dir_};
  exec::CampaignManifest manifest;
  manifest.name = "../escape";
  EXPECT_THROW((void)store.write_campaign(manifest, {}),
               std::invalid_argument);
  manifest.name = "";
  EXPECT_THROW((void)store.write_campaign(manifest, {}),
               std::invalid_argument);
}

TEST_F(RunArtifactTest, LoadFromMissingDirectoryThrows) {
  EXPECT_THROW((void)exec::RunArtifactStore::load_campaign(dir_ / "nope"),
               std::runtime_error);
}

// A small map to carry: two 50 m columns, one measurement.
std::shared_ptr<const radiomap::RadioMap> small_map() {
  radiomap::GridSpec spec;
  spec.nx = 2;
  auto map = std::make_shared<radiomap::RadioMap>(spec);
  map->observe_measurement({60.0, 10.0, 5.0}, 3, -90.0, 12.5, false);
  return map;
}

// Every Scenario field, changed in turn, survives write_campaign ->
// load_campaign: the manifest's field list binds all 22 (radio_map as the
// file of the campaign's map entry).
TEST_F(RunArtifactTest, EveryScenarioFieldRoundTripsThroughTheManifest) {
  const experiment::Scenario base;
  const exec::WarmUpMap warm_up{base, small_map()};
  std::vector<experiment::Scenario> variants(23, base);
  auto v = variants.begin() + 1;
  (v++)->env = experiment::Environment::kRuralP2;
  (v++)->mobility = experiment::Mobility::kGround;
  (v++)->cc = pipeline::CcKind::kScream;
  (v++)->seed = 77;
  (v++)->probe_interval = sim::Duration::millis(250);
  (v++)->rfc8888_ack_window = 64;
  (v++)->drop_on_latency = true;
  (v++)->aqm = true;
  (v++)->daps = true;
  (v++)->tech = experiment::AccessTech::k5gSa;
  (v++)->fec_group_size = 5;
  (v++)->c2 = true;
  (v++)->faults.rlf(60.0).capacity_collapse(90.0, 3.0, 0.25).wan_outage(95, 2);
  (v++)->fault_preset = experiment::FaultPreset::kChaos;
  (v++)->faults_on_both_operators = true;
  (v++)->multipath = experiment::Multipath::kBondHighReliability;
  (v++)->path_set = experiment::PathSet::kThreeWayMesh;
  (v++)->resilience = true;
  (v++)->policy = experiment::Policy::kPlanned;
  (v++)->radio_map = warm_up.map;
  (v++)->model_reference_loss = true;
  (v++)->observe = true;
  ASSERT_EQ(v, variants.end());

  exec::GridResult grid;
  for (const auto& s : variants) {
    EXPECT_TRUE(&s == &variants.front() || !(s == base));
    grid.cells.push_back({{experiment::scenario_label(s), s}, {}, {}});
  }
  exec::CampaignManifest manifest;
  manifest.name = "fields";
  const auto dir =
      exec::RunArtifactStore{dir_}.write_campaign(manifest, grid, {warm_up});
  const auto loaded = exec::RunArtifactStore::load_campaign(dir);

  ASSERT_EQ(loaded.maps.size(), 1u);
  EXPECT_TRUE(loaded.maps[0].base == base);
  EXPECT_EQ(loaded.maps[0].map->canonical_bytes(),
            warm_up.map->canonical_bytes());
  ASSERT_EQ(loaded.cells.size(), variants.size());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    auto expected = variants[i];
    if (expected.radio_map) expected.radio_map = loaded.maps[0].map;
    EXPECT_TRUE(loaded.cells[i].cell.scenario == expected) << "field " << i;
  }

  // A map-carrying cell whose map the campaign does not list is refused.
  EXPECT_THROW((void)exec::RunArtifactStore{dir_}.write_campaign(manifest, grid),
               std::invalid_argument);
}

// Each malformed manifest throws an error naming what is wrong.
TEST_F(RunArtifactTest, MalformedManifestsThrowNamingTheKey) {
  exec::GridResult grid;
  experiment::Scenario s;
  s.faults.rlf(60.0);
  grid.cells.push_back({{experiment::scenario_label(s), s}, {}, {}});
  exec::CampaignManifest manifest;
  manifest.name = "bad";
  const auto dir = exec::RunArtifactStore{dir_}.write_campaign(manifest, grid);
  const auto path = (dir / "manifest.json").string();
  const auto good = json::parse(*json::read_file(path));

  // `edit` rewrites cells[0].scenario; `expected` must appear in the error.
  const auto rejects = [&](const std::string& expected, auto edit) {
    auto doc = good;
    auto cell = doc.at("cells").items()[0];
    auto scenario = cell.at("scenario");
    edit(doc, scenario);
    cell.set("scenario", scenario);
    auto cells = json::Value::array();
    cells.push_back(cell);
    doc.set("cells", cells);
    ASSERT_TRUE(json::write_file(path, doc, 2));
    try {
      (void)exec::RunArtifactStore::load_campaign(dir);
      ADD_FAILURE() << "loaded a manifest with a bad " << expected;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find(expected), std::string::npos)
          << e.what();
    }
  };
  rejects("schema version 1",
          [](json::Value& doc, json::Value&) { doc.set("schema", 1); });
  rejects("environment", [](json::Value&, json::Value& sc) {
    sc.set("environment", "mars");
  });
  rejects("'cc'", [](json::Value&, json::Value& sc) {
    auto pruned = json::Value::object();
    for (const auto& m : sc.members()) {
      if (m.key != "cc") pruned.set(m.key, m.value);
    }
    sc = pruned;
  });
  rejects("rfc8888_ack_window", [](json::Value&, json::Value& sc) {
    sc.set("rfc8888_ack_window", std::int64_t{1} << 40);
  });
  rejects("faults", [](json::Value&, json::Value& sc) {
    // A capacity collapse needs a duration: FaultSchedule::add says no.
    sc.set("faults", json::parse(R"([{"kind": "capacity-collapse",
        "at_us": 1000000, "duration_us": 0, "magnitude": 0.5}])"));
  });
  rejects("radio_map", [](json::Value&, json::Value& sc) {
    sc.set("radio_map", "maps/none.map.json");
  });
}

// --- Bench CLI option parsing (bench_common.hpp) ---

// A registry shaped like rpv_figures': a figure, a grid and the fleet.
constexpr bench::Figure kIds[] = {
    {"fig", nullptr},
    {"grid", nullptr, bench::kRuns | bench::kObserve, false},
    {"fleet", nullptr, bench::kFleetFlags, false},
};

bench::Options parse(const std::vector<std::string>& args) {
  return bench::parse_options(args, kIds);
}

TEST(BenchOptions, ParsesValidFlags) {
  const auto opts = parse({"--runs", "4", "--seed", "99", "--jobs", "2"});
  ASSERT_TRUE(opts.runs.has_value());
  EXPECT_EQ(*opts.runs, 4);
  ASSERT_TRUE(opts.seed.has_value());
  EXPECT_EQ(*opts.seed, 99u);
  EXPECT_EQ(opts.jobs, 2);
  // Defaults survive when nothing is passed.
  const auto empty = parse({});
  EXPECT_FALSE(empty.runs.has_value());
  EXPECT_FALSE(empty.seed.has_value());
  EXPECT_EQ(empty.jobs, 0);
  ASSERT_EQ(empty.selected.size(), 1u);  // the by-default ids
  EXPECT_EQ(empty.selected[0], &kIds[0]);

  const auto all = parse({"--only", "fleet,fig,grid", "--out", "a/b",
                          "--observe", "--sessions", "1,8", "--env",
                          "rural-p2", "--horizon", "30"});
  ASSERT_EQ(all.selected.size(), 3u);  // registry order
  EXPECT_EQ(all.selected[2], &kIds[2]);
  EXPECT_EQ(all.out, std::filesystem::path{"a/b"});
  EXPECT_TRUE(all.observe);
  EXPECT_EQ(all.sessions, (std::vector<int>{1, 8}));
  EXPECT_EQ(all.envs, std::vector{experiment::Environment::kRuralP2});
  EXPECT_DOUBLE_EQ(all.horizon_sec, 30.0);
  EXPECT_EQ(parse({"--only", "fleet", "--load", "s"}).load,
            std::filesystem::path{"s"});
}

TEST(BenchOptions, RejectsNegativeCountsAndSeeds) {
  EXPECT_THROW((void)parse({"--runs", "-3"}),
               std::invalid_argument);
  EXPECT_THROW((void)parse({"--runs", "0"}),
               std::invalid_argument);
  EXPECT_THROW((void)parse({"--seed", "-5"}),
               std::invalid_argument);
  EXPECT_THROW((void)parse({"--jobs", "-1"}),
               std::invalid_argument);
  // --jobs 0 means "one worker per hardware thread" and stays legal.
  EXPECT_EQ(parse({"--jobs", "0"}).jobs, 0);
}

TEST(BenchOptions, RejectsMalformedAndUnknownArguments) {
  EXPECT_THROW((void)parse({"--runs"}), std::invalid_argument);
  EXPECT_THROW((void)parse({"--runs", "five"}),
               std::invalid_argument);
  EXPECT_THROW((void)parse({"--runs", "3x"}),
               std::invalid_argument);
  EXPECT_THROW((void)parse({"--bogus"}), std::invalid_argument);
  EXPECT_THROW((void)parse({"--only", "bogus"}), std::invalid_argument);
  EXPECT_THROW((void)parse({"--only", "fig,"}), std::invalid_argument);
  EXPECT_THROW((void)parse({"--only", ""}), std::invalid_argument);
}

// A flag that none of the selected ids reads is an error, not a no-op.
TEST(BenchOptions, RejectsFleetFlagsItsSelectionDoesNotRead) {
  const auto rejects = [](const std::vector<std::string>& args,
                          const std::string& expected) {
    try {
      (void)parse(args);
      ADD_FAILURE() << "accepted " << args.front();
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(expected), std::string::npos)
          << e.what();
    }
  };
  rejects({"--only", "fleet", "--sessions", "4,4"}, "4 twice");
  rejects({"--only", "fleet", "--env", "mars"}, "mars");
  rejects({"--env", "urban"}, "--env is read by none");
  rejects({"--only", "fig,grid", "--horizon", "5"}, "--horizon is read by none");
  rejects({"--only", "fleet", "--runs", "2"}, "--runs is read by none");
  rejects({"--observe"}, "--observe is read by none");
  EXPECT_NO_THROW((void)parse({"--only", "fleet,grid", "--runs", "2"}));
}

TEST(BenchOptions, ParseNumberTakesOnlyWholeValuesAtOrAboveTheMinimum) {
  EXPECT_EQ(parse_number<std::uint64_t>("--events", "4000000", 1),
            4'000'000u);
  EXPECT_EQ(parse_number<std::uint64_t>("--seed", "0", 0), 0u);
  EXPECT_EQ(parse_number("--sizes", "64", 1), 64);
  EXPECT_DOUBLE_EQ(parse_number("--horizon", "0.5", 0.0), 0.5);
  // A prefix is not a number: stoull would read "3e6" as 3 and "2x" as 2.
  for (const char* bad : {"3e6", "2x", "", " 5", "+5", "five", "0x10", "1.5",
                          "99999999999999999999"}) {
    EXPECT_THROW((void)parse_number<std::uint64_t>("--events", bad, 1),
                 std::invalid_argument)
        << bad;
  }
  // Counts must be positive and seeds non-negative; a sign never wraps.
  EXPECT_THROW((void)parse_number<std::uint64_t>("--events", "0", 1),
               std::invalid_argument);
  EXPECT_THROW((void)parse_number<std::uint64_t>("--events", "-5", 1),
               std::invalid_argument);
  EXPECT_THROW((void)parse_number<std::uint64_t>("--seed", "-5", 0),
               std::invalid_argument);
  EXPECT_THROW((void)parse_number("--sizes", "-2", 1),
               std::invalid_argument);
  // "-0" is at least 0 as a value, but a sign is rejected as text.
  EXPECT_THROW((void)parse_number("--jobs", "-0", 0), std::invalid_argument);
  for (const char* bad : {"60s", "-1", "-0", "nan", "inf", ""}) {
    EXPECT_THROW((void)parse_number("--horizon", bad, 0.0),
                 std::invalid_argument)
        << bad;
  }
  try {
    (void)parse_number("--sizes", "2x", 1);
    ADD_FAILURE() << "2x parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("--sizes"), std::string::npos);
  }
}

}  // namespace
}  // namespace rpv
