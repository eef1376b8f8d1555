#include "metrics/cdf.hpp"
#include "metrics/handover_log.hpp"
#include "metrics/summary.hpp"
#include "metrics/text_table.hpp"
#include "metrics/time_series.hpp"

#include <algorithm>
#include <optional>

#include <gtest/gtest.h>

#include "sim/rng.hpp"

namespace rpv::metrics {
namespace {

using sim::Duration;
using sim::TimePoint;

// --- Cdf ---

TEST(Cdf, EmptyBehaviour) {
  Cdf c;
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.quantile(0.5), 0.0);
  EXPECT_EQ(c.fraction_below(10.0), 0.0);
}

TEST(Cdf, QuantilesOfKnownSet) {
  Cdf c;
  for (int i = 1; i <= 100; ++i) c.add(i);
  EXPECT_NEAR(c.median(), 50.5, 1e-9);
  EXPECT_EQ(c.min(), 1.0);
  EXPECT_EQ(c.max(), 100.0);
  EXPECT_NEAR(c.quantile(0.25), 25.75, 1e-9);
}

TEST(Cdf, MeanMatchesArithmetic) {
  Cdf c;
  c.add_all({2.0, 4.0, 6.0});
  EXPECT_DOUBLE_EQ(c.mean(), 4.0);
}

TEST(Cdf, FractionBelowAndAtLeastComplement) {
  Cdf c;
  for (int i = 1; i <= 10; ++i) c.add(i);
  EXPECT_DOUBLE_EQ(c.fraction_below(5.0), 0.5);   // values <= 5
  EXPECT_DOUBLE_EQ(c.fraction_at_least(6.0), 0.5);
  EXPECT_DOUBLE_EQ(c.fraction_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(c.fraction_below(100.0), 1.0);
}

TEST(Cdf, InterleavedAddAndQuery) {
  Cdf c;
  c.add(5.0);
  EXPECT_EQ(c.median(), 5.0);
  c.add(1.0);
  c.add(9.0);
  EXPECT_EQ(c.median(), 5.0);  // re-sorts after new samples
}

TEST(Cdf, QuantileClampsArgument) {
  Cdf c;
  c.add_all({1, 2, 3});
  EXPECT_EQ(c.quantile(-1.0), 1.0);
  EXPECT_EQ(c.quantile(2.0), 3.0);
}

// --- Summary ---

TEST(Summary, EmptyIsZeroed) {
  const auto s = Summary::of({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Summary, BasicStats) {
  const auto s = Summary::of({1, 2, 3, 4, 5});
  EXPECT_EQ(s.n, 5u);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 5.0);
  EXPECT_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
}

TEST(Summary, OutlierDetection) {
  std::vector<double> v(100, 10.0);
  v.push_back(1000.0);
  const auto s = Summary::of(v);
  EXPECT_EQ(s.outliers_hi, 1u);
  EXPECT_EQ(s.whisker_hi, 10.0);
}

TEST(Summary, UnsortedInputHandled) {
  const auto s = Summary::of({5, 1, 4, 2, 3});
  EXPECT_EQ(s.median, 3.0);
}

TEST(Summary, ToStringContainsFields) {
  const auto s = Summary::of({1, 2, 3});
  const auto str = s.to_string();
  EXPECT_NE(str.find("med="), std::string::npos);
  EXPECT_NE(str.find("n=3"), std::string::npos);
}

// --- TimeSeries ---

TEST(TimeSeries, WindowQueries) {
  TimeSeries ts;
  for (int i = 0; i < 10; ++i) {
    ts.add(TimePoint::from_us(i * 1000), static_cast<double>(i));
  }
  const auto vals = ts.values_in(TimePoint::from_us(2000), TimePoint::from_us(5000));
  EXPECT_EQ(vals, (std::vector<double>{2, 3, 4, 5}));
}

TEST(TimeSeries, MaxMinMeanInWindow) {
  TimeSeries ts;
  ts.add(TimePoint::from_us(0), 3.0);
  ts.add(TimePoint::from_us(10), 9.0);
  ts.add(TimePoint::from_us(20), 6.0);
  EXPECT_EQ(ts.max_in(TimePoint::from_us(0), TimePoint::from_us(20)), 9.0);
  EXPECT_EQ(ts.min_in(TimePoint::from_us(0), TimePoint::from_us(20)), 3.0);
  EXPECT_EQ(ts.mean_in(TimePoint::from_us(0), TimePoint::from_us(20)), 6.0);
}

TEST(TimeSeries, EmptyWindowReturnsNullopt) {
  TimeSeries ts;
  ts.add(TimePoint::from_us(100), 1.0);
  EXPECT_FALSE(ts.max_in(TimePoint::from_us(0), TimePoint::from_us(50)).has_value());
}

TEST(TimeSeries, ValuesExtraction) {
  TimeSeries ts;
  ts.add(TimePoint::from_us(1), 1.5);
  ts.add(TimePoint::from_us(2), 2.5);
  EXPECT_EQ(ts.values(), (std::vector<double>{1.5, 2.5}));
}

// --- Highs ---

// The record highs answer "first sample >= x" as a scan of the whole series
// does, for every level, on a series that climbs, falls back and climbs
// again (a rate controller's ramp, backoffs and recovery).
TEST(Highs, FirstAtLeastMatchesAScanOfEverySample) {
  sim::Rng rng{11};
  TimeSeries all;
  Highs highs;
  double level = 1e6;
  for (int i = 0; i < 5000; ++i) {
    level = std::clamp(level * rng.uniform(0.85, 1.16), 1e5, 3e7);
    const auto t = TimePoint::from_us(i * 33'333);
    all.add(t, level);
    highs.add(t, level);
  }
  ASSERT_LT(highs.samples().size(), all.count());
  for (std::size_t i = 1; i < highs.samples().size(); ++i) {
    EXPECT_GT(highs.samples()[i].value, highs.samples()[i - 1].value);
  }
  for (double x = 0.0; x <= 4e7; x += 2e4) {
    std::optional<TimePoint> first;
    for (const auto& s : all.samples()) {
      if (s.value >= x) {
        first = s.t;
        break;
      }
    }
    ASSERT_EQ(highs.first_at_least(x), first) << "x " << x;
  }
}

TEST(Highs, EqualValuesAreNoNewHigh) {
  Highs h;
  h.add(TimePoint::from_us(0), 2.0);
  h.add(TimePoint::from_us(1), 2.0);
  h.add(TimePoint::from_us(2), 1.0);
  h.add(TimePoint::from_us(3), 3.0);
  ASSERT_EQ(h.samples().size(), 2u);
  EXPECT_EQ(h.first_at_least(2.0), TimePoint::from_us(0));
  EXPECT_EQ(h.first_at_least(2.5), TimePoint::from_us(3));
  EXPECT_FALSE(h.first_at_least(3.5).has_value());
}

// --- HandoverLog ---

TEST(HandoverLog, FrequencyPerSecond) {
  HandoverLog log;
  for (int i = 0; i < 6; ++i) {
    log.record({TimePoint::from_us(i * 1'000'000), Duration::millis(20), 1u, 2u, false});
  }
  EXPECT_DOUBLE_EQ(log.frequency(Duration::seconds(60.0)), 0.1);
  EXPECT_EQ(log.frequency(Duration::zero()), 0.0);
}

TEST(HandoverLog, HetExtraction) {
  HandoverLog log;
  log.record({TimePoint::origin(), Duration::millis(25), 1u, 2u, false});
  log.record({TimePoint::origin(), Duration::millis(900), 2u, 3u, false});
  const auto het = log.het_ms();
  ASSERT_EQ(het.size(), 2u);
  EXPECT_DOUBLE_EQ(het[0], 25.0);
  EXPECT_DOUBLE_EQ(het[1], 900.0);
}

TEST(HandoverLog, PingPongCounting) {
  HandoverLog log;
  log.record({TimePoint::origin(), Duration::millis(20), 1u, 2u, false});
  log.record({TimePoint::origin(), Duration::millis(20), 2u, 1u, true});
  EXPECT_EQ(log.ping_pong_count(), 1u);
}

TEST(HandoverLog, LatencyRatiosAroundHandover) {
  HandoverLog log;
  // Handover at t = 5 s with HET 50 ms.
  log.record({TimePoint::origin() + Duration::seconds(5.0), Duration::millis(50),
              1u, 2u, false});
  HandoverWindowTracker owd{log};
  // Before the HO: latency ramps 50 -> 400 ms; after: stable 50 ms.
  for (int ms = 4000; ms < 5000; ms += 100) {
    owd.add(TimePoint::origin() + Duration::millis(ms), 50.0 + (ms - 4000) * 0.35);
  }
  for (int ms = 5050; ms < 6100; ms += 100) {
    owd.add(TimePoint::origin() + Duration::millis(ms), 50.0);
  }
  const auto ratios = latency_ratios(owd.finish());
  ASSERT_EQ(ratios.size(), 1u);
  EXPECT_GT(ratios[0].before, 5.0);
  EXPECT_NEAR(ratios[0].after, 1.0, 0.01);
}

TEST(HandoverLog, LatencyRatioSkipsEmptyWindows) {
  HandoverLog log;
  log.record({TimePoint::origin() + Duration::seconds(100.0), Duration::millis(20),
              1u, 2u, false});
  HandoverWindowTracker owd{log};  // no samples anywhere near the HO
  owd.add(TimePoint::origin(), 50.0);
  const auto windows = owd.finish();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_TRUE(latency_ratios(windows).empty());
}

// --- TextTable ---

TEST(TextTable, RendersHeaderAndRows) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "22"});
  const auto out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(TextTable, ShortRowsPadded) {
  TextTable t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NO_THROW(t.render());
}

TEST(TextTable, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

}  // namespace
}  // namespace rpv::metrics
