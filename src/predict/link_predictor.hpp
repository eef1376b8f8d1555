// Link-quality forecasting over the cellular measurement clock.
//
// The paper's core operational finding is that handovers and pre-HO signal
// decay cause the latency spikes and stalls the reactive controllers only
// respond to after the damage is done. Both predictors here consume the same
// per-tick radio measurements the A3 machinery sees, so anything they
// anticipate is information a real UE modem already has:
//
//  * HandoverPredictor watches the serving-vs-best-neighbor RSRP margin
//    through a Holt trend filter and arms an "HO imminent" prediction when
//    the extrapolated margin crosses the A3 hysteresis within the forecast
//    horizon — i.e. before the time-to-trigger clock even starts.
//  * CapacityForecaster tracks the achievable uplink through the same filter
//    and extrapolates a short-horizon capacity estimate, scoring its own
//    one-step-ahead MAE as it goes.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/trajectory.hpp"
#include "predict/estimators.hpp"
#include "radiomap/radio_map.hpp"
#include "sim/time.hpp"

namespace rpv::predict {

struct HandoverPredictorConfig {
  // Mirror of the A3 hysteresis the HandoverController triggers on.
  double hysteresis_db = 3.0;
  // Arm when the forecast margin drops within this guard of -hysteresis
  // (predicting slightly early costs a short dip; predicting late costs a
  // stall, so the guard biases toward early).
  double margin_guard_db = 0.5;
  // Holt extrapolation depth, in measurement ticks (~100 ms each).
  double forecast_steps = 8.0;
  // How long an armed prediction stays valid before it scores as a false
  // positive. Covers time-to-trigger plus typical margin-decay time.
  sim::Duration horizon = sim::Duration::millis(2500);
  double holt_alpha = 0.45;
  double holt_beta = 0.25;

  // --- Radio-map prior (active only via set_map_prior) ---
  // A voxel whose learned HO-trigger rate (per measurement tick) reaches the
  // threshold is "hot": while the UAV's trajectory leads into a hot voxel,
  // the Holt extrapolation looks `map_forecast_boost` times deeper and an
  // armed prediction's horizon stretches by `map_horizon_boost`, so decays
  // the reactive filter would catch late get armed earlier — without the
  // prior ever arming on a flat margin (precision is preserved: the margin
  // still has to cross the trigger line, just at a deeper extrapolation).
  double map_risk_threshold = 0.02;
  double map_forecast_boost = 3.0;
  double map_horizon_boost = 1.5;
  // How far ahead along the trajectory the upcoming voxel is sampled (s).
  double map_lookahead_s = 3.0;
};

// Deterministic online predictor + self-scorer. Feed every measurement tick
// through on_margin(); report actual handovers through on_handover(); call
// finish() once at the end of the run so a still-armed prediction is not
// left unscored.
class HandoverPredictor {
 public:
  explicit HandoverPredictor(HandoverPredictorConfig cfg = {});

  // One measurement tick: margin = serving RSRP - best neighbor RSRP (dB).
  void on_margin(sim::TimePoint now, double margin_db);

  // An A3 handover actually triggered (scores the armed prediction, if any)
  // and will hold the bearer for `het`.
  void on_handover(sim::TimePoint now, sim::Duration het);

  // End of run: drop a still-armed, not-yet-expired prediction (it is
  // neither confirmed nor refuted).
  void finish();

  // Attach a learned radio map + the flight trajectory as a spatial prior
  // (both borrowed; null detaches). Purely deterministic: the prior only
  // deepens the forecast in learned HO zones, it never adds randomness.
  void set_map_prior(const radiomap::RadioMap* map,
                     const geo::Trajectory* trajectory);
  [[nodiscard]] bool has_map_prior() const {
    return map_ != nullptr && trajectory_ != nullptr;
  }
  // Arms that only the deepened (map-boosted) forecast reached — the base
  // filter alone would have armed later or not at all.
  [[nodiscard]] std::uint64_t map_prior_arms() const { return map_prior_arms_; }

  // True while an armed prediction's horizon is open.
  [[nodiscard]] bool armed(sim::TimePoint now) const {
    return armed_ && now <= expires_at_;
  }
  // Heuristic confidence of the armed prediction in [0, 1].
  [[nodiscard]] double confidence() const { return confidence_; }

  [[nodiscard]] std::uint64_t predicted() const { return predicted_; }
  [[nodiscard]] std::uint64_t true_positives() const { return true_positives_; }
  [[nodiscard]] std::uint64_t false_positives() const { return false_positives_; }
  [[nodiscard]] std::uint64_t missed() const { return missed_; }
  [[nodiscard]] const std::vector<double>& lead_times_ms() const {
    return lead_times_ms_;
  }

 private:
  void expire(sim::TimePoint now);

  HandoverPredictorConfig cfg_;
  HoltFilter margin_;
  const radiomap::RadioMap* map_ = nullptr;
  const geo::Trajectory* trajectory_ = nullptr;
  std::uint64_t map_prior_arms_ = 0;
  bool armed_ = false;
  double confidence_ = 0.0;
  sim::TimePoint armed_at_ = sim::TimePoint::never();
  sim::TimePoint expires_at_ = sim::TimePoint::never();
  sim::TimePoint suppress_until_ = sim::TimePoint::origin();  // during HET

  std::uint64_t predicted_ = 0;
  std::uint64_t true_positives_ = 0;
  std::uint64_t false_positives_ = 0;
  std::uint64_t missed_ = 0;
  std::vector<double> lead_times_ms_;
};

struct CapacityForecasterConfig {
  // Holt extrapolation depth for the actionable forecast, in ticks.
  double forecast_steps = 5.0;
  double holt_alpha = 0.4;
  double holt_beta = 0.2;
  // The forecast never drops below this floor (a zero-capacity forecast
  // would starve the bitrate dip entirely).
  double floor_mbps = 0.5;
};

// Short-horizon uplink-capacity forecast with built-in accuracy accounting:
// every sample first scores the previous tick's one-step-ahead forecast,
// then updates the filter.
class CapacityForecaster {
 public:
  explicit CapacityForecaster(CapacityForecasterConfig cfg = {});

  void on_sample(double capacity_mbps);

  // Extrapolated capacity `forecast_steps` ticks ahead, floored.
  [[nodiscard]] double forecast_mbps() const;
  [[nodiscard]] bool ready() const { return filter_.initialized(); }

  [[nodiscard]] double mae_mbps() const {
    return mae_n_ == 0 ? 0.0 : mae_sum_ / static_cast<double>(mae_n_);
  }
  [[nodiscard]] std::uint64_t samples_scored() const { return mae_n_; }

 private:
  CapacityForecasterConfig cfg_;
  HoltFilter filter_;
  bool have_forecast_ = false;
  double next_step_forecast_ = 0.0;
  double mae_sum_ = 0.0;
  std::uint64_t mae_n_ = 0;
};

}  // namespace rpv::predict
