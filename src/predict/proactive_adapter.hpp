// ProactiveAdapter — the policy layer that turns predictions into actions.
//
// One adapter observes one cellular link. It is always instrumented (the
// estimators and predictors run on every session so reports carry prediction
// quality), but it only *acts* — bitrate dip, keyframe deferral, post-HO
// flush, predictive path switch — when `proactive` is set. All state is
// deterministic and RNG-free, so enabling it never perturbs the simulation's
// random streams.
#pragma once

#include <cstdint>
#include <limits>

#include "obs/event.hpp"
#include "predict/estimators.hpp"
#include "predict/link_predictor.hpp"
#include "predict/stats.hpp"
#include "sim/time.hpp"

namespace rpv::predict {

struct ProactiveConfig {
  // When false the adapter only observes; no policy hooks fire.
  bool proactive = false;

  HandoverPredictorConfig ho;
  CapacityForecasterConfig capacity;

  // Learned radio map attached as the HO predictor's spatial prior
  // (borrowed, may be null; the scenario owner guarantees lifetime). The
  // session pairs it with its trajectory via set_map_prior().
  const radiomap::RadioMap* map_prior = nullptr;

  // During a dip window the encoder target is capped at
  // dip_factor * forecast capacity (but never below min_rate_bps).
  double dip_factor = 0.7;
  double min_rate_bps = 2e6;
  // Keep the dip (and keyframe deferral) up for this long after the HO
  // completes, while the queue drains and capacity recovers from cell edge.
  sim::Duration post_ho_guard = sim::Duration::millis(400);
  // Post-HO recovery flush fires when the sender pacing queue holds more
  // than this much delay once the bearer is back.
  double flush_queue_ms = 120.0;

  // Smoothing for the observational OWD / goodput estimators.
  double owd_alpha = 0.2;
  double goodput_alpha = 0.3;
};

class ProactiveAdapter {
 public:
  explicit ProactiveAdapter(ProactiveConfig cfg = {});

  // --- Sample feeds ---
  void on_link_measurement(sim::TimePoint t, const obs::MeasurementPayload& m);
  void on_owd_sample(sim::TimePoint t, double owd_ms);
  void on_goodput_sample(sim::TimePoint t, double mbps);

  // --- Policy surface (no-ops unless cfg.proactive) ---
  // Cap for the encoder target during a predicted/actual HO window;
  // +infinity when no dip is active.
  [[nodiscard]] double bitrate_cap_bps(sim::TimePoint now) const;
  // True while scheduling a keyframe would land it in the HET window.
  [[nodiscard]] bool defer_keyframe(sim::TimePoint now) const;
  // One-shot: true once per handover, when the bearer is back and the sender
  // queue still holds more than flush_queue_ms of backlog.
  [[nodiscard]] bool should_flush(sim::TimePoint now, double queue_delay_ms);
  // Predictive failover signal for multipath: an HO is predicted or running.
  [[nodiscard]] bool ho_imminent(sim::TimePoint now) const;

  // Called by the actuators when they take the corresponding action.
  void note_keyframe_deferred() { ++keyframes_deferred_; }
  void note_predictive_switch() { ++predictive_switches_; }

  // --- Introspection ---
  [[nodiscard]] bool proactive() const { return cfg_.proactive; }
  [[nodiscard]] double forecast_capacity_mbps() const {
    return forecaster_.forecast_mbps();
  }
  // False until the Holt filter has enough samples to extrapolate (the
  // bonded FEC controller ignores the forecast until then).
  [[nodiscard]] bool forecast_ready() const { return forecaster_.ready(); }
  [[nodiscard]] double owd_ewma_ms() const { return owd_.value(); }
  [[nodiscard]] double goodput_ewma_mbps() const { return goodput_.value(); }
  [[nodiscard]] const HandoverPredictor& ho_predictor() const {
    return predictor_;
  }

  // Attach a learned radio map + flight trajectory as the HO predictor's
  // spatial prior (rpv::radiomap; both borrowed, null detaches). Call before
  // the run starts; instrumentation-only under a reactive policy.
  void set_map_prior(const radiomap::RadioMap* map,
                     const geo::Trajectory* trajectory) {
    predictor_.set_map_prior(map, trajectory);
  }

  // Resolve the still-armed prediction (if any) and return the final stats.
  void finish();
  [[nodiscard]] PredictionStats stats() const;

 private:
  [[nodiscard]] bool dip_window_active(sim::TimePoint now) const;

  ProactiveConfig cfg_;
  HandoverPredictor predictor_;
  CapacityForecaster forecaster_;
  Ewma owd_;
  Ewma goodput_;

  bool in_handover_ = false;
  sim::TimePoint ho_complete_at_ = sim::TimePoint::never();
  sim::TimePoint post_guard_until_ = sim::TimePoint::origin();
  bool flush_armed_ = false;
  bool was_in_dip_ = false;

  std::uint64_t dip_windows_ = 0;
  std::uint64_t keyframes_deferred_ = 0;
  std::uint64_t proactive_flushes_ = 0;
  std::uint64_t predictive_switches_ = 0;
};

}  // namespace rpv::predict
