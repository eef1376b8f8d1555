#include "predict/proactive_adapter.hpp"

#include <algorithm>

#include "sim/validate.hpp"

namespace rpv::predict {

ProactiveAdapter::ProactiveAdapter(ProactiveConfig cfg)
    : cfg_{cfg},
      predictor_{cfg.ho},
      forecaster_{cfg.capacity},
      owd_{cfg.owd_alpha},
      goodput_{cfg.goodput_alpha} {
  validate(cfg_.dip_factor > 0.0 && cfg_.dip_factor <= 1.0,
           "ProactiveAdapter: dip_factor must be in (0, 1]");
  validate(cfg_.min_rate_bps > 0.0,
           "ProactiveAdapter: min_rate_bps must be > 0");
  validate(cfg_.flush_queue_ms >= 0.0,
           "ProactiveAdapter: flush_queue_ms must be >= 0");
  validate(cfg_.post_ho_guard >= sim::Duration::zero(),
           "ProactiveAdapter: post_ho_guard must be >= 0");
}

void ProactiveAdapter::on_link_measurement(sim::TimePoint t,
                                           const obs::MeasurementPayload& m) {
  // Margin = serving - best neighbor. With no neighbor measured the margin is
  // effectively open-ended; feed the predictor a comfortably positive value
  // so the trend filter relaxes instead of extrapolating stale decay.
  const double margin_db =
      m.neighbor_rsrp_dbm <= -199.0
          ? 4.0 * cfg_.ho.hysteresis_db
          : m.serving_rsrp_dbm - m.neighbor_rsrp_dbm;
  predictor_.on_margin(t, margin_db);
  if (m.ho_triggered) {
    const auto het = sim::Duration::micros(m.het_us);
    predictor_.on_handover(t, het);
    ho_complete_at_ = t + het;
    post_guard_until_ = ho_complete_at_ + cfg_.post_ho_guard;
    flush_armed_ = true;
  }
  in_handover_ = m.in_handover;
  forecaster_.on_sample(m.capacity_mbps);

  // Count dip-window entries (rising edges only).
  const bool in_dip = cfg_.proactive && dip_window_active(t);
  if (in_dip && !was_in_dip_) ++dip_windows_;
  was_in_dip_ = in_dip;
}

void ProactiveAdapter::on_owd_sample(sim::TimePoint, double owd_ms) {
  owd_.update(owd_ms);
}

void ProactiveAdapter::on_goodput_sample(sim::TimePoint, double mbps) {
  goodput_.update(mbps);
}

bool ProactiveAdapter::dip_window_active(sim::TimePoint now) const {
  return predictor_.armed(now) || in_handover_ || now < post_guard_until_;
}

double ProactiveAdapter::bitrate_cap_bps(sim::TimePoint now) const {
  if (!cfg_.proactive || !dip_window_active(now)) {
    return std::numeric_limits<double>::infinity();
  }
  // While the bearer is actually interrupted (break-before-make) every bit
  // encoded just deepens the backlog that must drain before fresh frames get
  // through, so idle at the floor; before and after the HET window the dip
  // tracks a fraction of the forecast capacity instead.
  if (in_handover_) return cfg_.min_rate_bps;
  const double forecast_bps = forecaster_.forecast_mbps() * 1e6;
  return std::max(cfg_.dip_factor * forecast_bps, cfg_.min_rate_bps);
}

bool ProactiveAdapter::defer_keyframe(sim::TimePoint now) const {
  return cfg_.proactive && dip_window_active(now);
}

bool ProactiveAdapter::should_flush(sim::TimePoint now, double queue_delay_ms) {
  if (!cfg_.proactive || !flush_armed_ || now < ho_complete_at_) return false;
  // The bearer is back: either the backlog warrants a flush or it does not;
  // either way this handover's flush opportunity is spent.
  flush_armed_ = false;
  if (queue_delay_ms > cfg_.flush_queue_ms) {
    ++proactive_flushes_;
    return true;
  }
  return false;
}

bool ProactiveAdapter::ho_imminent(sim::TimePoint now) const {
  return predictor_.armed(now) || in_handover_;
}

void ProactiveAdapter::finish() { predictor_.finish(); }

PredictionStats ProactiveAdapter::stats() const {
  PredictionStats s;
  s.enabled = true;
  s.proactive = cfg_.proactive;
  s.ho_predicted = predictor_.predicted();
  s.ho_true_positives = predictor_.true_positives();
  s.ho_false_positives = predictor_.false_positives();
  s.ho_missed = predictor_.missed();
  s.ho_lead_time_ms = predictor_.lead_times_ms();
  s.map_prior = predictor_.has_map_prior();
  s.map_prior_arms = predictor_.map_prior_arms();
  s.capacity_mae_mbps = forecaster_.mae_mbps();
  s.capacity_samples = forecaster_.samples_scored();
  s.dip_windows = dip_windows_;
  s.keyframes_deferred = keyframes_deferred_;
  s.proactive_flushes = proactive_flushes_;
  s.predictive_switches = predictive_switches_;
  return s;
}

}  // namespace rpv::predict
