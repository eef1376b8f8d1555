#include "fault/fault_schedule.hpp"

#include <algorithm>

#include "sim/validate.hpp"

namespace rpv::fault {

FaultSchedule& FaultSchedule::add(const FaultEvent& ev) {
  validate(ev.at >= sim::TimePoint::origin(),
           "FaultEvent.at must not precede the simulation origin");
  if (ev.kind != FaultKind::kRlf) {
    validate(ev.duration > sim::Duration::zero(),
             "FaultEvent.duration must be positive for " +
                 std::string{kFaultKindNames[static_cast<std::size_t>(ev.kind)]});
  }
  if (ev.kind == FaultKind::kCapacityCollapse) {
    validate(ev.magnitude >= 0.0 && ev.magnitude < 1.0,
             "capacity-collapse residual must be in [0, 1)");
  }
  const auto pos = std::upper_bound(
      events_.begin(), events_.end(), ev,
      [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  events_.insert(pos, ev);
  return *this;
}

FaultSchedule& FaultSchedule::rlf(double at_sec) {
  return add({sim::TimePoint::origin() + sim::Duration::seconds(at_sec),
              sim::Duration::zero(), FaultKind::kRlf, 0.0});
}

FaultSchedule& FaultSchedule::feedback_blackout(double at_sec,
                                                double duration_sec) {
  return add({sim::TimePoint::origin() + sim::Duration::seconds(at_sec),
              sim::Duration::seconds(duration_sec),
              FaultKind::kFeedbackBlackout, 0.0});
}

FaultSchedule& FaultSchedule::capacity_collapse(double at_sec,
                                                double duration_sec,
                                                double residual) {
  return add({sim::TimePoint::origin() + sim::Duration::seconds(at_sec),
              sim::Duration::seconds(duration_sec),
              FaultKind::kCapacityCollapse, residual});
}

FaultSchedule& FaultSchedule::wan_outage(double at_sec, double duration_sec) {
  return add({sim::TimePoint::origin() + sim::Duration::seconds(at_sec),
              sim::Duration::seconds(duration_sec), FaultKind::kWanOutage,
              0.0});
}

FaultSchedule FaultSchedule::random(std::uint64_t seed, sim::Duration horizon,
                                    double mean_gap_sec,
                                    double mean_duration_sec) {
  validate(horizon > sim::Duration::zero(), "chaos horizon must be positive");
  validate(mean_gap_sec > 0.0 && mean_duration_sec > 0.0,
           "chaos schedule means must be positive");
  sim::Rng rng{seed};
  FaultSchedule schedule;
  // Leave a short quiet lead-in so the pipeline is streaming before the
  // first fault lands.
  double t = 2.0 + rng.exponential(mean_gap_sec);
  while (t < horizon.sec()) {
    FaultEvent ev;
    ev.at = sim::TimePoint::origin() + sim::Duration::seconds(t);
    ev.kind = static_cast<FaultKind>(rng.uniform_int(0, 3));
    // Floor well above zero so every event is a real disturbance.
    ev.duration =
        sim::Duration::seconds(0.25 + rng.exponential(mean_duration_sec));
    if (ev.kind == FaultKind::kCapacityCollapse) {
      ev.magnitude = rng.uniform(0.0, 0.25);
    }
    schedule.add(ev);
    t += rng.exponential(mean_gap_sec);
  }
  return schedule;
}

}  // namespace rpv::fault
