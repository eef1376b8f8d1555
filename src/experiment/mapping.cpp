#include "experiment/mapping.hpp"

#include "radiomap/map_sink.hpp"

namespace rpv::experiment {

radiomap::GridSpec default_map_spec() {
  radiomap::GridSpec spec;
  spec.origin = {-100.0, -100.0, 0.0};
  spec.voxel_xy_m = 50.0;
  spec.voxel_z_m = 30.0;
  spec.nx = 8;  // x in [-100, 300): the flight's leap corridor plus margin
  spec.ny = 4;  // y in [-100, 100)
  spec.nz = 5;  // z in [0, 150): separates the 40/80/120 m levels
  return spec;
}

radiomap::RadioMap build_radio_map(const Scenario& base,
                                   const radiomap::GridSpec& spec,
                                   const MapBuildConfig& cfg) {
  radiomap::RadioMap map{spec};
  for (int i = 0; i < cfg.flights; ++i) {
    Scenario s = base;
    s.policy = Policy::kReactive;
    s.radio_map.reset();
    s.multipath = Multipath::kNone;
    s.observe = false;
    s.seed = base.seed + static_cast<std::uint64_t>(i) * 7919;
    auto rng = scenario_rng(s.seed);
    auto layout = make_layout(s, rng);
    auto trajectory = radiomap::make_survey_trajectory(spec, cfg.survey);
    auto session_cfg = make_session_config(s);
    pipeline::Session session{session_cfg, std::move(layout), &trajectory,
                              environment_name(s.env) + "/survey"};
    radiomap::RadioMapSink sink{&map, &trajectory};
    session.observer().subscribe(&sink);
    (void)session.run();
  }
  return map;
}

}  // namespace rpv::experiment
