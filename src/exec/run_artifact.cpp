#include "exec/run_artifact.hpp"

#include <algorithm>
#include <array>
#include <cstdio>

#include "json/binder.hpp"
#include "obs/recorder.hpp"
#include "pipeline/report_json.hpp"
#include "sim/validate.hpp"

// The manifest's field lists (json/binder.hpp).
namespace rpv::fault {

template <class IO>
void fields(IO& io, FaultEvent& e) {
  io.field("kind", json::named(e.kind, kFaultKindNames));
  io.field("at_us", e.at);
  io.field("duration_us", e.duration);
  io.field("magnitude", e.magnitude);
}

// Stored as its event array; reading adds each event, so FaultSchedule::add
// rejects what it would reject from code.
template <class IO>
void fields(IO& io, FaultSchedule& s) {
  auto events = s.events();
  io.value(events);
  if constexpr (IO::kReading) {
    s = {};
    for (const auto& e : events) s.add(e);
  }
}

}  // namespace rpv::fault

namespace rpv::experiment {

// Every field but radio_map, which the manifest stores beside them as the
// file of the map's entry.
template <class IO>
void fields(IO& io, Scenario& s) {
  io.field("environment", json::named(s.env, kEnvironmentNames));
  io.field("mobility", json::named(s.mobility, kMobilityNames));
  io.field("cc", json::named(s.cc, pipeline::kCcNames));
  io.field("tech", json::named(s.tech, kAccessTechNames));
  io.field("seed", s.seed);
  io.field("probe_interval_us", s.probe_interval);
  io.field("rfc8888_ack_window", s.rfc8888_ack_window);
  io.field("drop_on_latency", s.drop_on_latency);
  io.field("aqm", s.aqm);
  io.field("daps", s.daps);
  io.field("fec_group_size", s.fec_group_size);
  io.field("c2", s.c2);
  io.field("resilience", s.resilience);
  io.field("policy", json::named(s.policy, kPolicyNames));
  io.field("multipath", json::named(s.multipath, kMultipathNames));
  io.field("path_set", json::named(s.path_set, kPathSetNames));
  io.field("fault_preset", json::named(s.fault_preset, kFaultPresetNames));
  io.field("faults_on_both_operators", s.faults_on_both_operators);
  io.field("model_reference_loss", s.model_reference_loss);
  io.field("observe", s.observe);
  io.field("faults", s.faults);
}

// A new Scenario field must be bound above; this size, on LP64, is the
// reminder. (A field small enough to fit in padding slips past it.)
static_assert(sizeof(void*) != 8 || sizeof(Scenario) == 128,
              "Scenario changed: bind the new field in fields() above");

}  // namespace rpv::experiment

namespace rpv::exec {

namespace {

constexpr int kManifestSchemaVersion = 2;

// The manifest document, written and read by the field lists below.
struct RunEntry {
  std::uint64_t seed = 0;
  std::string file;
  std::string events;  // "" for an unobserved run, which has no "events" key
};
struct MapEntry {
  experiment::Scenario base;
  std::string file;
};
struct CellEntry {
  std::string label;
  experiment::Scenario scenario;
  std::string radio_map;  // the file of the scenario's map entry, or ""
  std::vector<RunEntry> runs;
};
struct Manifest {
  CampaignManifest meta;
  std::vector<MapEntry> maps;
  std::vector<CellEntry> cells;
};

template <class IO>
void fields(IO& io, RunEntry& r) {
  io.field("seed", r.seed);
  io.field("file", r.file);
  bool observed = !r.events.empty();
  if constexpr (IO::kReading) observed = io.has("events");
  if (observed) io.field("events", r.events);
}

template <class IO>
void fields(IO& io, MapEntry& m) {
  io.field("base", m.base);
  io.field("file", m.file);
}

template <class IO>
void fields(IO& io, CellEntry& c) {
  io.field("label", c.label);
  io.object("scenario", [&](auto& s) {
    fields(s, c.scenario);
    s.field("radio_map", c.radio_map);
  });
  io.field("runs", c.runs);
}

template <class IO>
void fields(IO& io, Manifest& m) {
  json::schema(io, kManifestSchemaVersion, "manifest");
  io.field("name", m.meta.name);
  io.field("git", m.meta.git_describe);
  io.field("jobs", m.meta.jobs);
  io.field("runs_per_cell", m.meta.runs_per_cell);
  io.field("wall_seconds", m.meta.wall_seconds);
  io.field("maps", m.maps);
  io.field("cells", m.cells);
}

// "NNN_<label>_s<seed>": the stem of a run's or a map's files.
std::string artifact_stem(std::size_t index, const std::string& label,
                          std::uint64_t seed) {
  char prefix[8];
  std::snprintf(prefix, sizeof prefix, "%03zu", index);
  return std::string{prefix} + "_" + label + "_s" + std::to_string(seed);
}

void check_written(bool written, const std::filesystem::path& path) {
  if (!written) {
    throw std::runtime_error("RunArtifactStore: cannot write " + path.string());
  }
}

std::string read_artifact(const std::filesystem::path& path) {
  auto text = json::read_file(path.string());
  if (!text) {
    throw std::runtime_error("RunArtifactStore: cannot read " + path.string());
  }
  return std::move(*text);
}

}  // namespace

std::string current_git_describe() {
  std::FILE* pipe = ::popen("git describe --always --dirty 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  std::array<char, 256> buf{};
  std::string out;
  while (std::fgets(buf.data(), static_cast<int>(buf.size()), pipe) != nullptr) {
    out += buf.data();
  }
  const int status = ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  if (status != 0 || out.empty()) return "unknown";
  return out;
}

std::filesystem::path RunArtifactStore::write_campaign(
    const CampaignManifest& manifest, const GridResult& result,
    const std::vector<WarmUpMap>& maps) const {
  rpv::validate(!manifest.name.empty() &&
                    manifest.name.find('/') == std::string::npos,
                "RunArtifactStore: campaign name must be a non-empty "
                "single path component");

  const auto campaign_dir = root_ / manifest.name;
  std::filesystem::create_directories(campaign_dir / "runs");

  Manifest doc{manifest, {}, {}};
  for (const auto& m : maps) {
    const auto stem = artifact_stem(
        doc.maps.size(), experiment::scenario_label(m.base), m.base.seed);
    write_radio_map(manifest.name, stem, *m.map);
    doc.maps.push_back({m.base, "maps/" + stem + ".map.json"});
  }
  std::size_t run_index = 0;
  for (const auto& cell : result.cells) {
    doc.cells.push_back({cell.cell.label, cell.cell.scenario, "", {}});
    auto& entry = doc.cells.back();
    if (const auto& map = cell.cell.scenario.radio_map) {
      const auto at =
          std::find_if(maps.begin(), maps.end(),
                       [&](const WarmUpMap& m) { return m.map == map; });
      rpv::validate(at != maps.end(), "RunArtifactStore: cell " +
                                          cell.cell.label +
                                          " carries a map the campaign lacks");
      entry.radio_map = doc.maps[static_cast<std::size_t>(at - maps.begin())].file;
    }
    for (std::size_t i = 0; i < cell.reports.size(); ++i) {
      const std::string stem =
          "runs/" + artifact_stem(run_index++, cell.cell.label, cell.seeds[i]);
      entry.runs.push_back({cell.seeds[i], stem + ".json", ""});
      auto& run = entry.runs.back();
      check_written(json::write_file((campaign_dir / run.file).string(),
                                     pipeline::report_to_json(cell.reports[i]),
                                     /*indent=*/-1),
                    campaign_dir / run.file);
      if (!cell.reports[i].events.empty()) {
        // Recorder timeline: one sibling JSONL per observed run. The writer
        // is canonical, so byte-comparing these across --jobs values is a
        // valid determinism check.
        run.events = stem + ".events.jsonl";
        check_written(obs::write_jsonl((campaign_dir / run.events).string(),
                                       cell.reports[i].events),
                      campaign_dir / run.events);
      }
    }
  }

  const auto manifest_path = campaign_dir / "manifest.json";
  check_written(json::write_file(manifest_path.string(),
                                 json::Writer::encode(doc), /*indent=*/2),
                manifest_path);
  return campaign_dir;
}

std::filesystem::path RunArtifactStore::write_radio_map(
    const std::string& campaign_name, const std::string& map_name,
    const radiomap::RadioMap& map) const {
  rpv::validate(!campaign_name.empty() &&
                    campaign_name.find('/') == std::string::npos,
                "RunArtifactStore: campaign name must be a non-empty "
                "single path component");
  rpv::validate(!map_name.empty() && map_name.find('/') == std::string::npos,
                "RunArtifactStore: map name must be a non-empty "
                "single path component");
  const auto maps_dir = root_ / campaign_name / "maps";
  std::filesystem::create_directories(maps_dir);
  const auto path = maps_dir / (map_name + ".map.json");
  check_written(json::write_file(path.string(), map.to_json(), -1), path);
  return path;
}

radiomap::RadioMap RunArtifactStore::load_radio_map(
    const std::filesystem::path& file) {
  return radiomap::radio_map_from_bytes(read_artifact(file));
}

LoadedCampaign RunArtifactStore::load_campaign(
    const std::filesystem::path& campaign_dir) {
  const auto manifest_path = campaign_dir / "manifest.json";
  const auto text = read_artifact(manifest_path);
  Manifest doc;
  try {
    json::Reader::decode(json::parse(text), doc);
  } catch (const std::exception& e) {
    throw std::runtime_error(manifest_path.string() + ": " + e.what());
  }

  LoadedCampaign loaded;
  for (const auto& m : doc.maps) {
    loaded.maps.push_back({m.base, std::make_shared<const radiomap::RadioMap>(
                                       load_radio_map(campaign_dir / m.file))});
  }
  for (const auto& c : doc.cells) {
    auto& cell = loaded.cells.emplace_back();
    cell.cell = {c.label, c.scenario};
    if (!c.radio_map.empty()) {
      const auto at =
          std::find_if(doc.maps.begin(), doc.maps.end(),
                       [&](const MapEntry& m) { return m.file == c.radio_map; });
      if (at == doc.maps.end()) {
        throw std::runtime_error(manifest_path.string() + ": cell " + c.label +
                                 ": radio_map: no map entry " + c.radio_map);
      }
      cell.cell.scenario.radio_map =
          loaded.maps[static_cast<std::size_t>(at - doc.maps.begin())].map;
    }
    for (const auto& run : c.runs) {
      cell.seeds.push_back(run.seed);
      cell.reports.push_back(pipeline::report_from_json(
          json::parse(read_artifact(campaign_dir / run.file))));
    }
  }
  return loaded;
}

}  // namespace rpv::exec
