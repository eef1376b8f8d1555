// Persistent run artifacts.
//
// Every campaign the engine executes can be written to disk as structured
// JSON — the simulator's counterpart to the paper's released dataset. The
// layout under the store root is:
//
//   <root>/<campaign-name>/
//     manifest.json        campaign metadata: schema, name, git describe,
//                          jobs, runs per cell, wall seconds; each warm-up
//                          map with its base scenario and file; and per
//                          cell its full scenario (a map named by its file)
//                          and the (seed, file) list of its runs
//     runs/NNN_<label>_s<seed>.json      one SessionReport per run
//     maps/NNN_<label>_s<seed>.map.json  one warm-up radio map
//
// The loader reads a campaign directory back, scenarios and maps included,
// so benches and tools re-aggregate figures (pool_* helpers work unchanged)
// without re-simulating anything.
#pragma once

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/campaign_engine.hpp"
#include "json/json.hpp"
#include "radiomap/radio_map.hpp"

namespace rpv::exec {

struct CampaignManifest {
  std::string name;          // directory-safe campaign name
  std::string git_describe;  // current_git_describe() or caller-provided
  int runs_per_cell = 0;
  int jobs = 0;
  double wall_seconds = 0.0;
};

// A warm-up radio map and the base scenario experiment::build_radio_map
// built it from; map->spec() is the GridSpec it was built on.
struct WarmUpMap {
  experiment::Scenario base;
  std::shared_ptr<const radiomap::RadioMap> map;
};

struct LoadedCampaign {
  // Every scenario filled in; one that carries a map shares maps[i].map.
  std::vector<GridCellResult> cells;
  std::vector<WarmUpMap> maps;
};

// `git describe --always --dirty` of the working tree; "unknown" when git is
// unavailable (artifacts must still be writable from deployed binaries).
[[nodiscard]] std::string current_git_describe();

class RunArtifactStore {
 public:
  explicit RunArtifactStore(std::filesystem::path root) : root_{std::move(root)} {}

  // Write manifest + per-run reports + the warm-up maps, which must hold
  // every map a cell's scenario carries (std::invalid_argument otherwise);
  // returns the campaign directory. Throws std::runtime_error on I/O errors.
  std::filesystem::path write_campaign(
      const CampaignManifest& manifest, const GridResult& result,
      const std::vector<WarmUpMap>& maps = {}) const;

  // Read a campaign directory written by write_campaign. A malformed
  // manifest (another schema, an unknown name, a missing key, an integer out
  // of range, a fault FaultSchedule::add rejects) throws std::runtime_error
  // naming the manifest and the key.
  [[nodiscard]] static LoadedCampaign load_campaign(
      const std::filesystem::path& campaign_dir);

  // Persist a radio map under <root>/<campaign>/maps/<map_name>.map.json.
  // The file holds the map's canonical bytes verbatim, so byte-comparing two
  // stores (e.g. across --jobs values) is a valid determinism check. Returns
  // the written path; throws std::runtime_error on I/O errors.
  std::filesystem::path write_radio_map(const std::string& campaign_name,
                                        const std::string& map_name,
                                        const radiomap::RadioMap& map) const;

  // Read a map file written by write_radio_map (throws on I/O or schema
  // errors — the loader is the strict radiomap::radio_map_from_bytes).
  [[nodiscard]] static radiomap::RadioMap load_radio_map(
      const std::filesystem::path& file);

 private:
  std::filesystem::path root_;
};

}  // namespace rpv::exec
