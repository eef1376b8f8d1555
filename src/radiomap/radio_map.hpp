// rpv::radiomap — 3D radio-map memory.
//
// A RadioMap accumulates per-voxel link statistics — serving RSRP mean/var
// per cell, observed capacity, HO-trigger / RLF / loss counts, stall
// attribution — from flights (or a warm-up survey sweep) and persists as a
// campaign artifact. Two invariants carry everything downstream:
//
//  * Every statistic is an integer sum (RSRP in milli-dBm, capacity in
//    kbps, stalls in µs), so merge() is associative, commutative, and
//    order-independent — the same algebra obs::MetricsRegistry::merge
//    guarantees — and fleet-sharded accumulation is byte-identical for any
//    --jobs value.
//  * to_json() emits canonical bytes (sparse voxels sorted by index, cells
//    sorted by id, insertion-ordered keys), so a map written twice from the
//    same observations is the same file, golden pins hold, and round-trip
//    through radio_map_from_json() is exact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "radiomap/grid.hpp"

namespace rpv::radiomap {

inline constexpr int kRadioMapSchemaVersion = 1;

// Per-serving-cell RSRP accumulator inside one voxel. Kept sorted by
// cell_id inside VoxelStats so merge and serialization are order-free.
struct CellStats {
  std::uint32_t cell_id = 0;
  std::uint64_t samples = 0;
  std::int64_t rsrp_milli_sum = 0;      // milli-dBm
  std::uint64_t rsrp_milli_sq_sum = 0;  // (milli-dBm)^2; fits ~1e6 samples

  bool operator==(const CellStats&) const = default;

  [[nodiscard]] double mean_rsrp_dbm() const {
    return samples == 0 ? 0.0
                        : static_cast<double>(rsrp_milli_sum) /
                              (1000.0 * static_cast<double>(samples));
  }
  [[nodiscard]] double var_rsrp_db2() const;
};

struct VoxelStats {
  std::uint64_t samples = 0;  // measurement ticks observed here (~100 ms each)
  std::int64_t rsrp_milli_sum = 0;
  std::uint64_t rsrp_milli_sq_sum = 0;
  std::uint64_t capacity_kbps_sum = 0;
  std::uint64_t ho_triggers = 0;
  std::uint64_t rlf_count = 0;
  std::uint64_t losses = 0;    // radio packet losses attributed here
  std::uint64_t stall_us = 0;  // player stall time attributed here
  std::vector<CellStats> cells;  // sorted by cell_id

  bool operator==(const VoxelStats&) const = default;

  [[nodiscard]] bool empty() const {
    return samples == 0 && ho_triggers == 0 && rlf_count == 0 &&
           losses == 0 && stall_us == 0 && cells.empty();
  }
  [[nodiscard]] double mean_rsrp_dbm() const {
    return samples == 0 ? 0.0
                        : static_cast<double>(rsrp_milli_sum) /
                              (1000.0 * static_cast<double>(samples));
  }
  [[nodiscard]] double var_rsrp_db2() const;
  [[nodiscard]] double mean_capacity_mbps() const {
    return samples == 0 ? 0.0
                        : static_cast<double>(capacity_kbps_sum) /
                              (1000.0 * static_cast<double>(samples));
  }
  // HO triggers per measurement tick — the spatial HO-risk the predictor
  // prior and the planner consume.
  [[nodiscard]] double ho_risk() const {
    return samples == 0 ? 0.0
                        : static_cast<double>(ho_triggers) /
                              static_cast<double>(samples);
  }
  [[nodiscard]] double rlf_risk() const {
    return samples == 0 ? 0.0
                        : static_cast<double>(rlf_count) /
                              static_cast<double>(samples);
  }
  [[nodiscard]] double loss_per_tick() const {
    return samples == 0 ? 0.0
                        : static_cast<double>(losses) /
                              static_cast<double>(samples);
  }
  [[nodiscard]] double stall_ms_per_tick() const {
    return samples == 0 ? 0.0
                        : static_cast<double>(stall_us) /
                              (1000.0 * static_cast<double>(samples));
  }
};

class RadioMap {
 public:
  RadioMap() : voxels_(spec_.voxel_count()) {}
  explicit RadioMap(GridSpec spec);

  [[nodiscard]] const GridSpec& spec() const { return spec_; }

  // --- Observation feeds (positions outside the grid are dropped) ---
  void observe_measurement(const geo::Vec3& pos, std::uint32_t serving_cell,
                           double rsrp_dbm, double capacity_mbps,
                           bool ho_triggered);
  void observe_handover(const geo::Vec3& pos);
  void observe_rlf(const geo::Vec3& pos);
  void observe_loss(const geo::Vec3& pos);
  void observe_stall(const geo::Vec3& pos, double duration_ms);

  // --- Queries ---
  // Stats of the voxel containing `pos`; null when outside the grid.
  [[nodiscard]] const VoxelStats* at(const geo::Vec3& pos) const;
  [[nodiscard]] const VoxelStats& voxel(std::uint32_t index) const {
    return voxels_[index];
  }
  [[nodiscard]] std::uint64_t total_samples() const;
  [[nodiscard]] std::uint64_t observed_voxels() const;
  [[nodiscard]] bool empty() const { return observed_voxels() == 0; }

  // Integer-sum union of two maps over the same GridSpec (throws
  // std::invalid_argument on a spec mismatch). Associative, commutative,
  // order-independent — pinned by the property tests.
  void merge(const RadioMap& other);

  bool operator==(const RadioMap&) const = default;

  // Canonical JSON: schema header + spec + sparse non-empty voxels sorted
  // by index. dump() of the result is byte-stable.
  [[nodiscard]] json::Value to_json() const;
  // Compact canonical bytes (the golden-pin and artifact format).
  [[nodiscard]] std::string canonical_bytes() const { return to_json().dump(); }

 private:
  friend RadioMap radio_map_from_json(const json::Value& v);

  VoxelStats* mutable_at(const geo::Vec3& pos);

  GridSpec spec_{};
  std::vector<VoxelStats> voxels_;
};

// Strict loader: throws std::runtime_error on schema mismatch, malformed
// structure, out-of-range indices or integers, or unsorted voxels/cells (a
// fuzz target — malformed input must throw, never crash). The format is one
// field list per record (GridSpec, VoxelStats, CellStats) in radio_map.cpp,
// walked by both directions of json/binder.hpp.
[[nodiscard]] RadioMap radio_map_from_json(const json::Value& v);
[[nodiscard]] RadioMap radio_map_from_bytes(std::string_view text);

}  // namespace rpv::radiomap
