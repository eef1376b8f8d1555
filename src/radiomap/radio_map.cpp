#include "radiomap/radio_map.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "json/binder.hpp"

namespace rpv::radiomap {
namespace {

double var_from_sums(std::uint64_t n, std::int64_t milli_sum,
                     std::uint64_t milli_sq_sum) {
  if (n == 0) return 0.0;
  const double nd = static_cast<double>(n);
  const double mean_milli = static_cast<double>(milli_sum) / nd;
  const double mean_sq_milli = static_cast<double>(milli_sq_sum) / nd;
  const double var_milli2 = mean_sq_milli - mean_milli * mean_milli;
  // milli-dBm^2 -> dB^2; clamp the tiny negatives cancellation can produce.
  return std::max(0.0, var_milli2 / 1e6);
}

std::int64_t to_milli(double v) { return std::llround(v * 1000.0); }

void require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(std::string("radio map: ") + what);
}

}  // namespace

double CellStats::var_rsrp_db2() const {
  return var_from_sums(samples, rsrp_milli_sum, rsrp_milli_sq_sum);
}

double VoxelStats::var_rsrp_db2() const {
  return var_from_sums(samples, rsrp_milli_sum, rsrp_milli_sq_sum);
}

RadioMap::RadioMap(GridSpec spec) : spec_{spec} {
  if (!spec_.valid()) {
    throw std::invalid_argument("RadioMap: invalid grid spec");
  }
  if (spec_.voxel_count() > (1u << 24)) {
    throw std::invalid_argument("RadioMap: grid too large");
  }
  voxels_.resize(spec_.voxel_count());
}

VoxelStats* RadioMap::mutable_at(const geo::Vec3& pos) {
  const auto idx = spec_.index_of(pos);
  return idx ? &voxels_[*idx] : nullptr;
}

const VoxelStats* RadioMap::at(const geo::Vec3& pos) const {
  const auto idx = spec_.index_of(pos);
  return idx ? &voxels_[*idx] : nullptr;
}

void RadioMap::observe_measurement(const geo::Vec3& pos,
                                   std::uint32_t serving_cell, double rsrp_dbm,
                                   double capacity_mbps, bool ho_triggered) {
  VoxelStats* v = mutable_at(pos);
  if (v == nullptr) return;
  const std::int64_t milli = to_milli(rsrp_dbm);
  const auto sq = static_cast<std::uint64_t>(milli * milli);
  v->samples += 1;
  v->rsrp_milli_sum += milli;
  v->rsrp_milli_sq_sum += sq;
  const double kbps = std::max(0.0, capacity_mbps) * 1000.0;
  v->capacity_kbps_sum += static_cast<std::uint64_t>(std::llround(kbps));
  if (ho_triggered) v->ho_triggers += 1;

  auto it = std::lower_bound(
      v->cells.begin(), v->cells.end(), serving_cell,
      [](const CellStats& c, std::uint32_t id) { return c.cell_id < id; });
  if (it == v->cells.end() || it->cell_id != serving_cell) {
    it = v->cells.insert(it, CellStats{serving_cell, 0, 0, 0});
  }
  it->samples += 1;
  it->rsrp_milli_sum += milli;
  it->rsrp_milli_sq_sum += sq;
}

void RadioMap::observe_handover(const geo::Vec3& pos) {
  if (VoxelStats* v = mutable_at(pos)) v->ho_triggers += 1;
}

void RadioMap::observe_rlf(const geo::Vec3& pos) {
  if (VoxelStats* v = mutable_at(pos)) v->rlf_count += 1;
}

void RadioMap::observe_loss(const geo::Vec3& pos) {
  if (VoxelStats* v = mutable_at(pos)) v->losses += 1;
}

void RadioMap::observe_stall(const geo::Vec3& pos, double duration_ms) {
  if (VoxelStats* v = mutable_at(pos)) {
    v->stall_us +=
        static_cast<std::uint64_t>(std::llround(std::max(0.0, duration_ms) * 1000.0));
  }
}

std::uint64_t RadioMap::total_samples() const {
  std::uint64_t n = 0;
  for (const auto& v : voxels_) n += v.samples;
  return n;
}

std::uint64_t RadioMap::observed_voxels() const {
  std::uint64_t n = 0;
  for (const auto& v : voxels_) {
    if (!v.empty()) ++n;
  }
  return n;
}

void RadioMap::merge(const RadioMap& other) {
  if (!(spec_ == other.spec_)) {
    throw std::invalid_argument("RadioMap::merge: grid spec mismatch");
  }
  for (std::size_t i = 0; i < voxels_.size(); ++i) {
    VoxelStats& a = voxels_[i];
    const VoxelStats& b = other.voxels_[i];
    a.samples += b.samples;
    a.rsrp_milli_sum += b.rsrp_milli_sum;
    a.rsrp_milli_sq_sum += b.rsrp_milli_sq_sum;
    a.capacity_kbps_sum += b.capacity_kbps_sum;
    a.ho_triggers += b.ho_triggers;
    a.rlf_count += b.rlf_count;
    a.losses += b.losses;
    a.stall_us += b.stall_us;
    // Sorted set-union on cell id keeps the merged vector sorted, so the
    // result is independent of merge order.
    std::vector<CellStats> merged;
    merged.reserve(a.cells.size() + b.cells.size());
    std::size_t ia = 0, ib = 0;
    while (ia < a.cells.size() || ib < b.cells.size()) {
      if (ib == b.cells.size() ||
          (ia < a.cells.size() && a.cells[ia].cell_id < b.cells[ib].cell_id)) {
        merged.push_back(a.cells[ia++]);
      } else if (ia == a.cells.size() ||
                 b.cells[ib].cell_id < a.cells[ia].cell_id) {
        merged.push_back(b.cells[ib++]);
      } else {
        CellStats c = a.cells[ia++];
        const CellStats& d = b.cells[ib++];
        c.samples += d.samples;
        c.rsrp_milli_sum += d.rsrp_milli_sum;
        c.rsrp_milli_sq_sum += d.rsrp_milli_sq_sum;
        merged.push_back(c);
      }
    }
    a.cells = std::move(merged);
  }
}

// --- JSON: one field list per record (json/binder.hpp) ---

template <class IO>
void fields(IO& io, GridSpec& s) {
  io.field("origin_x", s.origin.x);
  io.field("origin_y", s.origin.y);
  io.field("origin_z", s.origin.z);
  io.field("voxel_xy_m", s.voxel_xy_m);
  io.field("voxel_z_m", s.voxel_z_m);
  io.field("nx", s.nx);
  io.field("ny", s.ny);
  io.field("nz", s.nz);
}

template <class IO>
void fields(IO& io, CellStats& c) {
  io.field("cell", c.cell_id);
  io.field("samples", c.samples);
  io.field("rsrp_milli_sum", c.rsrp_milli_sum);
  io.field("rsrp_milli_sq_sum", c.rsrp_milli_sq_sum);
}

template <class IO>
void fields(IO& io, VoxelStats& s) {
  io.field("samples", s.samples);
  io.field("rsrp_milli_sum", s.rsrp_milli_sum);
  io.field("rsrp_milli_sq_sum", s.rsrp_milli_sq_sum);
  io.field("capacity_kbps_sum", s.capacity_kbps_sum);
  io.field("ho_triggers", s.ho_triggers);
  io.field("rlf_count", s.rlf_count);
  io.field("losses", s.losses);
  io.field("stall_us", s.stall_us);
  io.field("cells", s.cells);
}

namespace {

// The stored document: the spec plus the non-empty voxels, sorted by index.
struct VoxelEntry {
  std::uint32_t i = 0;
  VoxelStats stats;
};

struct MapDocument {
  GridSpec spec;
  std::vector<VoxelEntry> voxels;
};

template <class IO>
void fields(IO& io, VoxelEntry& e) {
  io.field("i", e.i);
  fields(io, e.stats);
}

template <class IO>
void fields(IO& io, MapDocument& d) {
  json::schema(io, kRadioMapSchemaVersion, "radio map");
  io.field("spec", d.spec);
  io.field("voxels", d.voxels);
}

}  // namespace

json::Value RadioMap::to_json() const {
  MapDocument doc{spec_, {}};
  for (std::uint32_t i = 0; i < voxels_.size(); ++i) {
    if (!voxels_[i].empty()) doc.voxels.push_back({i, voxels_[i]});
  }
  return json::Writer::encode(doc);
}

RadioMap radio_map_from_json(const json::Value& v) {
  MapDocument doc;
  json::Reader::decode(v, doc);
  const GridSpec& spec = doc.spec;
  require(spec.nx > 0 && spec.ny > 0 && spec.nz > 0,
          "grid axes must be positive");
  // Checked axis by axis so the product cannot wrap.
  constexpr std::uint64_t kMaxVoxels = 1u << 24;
  require(spec.nx <= kMaxVoxels && spec.ny <= kMaxVoxels / spec.nx &&
              spec.nz <= kMaxVoxels / (std::uint64_t{spec.nx} * spec.ny),
          "grid too large");
  require(std::isfinite(spec.voxel_xy_m) && std::isfinite(spec.voxel_z_m) &&
              spec.voxel_xy_m > 0.0 && spec.voxel_z_m > 0.0,
          "voxel size must be positive and finite");

  RadioMap map{spec};
  std::int64_t prev_index = -1;
  for (VoxelEntry& e : doc.voxels) {
    require(e.i < map.voxels_.size(), "voxel index out of range");
    require(std::int64_t{e.i} > prev_index, "voxels must be sorted by index");
    prev_index = e.i;
    std::int64_t prev_cell = -1;
    for (const CellStats& c : e.stats.cells) {
      require(std::int64_t{c.cell_id} > prev_cell, "cells must be sorted by id");
      prev_cell = c.cell_id;
    }
    require(!e.stats.empty(), "voxel entry must be non-empty");
    map.voxels_[e.i] = std::move(e.stats);
  }
  return map;
}

RadioMap radio_map_from_bytes(std::string_view text) {
  return radio_map_from_json(json::parse(text));
}

}  // namespace rpv::radiomap
