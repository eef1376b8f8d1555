// Voxel grid geometry for the 3D radio map.
//
// A GridSpec quantizes the local ENU frame into axis-aligned voxels of
// `voxel_xy_m` horizontal and `voxel_z_m` vertical extent. The "Vertical
// Look" study the map follows characterizes link quality per (x, y,
// altitude) cell; the grid here is the deterministic indexing layer under
// that: pure integer math over double coordinates, no state, so every
// consumer (sink, planner, predictor prior) quantizes identically.
#pragma once

#include <cstdint>
#include <optional>

#include "geo/vec3.hpp"

namespace rpv::radiomap {

struct GridSpec {
  geo::Vec3 origin{};       // minimum corner of the grid (m)
  double voxel_xy_m = 50.0; // horizontal voxel edge
  double voxel_z_m = 30.0;  // vertical voxel edge
  std::uint32_t nx = 1;
  std::uint32_t ny = 1;
  std::uint32_t nz = 1;

  [[nodiscard]] bool operator==(const GridSpec& o) const {
    return origin.x == o.origin.x && origin.y == o.origin.y &&
           origin.z == o.origin.z && voxel_xy_m == o.voxel_xy_m &&
           voxel_z_m == o.voxel_z_m && nx == o.nx && ny == o.ny && nz == o.nz;
  }
  [[nodiscard]] bool operator!=(const GridSpec& o) const {
    return !(*this == o);
  }

  [[nodiscard]] std::uint64_t voxel_count() const {
    return std::uint64_t{nx} * ny * nz;
  }

  [[nodiscard]] bool valid() const {
    return voxel_xy_m > 0.0 && voxel_z_m > 0.0 && nx > 0 && ny > 0 && nz > 0;
  }

  // Axis cell of a coordinate, or nullopt when outside [0, n). The lower
  // face of each voxel is inclusive, the upper face exclusive, so every
  // in-extent point belongs to exactly one voxel.
  [[nodiscard]] std::optional<std::uint32_t> axis_cell(double v, double lo,
                                                       double res,
                                                       std::uint32_t n) const {
    const double f = (v - lo) / res;
    if (f < 0.0) return std::nullopt;
    const auto c = static_cast<std::uint64_t>(f);  // truncation == floor, f >= 0
    if (c >= n) return std::nullopt;
    return static_cast<std::uint32_t>(c);
  }

  // Linear voxel index of a point, or nullopt when the point lies outside
  // the grid extent. Layout: x fastest, then y, then z.
  [[nodiscard]] std::optional<std::uint32_t> index_of(const geo::Vec3& p) const {
    const auto ix = axis_cell(p.x, origin.x, voxel_xy_m, nx);
    const auto iy = axis_cell(p.y, origin.y, voxel_xy_m, ny);
    const auto iz = axis_cell(p.z, origin.z, voxel_z_m, nz);
    if (!ix || !iy || !iz) return std::nullopt;
    return (*iz * ny + *iy) * nx + *ix;
  }

  [[nodiscard]] std::uint32_t x_of(std::uint32_t index) const {
    return index % nx;
  }
  [[nodiscard]] std::uint32_t y_of(std::uint32_t index) const {
    return (index / nx) % ny;
  }
  [[nodiscard]] std::uint32_t z_of(std::uint32_t index) const {
    return index / (std::uint64_t{nx} * ny);
  }

  // Geometric center of a voxel; center_of(index_of(p)) stays inside the
  // same voxel as p (the property tests pin this for random specs).
  [[nodiscard]] geo::Vec3 center_of(std::uint32_t index) const {
    return {origin.x + (x_of(index) + 0.5) * voxel_xy_m,
            origin.y + (y_of(index) + 0.5) * voxel_xy_m,
            origin.z + (z_of(index) + 0.5) * voxel_z_m};
  }

  // Minimum (inclusive) and maximum (exclusive) corners of a voxel.
  [[nodiscard]] geo::Vec3 voxel_min(std::uint32_t index) const {
    return {origin.x + x_of(index) * voxel_xy_m,
            origin.y + y_of(index) * voxel_xy_m,
            origin.z + z_of(index) * voxel_z_m};
  }
  [[nodiscard]] geo::Vec3 voxel_max(std::uint32_t index) const {
    const auto lo = voxel_min(index);
    return {lo.x + voxel_xy_m, lo.y + voxel_xy_m, lo.z + voxel_z_m};
  }
};

}  // namespace rpv::radiomap
