#include "fleet/shared_deployment.hpp"

#include <algorithm>

#include "sim/validate.hpp"

namespace rpv::fleet {

SharedDeployment::SharedDeployment(cellular::CellLayout layout)
    : layout_{std::move(layout)} {
  rpv::validate(!layout_.cells.empty(),
                "SharedDeployment: layout must have at least one cell");
  users_.assign(layout_.cells.size(), 0);
  peak_.assign(layout_.cells.size(), 0);
  for (std::size_t i = 0; i < layout_.cells.size(); ++i) {
    rpv::validate(index_.emplace(layout_.cells[i].cell_id, i).second,
                  "SharedDeployment: duplicate cell_id in layout");
  }
}

int SharedDeployment::attach() {
  slots_.push_back({});
  return static_cast<int>(slots_.size()) - 1;
}

void SharedDeployment::report(int slot, std::uint32_t cell_id, bool active) {
  auto& s = slots_[static_cast<std::size_t>(slot)];
  s.cell_id = cell_id;
  s.active = active;
}

void SharedDeployment::commit_epoch() {
  std::fill(users_.begin(), users_.end(), 0);
  for (const auto& s : slots_) {
    if (!s.active) continue;
    const auto it = index_.find(s.cell_id);
    if (it == index_.end()) continue;
    ++users_[it->second];
  }
  for (std::size_t i = 0; i < users_.size(); ++i) {
    peak_[i] = std::max(peak_[i], users_[i]);
  }
}

double SharedDeployment::prb_share(std::uint32_t cell_id) const {
  const auto users = active_users(cell_id);
  return users <= 1 ? 1.0 : 1.0 / static_cast<double>(users);
}

std::uint32_t SharedDeployment::active_users(std::uint32_t cell_id) const {
  const auto it = index_.find(cell_id);
  return it == index_.end() ? 0 : users_[it->second];
}

std::uint32_t SharedDeployment::peak_users(std::uint32_t cell_id) const {
  const auto it = index_.find(cell_id);
  return it == index_.end() ? 0 : peak_[it->second];
}

std::uint32_t SharedDeployment::peak_cell_load() const {
  std::uint32_t peak = 0;
  for (const auto p : peak_) peak = std::max(peak, p);
  return peak;
}

}  // namespace rpv::fleet
