// SharedDeployment — one cellular topology, many UAV sessions.
//
// Every Session historically owned a private copy of the CellLayout, so no
// two runs could contend for the same eNodeB. A SharedDeployment owns the
// layout once and tracks, per cell, how many attached sessions are actively
// camped on it. Attached links read their PRB share through the
// cellular::CellLoadProvider interface: N active users on a cell each get
// ~1/N of its capacity ceiling, and a cell with at most one user keeps the
// full share — which makes a fleet of one bit-identical to a standalone
// Session.
//
// Concurrency/determinism contract (the FleetEngine's epoch barrier):
//  * report(slot, ...) — each worker writes only its own sessions' slots;
//    distinct slots are distinct memory locations, so no synchronization is
//    needed while an epoch runs.
//  * commit_epoch() — called on one thread at the barrier; recomputes the
//    per-cell user counts from the slots (an order-independent integer sum)
//    and freezes them for the next epoch.
//  * prb_share()/active_users() — read only the frozen table, so any worker
//    may call them at any time during an epoch.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cellular/base_station.hpp"
#include "cellular/cell_load.hpp"

namespace rpv::fleet {

class SharedDeployment final : public cellular::CellLoadProvider {
 public:
  explicit SharedDeployment(cellular::CellLayout layout);

  [[nodiscard]] const cellular::CellLayout& layout() const { return layout_; }

  // Register one session; returns its slot index. Attach everything before
  // the first epoch runs — slots are stable for the deployment's lifetime.
  [[nodiscard]] int attach();
  [[nodiscard]] std::size_t attached() const { return slots_.size(); }

  // Record where a session is camped and whether it still generates load
  // (false once its mission ended and it is only draining). Safe to call
  // concurrently for distinct slots.
  void report(int slot, std::uint32_t cell_id, bool active);

  // Epoch barrier: fold the slot states into the per-cell user counts the
  // next epoch will read, updating the per-cell load peaks.
  void commit_epoch();

  // cellular::CellLoadProvider — the share frozen at the last commit.
  [[nodiscard]] double prb_share(std::uint32_t cell_id) const override;

  [[nodiscard]] std::uint32_t active_users(std::uint32_t cell_id) const;
  [[nodiscard]] std::uint32_t peak_users(std::uint32_t cell_id) const;
  // The busiest any cell has ever been.
  [[nodiscard]] std::uint32_t peak_cell_load() const;
  // Peaks in layout order, parallel to layout().cells.
  [[nodiscard]] const std::vector<std::uint32_t>& peaks() const { return peak_; }

 private:
  struct Slot {
    std::uint32_t cell_id = 0;
    bool active = false;
  };

  cellular::CellLayout layout_;
  std::unordered_map<std::uint32_t, std::size_t> index_;  // cell_id -> idx
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> users_;  // frozen at the last commit_epoch
  std::vector<std::uint32_t> peak_;
};

}  // namespace rpv::fleet
