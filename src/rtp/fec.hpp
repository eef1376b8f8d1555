// XOR forward error correction (ULPFEC-style single-parity groups).
//
// The paper's reference [9] shows real-time UAV video over cellular using
// FEC with multipath to survive losses; Section 5 lists it among the pipeline
// improvements. Every `group_size` media packets the encoder emits one
// parity packet whose XOR covers the group — the decoder can rebuild any
// SINGLE missing packet of a group once the parity and the other members
// have arrived. The cost is a fixed 1/group_size rate overhead.
//
// Payloads are virtual in this simulator, so the rebuilt packet's metadata
// comes from a group table shared between encoder and decoder — the
// information a real decoder recovers from the XOR itself.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "rtp/seq_window.hpp"
#include "sim/time.hpp"

namespace rpv::rtp {

struct FecConfig {
  int group_size = 10;       // media packets per parity packet
  // Number of groups filled round-robin. Radio losses are bursty (the paper:
  // drops occur consecutively), so consecutive packets must land in
  // different groups; with depth >= burst length a whole burst costs each
  // group at most one member — exactly what single-parity XOR can repair.
  int interleave_depth = 24;
};

// Encoder/decoder shared view of what each group protects (the XOR content).
class FecGroupTable {
 public:
  void put(std::int32_t group, std::vector<net::Packet> members) {
    groups_.erase(group);
    groups_.insert(group, std::move(members));
    // Bound state: groups far behind can no longer be repaired.
    while (groups_.size() > 512) groups_.erase(groups_.front());
  }
  [[nodiscard]] const std::vector<net::Packet>* get(std::int32_t group) const {
    return groups_.find(group);
  }

 private:
  SeqWindow<std::vector<net::Packet>> groups_;
};

class FecEncoder {
 public:
  FecEncoder(FecConfig cfg, std::shared_ptr<FecGroupTable> table);

  // Tag the media packet with its group and, when the group completes,
  // return the parity packet to transmit after it.
  std::optional<net::Packet> on_media_packet(net::Packet& media);

  // Retune the parity rate mid-stream (rpv::bond adaptive FEC). Groups
  // already filling emit as soon as they reach the new size, so lowering the
  // group size takes effect within one interleave round trip. Clamped >= 2.
  void set_group_size(int n);

  [[nodiscard]] int group_size() const { return cfg_.group_size; }
  [[nodiscard]] std::uint64_t parity_packets() const { return parity_count_; }

 private:
  struct Slot {
    std::vector<net::Packet> members;
    std::int32_t group = -1;
    std::size_t max_size = 0;
  };

  FecConfig cfg_;
  std::shared_ptr<FecGroupTable> table_;
  std::vector<Slot> slots_;
  std::size_t next_slot_ = 0;
  std::int32_t next_group_ = 0;
  std::uint64_t parity_count_ = 0;
  std::uint64_t next_id_ = 1ULL << 56;
};

class FecDecoder {
 public:
  explicit FecDecoder(std::shared_ptr<FecGroupTable> table);

  // Feed an arriving media packet. May complete a repair for a group whose
  // parity arrived before this (reordered) member.
  std::optional<net::Packet> on_media_packet(const net::Packet& p,
                                             sim::TimePoint now);
  // Feed an arriving parity packet. Returns a recovered media packet when
  // the parity completes a group with exactly one member missing.
  std::optional<net::Packet> on_parity_packet(const net::Packet& parity,
                                              sim::TimePoint now);

  [[nodiscard]] std::uint64_t recovered_packets() const { return recovered_; }

 private:
  struct GroupState {
    std::vector<std::uint16_t> seen_transport_seqs;
    bool parity_seen = false;
    bool repaired = false;
  };
  // Seen-seq room reserved once per group: the widest group of the adaptive
  // FEC ladder (bond/fec_controller.hpp). Wider fixed groups grow past it.
  static constexpr std::size_t kSeenReserve = 16;
  GroupState& state(std::int32_t group);
  std::optional<net::Packet> try_repair(std::int32_t group, GroupState& st,
                                        sim::TimePoint now);

  std::shared_ptr<FecGroupTable> table_;
  SeqWindow<GroupState> states_;  // keyed by group id
  std::uint64_t recovered_ = 0;
};

}  // namespace rpv::rtp
