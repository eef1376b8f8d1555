#include "rtp/fec.hpp"

#include <algorithm>

#include "sim/validate.hpp"

namespace rpv::rtp {

FecEncoder::FecEncoder(FecConfig cfg, std::shared_ptr<FecGroupTable> table)
    : cfg_{cfg}, table_{std::move(table)} {
  rpv::validate(cfg_.group_size >= 1 && cfg_.interleave_depth >= 1,
                "FecEncoder: group_size and interleave_depth must be >= 1");
  rpv::validate(table_ != nullptr, "FecEncoder: group table required");
  slots_.resize(static_cast<std::size_t>(cfg_.interleave_depth));
}

FecDecoder::FecDecoder(std::shared_ptr<FecGroupTable> table)
    : table_{std::move(table)} {
  rpv::validate(table_ != nullptr, "FecDecoder: group table required");
}

void FecEncoder::set_group_size(int n) {
  cfg_.group_size = n < 2 ? 2 : n;
}

std::optional<net::Packet> FecEncoder::on_media_packet(net::Packet& media) {
  Slot& slot = slots_[next_slot_];
  next_slot_ = (next_slot_ + 1) % slots_.size();

  if (slot.group < 0) {
    slot.group = next_group_++;
    // The list moves into the group table whole, so each group allocates it
    // once.
    slot.members.reserve(static_cast<std::size_t>(cfg_.group_size));
  }
  media.fec_group = slot.group;
  slot.members.push_back(media);
  slot.max_size = std::max(slot.max_size, media.size_bytes);
  if (static_cast<int>(slot.members.size()) < cfg_.group_size) return std::nullopt;

  net::Packet parity;
  parity.id = next_id_++;
  parity.kind = net::PacketKind::kFecParity;
  parity.size_bytes = slot.max_size;  // the XOR is as big as the largest member
  parity.fec_group = slot.group;
  parity.rtp_timestamp = slot.members.back().rtp_timestamp;
  table_->put(slot.group, std::move(slot.members));
  slot = Slot{};
  ++parity_count_;
  return parity;
}

std::optional<net::Packet> FecDecoder::on_media_packet(const net::Packet& p,
                                                        sim::TimePoint now) {
  if (p.fec_group < 0) return std::nullopt;
  state(p.fec_group).seen_transport_seqs.push_back(p.transport_seq);
  // Bound state; this may drop the group just fed, which then starts afresh.
  while (states_.size() > 512) states_.erase(states_.front());
  return try_repair(p.fec_group, state(p.fec_group), now);
}

std::optional<net::Packet> FecDecoder::on_parity_packet(const net::Packet& parity,
                                                        sim::TimePoint now) {
  if (parity.fec_group < 0) return std::nullopt;
  auto& st = state(parity.fec_group);
  st.parity_seen = true;
  return try_repair(parity.fec_group, st, now);
}

FecDecoder::GroupState& FecDecoder::state(std::int32_t group) {
  if (states_.insert(group, GroupState{})) {  // false when the group is live
    states_.find(group)->seen_transport_seqs.reserve(kSeenReserve);
  }
  return *states_.find(group);
}

std::optional<net::Packet> FecDecoder::try_repair(std::int32_t group,
                                                  GroupState& st,
                                                  sim::TimePoint now) {
  if (!st.parity_seen || st.repaired) return std::nullopt;
  const auto* members = table_->get(group);
  if (members == nullptr) return std::nullopt;
  // Exactly one member missing: the XOR yields it.
  const net::Packet* missing = nullptr;
  int missing_count = 0;
  for (const auto& m : *members) {
    const bool seen =
        std::find(st.seen_transport_seqs.begin(), st.seen_transport_seqs.end(),
                  m.transport_seq) != st.seen_transport_seqs.end();
    if (!seen) {
      ++missing_count;
      missing = &m;
    }
  }
  if (missing_count != 1) return std::nullopt;
  st.repaired = true;
  ++recovered_;
  net::Packet rebuilt = *missing;
  rebuilt.received = now;
  return rebuilt;
}

}  // namespace rpv::rtp
