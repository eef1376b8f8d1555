// rpv::bond — bonded multi-path link management.
//
// The paper's multi-MNO measurements show no single operator sustains
// RPV-grade latency through handovers and coverage holes; its Section 5 (and
// AQUILA / vd-link in the related work) argue for per-packet bonding over all
// modems with policy-driven redundancy. A Policy names how the LinkManager
// spreads traffic across the candidate paths (healthy, out of probation, not
// under a predicted handover):
//
//  * kFailover — video on the lowest-index candidate: the primary operator
//    until it fails, then the next one (the reference arm without
//    redundancy);
//  * kDuplicate — every class on the two lowest-index candidates (the
//    reference arm that pays 2x airtime for redundancy);
//  * kLowLatency — every packet on the currently fastest eligible path,
//    media FEC-protected so isolated losses do not cost a retransmission;
//  * kBalanced — capacity-weighted spray across eligible paths, with
//    selective duplication of keyframe and C2 packets only;
//  * kHighReliability — C2 duplicated on every path, video sprayed with
//    cross-path FEC at an elevated parity floor: near-kDuplicate robustness
//    at a fraction of its 2x airtime.
#pragma once

#include <cstdint>
#include <string>

namespace rpv::bond {

enum class Policy : std::uint8_t {
  kDuplicate,        // two lowest-index candidates, every class
  kFailover,         // lowest-index candidate for video
  kLowLatency,       // fastest path + FEC
  kBalanced,         // weighted spray + selective duplication
  kHighReliability,  // duplicate C2 + FEC-bonded video
};

// DSCP-style traffic classes, highest priority first (C2 > telemetry >
// video): the scheduler never lets a C2 packet queue behind a video burst.
enum class TrafficClass : std::uint8_t { kC2 = 0, kTelemetry = 1, kVideo = 2 };

// FEC-protected policies: the session enables sender-side FEC with the
// adaptive rate controller attached.
[[nodiscard]] constexpr bool uses_fec(Policy p) {
  return p == Policy::kLowLatency || p == Policy::kHighReliability;
}

[[nodiscard]] inline std::string policy_name(Policy p) {
  switch (p) {
    case Policy::kDuplicate: return "duplicate";
    case Policy::kFailover: return "failover";
    case Policy::kLowLatency: return "low-latency";
    case Policy::kBalanced: return "balanced";
    case Policy::kHighReliability: return "high-reliability";
  }
  return "?";
}

// Report suffix appended to cc_name ("gcc+bond-hr"); the reference arms keep
// their historical spellings ("+mpdup", "+mpfail").
[[nodiscard]] inline std::string policy_suffix(Policy p) {
  switch (p) {
    case Policy::kDuplicate: return "+mpdup";
    case Policy::kFailover: return "+mpfail";
    case Policy::kLowLatency: return "+bond-ll";
    case Policy::kBalanced: return "+bond-bal";
    case Policy::kHighReliability: return "+bond-hr";
  }
  return "?";
}

}  // namespace rpv::bond
