// policy.hpp — the mode-policy compiler.
//
// Given an end-to-end path described as ordered segments (DAQ network →
// WAN → campus), the buffer to recover from, and an end-to-end latency
// budget, compile_modes() decides which transport mode each segment runs
// in and emits the mode_transition rules to install on the boundary
// elements — the pilot's "simple 3-mode setup that pre-supposes
// knowledge of in-network resources at system start" (§5.3), generalized
// to N segments. The caller names the recovery buffer; discovering it
// from a shared map of in-network resources is the paper's future work
// (§6 challenge 1) and is not modelled.
#pragma once

#include "pnet/stages.hpp"
#include "wire/features.hpp"

#include <optional>
#include <vector>

namespace mmtp::control {

struct path_segment {
    enum class kind { daq, wan, campus };
    kind k{kind::wan};
    sim_duration one_way_latency{sim_duration::zero()};
    data_rate capacity{0};
    /// Loss possible on this segment (corruption on WANs, Fig. 2).
    bool lossy{false};
    /// Element at the *entry* of this segment that can rewrite modes
    /// (0 = none; the segment keeps the previous mode).
    wire::ipv4_addr boundary_element{0};
};

struct segment_mode_plan {
    wire::ipv4_addr element{0}; // where to install (0 = origin host)
    pnet::mode_rule rule;       // what the element should do
    wire::mode resulting_mode;  // mode on the segment after the rule
};

struct compiled_policy {
    wire::mode origin_mode;
    std::vector<segment_mode_plan> transitions;
    std::uint32_t deadline_us{0};
    /// Suggested receiver NAK retry (≳ RTT to the recovery buffer).
    sim_duration suggested_nak_retry{sim_duration::zero()};
};

struct policy_inputs {
    std::uint32_t experiment{0};
    std::vector<path_segment> segments;
    /// Buffer the WAN segment should recover from (usually the DTN at
    /// the DAQ/WAN boundary); 0 = the WAN rule names no buffer.
    wire::ipv4_addr recovery_buffer{0};
    /// Where deadline-exceeded notifications go (usually the source DTN).
    wire::ipv4_addr notify_addr{0};
};

/// Compiles the per-segment modes. Mirrors the pilot: mode 0 in the DAQ
/// network, age-sensitive + recoverable-loss over the WAN, timeliness
/// check (with in-network features stripped) on the campus segment. The
/// deadline is 3x the one-way path latency plus a 2 ms allowance.
compiled_policy compile_modes(const policy_inputs& in);

} // namespace mmtp::control
