// timing_profile.hpp — shared retry/timeout/backoff schedule.
//
// The same handful of knobs — how often to retry, when to give up, how
// long to stay quiet after a pressure signal — used to be duplicated
// (with diverging names) across sender_config, receiver_config and
// buffer_service_config. They are one policy: the control plane derives
// them together from the same path-latency inputs (compile_modes'
// suggested_nak_retry, §5.4), so they live together, reached through
// each config's `.timing`.
#pragma once

#include "common/units.hpp"

#include <cstdint>

namespace mmtp::core {

/// One coherent retry/timeout/backoff schedule, shared by endpoints and
/// buffer services. All durations are simulated time.
struct timing_profile {
    /// Base interval for unanswered retries (NAKs); should exceed the RTT
    /// to the responder. The n-th retry waits base * 2^(n-1).
    sim_duration retry_base{sim_duration{5000000}}; // 5 ms
    /// Ceiling for the exponentially backed-off retry interval.
    sim_duration retry_cap{sim_duration{40000000}}; // 40 ms
    /// Retry attempts before the current responder is abandoned.
    std::uint32_t max_attempts{5};
    /// Unanswered attempts at the primary responder before failing over
    /// to the fallback (0 disables failover).
    std::uint32_t failover_attempts{3};
    /// Quiet period after a pressure signal: senders hold their reduced
    /// pace this long after the last signal; services do not re-signal
    /// the same peer within it.
    sim_duration hold{sim_duration{10000000}}; // 10 ms
    /// Spacing between additive recovery steps once `hold` has lapsed.
    sim_duration recovery_interval{sim_duration{1000000}}; // 1 ms

    constexpr bool operator==(const timing_profile&) const = default;
};

} // namespace mmtp::core
