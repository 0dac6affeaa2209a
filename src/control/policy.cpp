#include "control/policy.hpp"

namespace mmtp::control {

namespace {
/// Slack multiplier on the path latency when deriving the deadline.
constexpr double deadline_slack = 3.0;
/// Extra fixed allowance for processing/queueing.
constexpr sim_duration deadline_allowance{2000000}; // 2 ms
} // namespace

compiled_policy compile_modes(const policy_inputs& in, const resource_map& map)
{
    compiled_policy out;
    out.origin_mode = wire::modes::identification;

    // Deadline: slack x total one-way path latency + fixed allowance.
    std::int64_t path_ns = 0;
    for (const auto& s : in.segments) path_ns += s.one_way_latency.ns;
    const double budget_ns =
        static_cast<double>(path_ns) * deadline_slack + static_cast<double>(deadline_allowance.ns);
    out.deadline_us = static_cast<std::uint32_t>(budget_ns / 1000.0);

    // Recovery buffer: explicit, or nearest upstream buffer in the map.
    wire::ipv4_addr buffer = in.recovery_buffer;
    if (buffer == 0) {
        std::vector<wire::ipv4_addr> addrs;
        for (const auto& s : in.segments) addrs.push_back(s.boundary_element);
        if (auto r = map.nearest_upstream_buffer(addrs, addrs.size())) buffer = r->addr;
    }

    wire::mode current = out.origin_mode;
    for (std::size_t i = 0; i < in.segments.size(); ++i) {
        const auto& seg = in.segments[i];
        if (seg.boundary_element == 0) continue;

        pnet::mode_rule rule;
        rule.experiment = in.experiment;
        wire::mode next = current;

        switch (seg.k) {
        case path_segment::kind::daq:
            // Inside the instrument: identification only (mode 0).
            break;
        case path_segment::kind::wan:
            // Crossing into the WAN: take up sequencing + recovery from
            // the nearest buffer + the age budget + backpressure.
            rule.set_bits = wire::feature_bit(wire::feature::sequencing)
                | wire::feature_bit(wire::feature::retransmission)
                | wire::feature_bit(wire::feature::timeliness)
                | wire::feature_bit(wire::feature::backpressure);
            rule.buffer_addr = buffer;
            rule.deadline_us = out.deadline_us;
            rule.notify_addr = in.notify_addr;
            next.cfg_data |= rule.set_bits;
            break;
        case path_segment::kind::campus:
            // Past the last lossy segment: in-network signalling is dead
            // weight, but sequencing + the buffer address must survive to
            // the destination — DTN 2 is the one that detects loss and
            // NAKs (§5.4). Keep timeliness for the destination check.
            rule.set_bits = wire::feature_bit(wire::feature::timeliness);
            rule.clear_bits = wire::feature_bit(wire::feature::backpressure)
                | wire::feature_bit(wire::feature::pacing);
            rule.deadline_us = out.deadline_us;
            rule.notify_addr = in.notify_addr;
            next.cfg_data = (next.cfg_data | rule.set_bits) & ~rule.clear_bits;
            break;
        }

        if (rule.set_bits != 0 || rule.clear_bits != 0) {
            out.transitions.push_back(segment_mode_plan{seg.boundary_element, rule, next});
            current = next;
        }
    }

    // NAK retry: a bit above the round trip from the receiver back to
    // the buffer (sum of lossy-and-later segment latencies, both ways).
    std::int64_t recovery_rtt_ns = 0;
    for (const auto& s : in.segments)
        if (s.k != path_segment::kind::daq) recovery_rtt_ns += 2 * s.one_way_latency.ns;
    out.suggested_nak_retry = sim_duration{recovery_rtt_ns + recovery_rtt_ns / 4
                                           + 1000000};
    return out;
}

} // namespace mmtp::control
