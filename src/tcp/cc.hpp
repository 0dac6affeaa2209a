// cc.hpp — CUBIC congestion control for the TCP baseline.
//
// The baseline reproduces today's tuned DTNs (§4), which run the Linux
// default, CUBIC. The window is kept in bytes; connection.cpp owns one
// `cubic` by value and feeds it acks, RTT samples, losses and timeouts.
#pragma once

#include "common/units.hpp"

#include <cstdint>

namespace mmtp::tcp {

/// CUBIC (RFC 8312-flavoured): window growth is a cubic function of time
/// since the last loss, anchored at the pre-loss window w_max.
class cubic {
public:
    cubic(std::uint32_t mss, std::uint64_t init_cwnd_bytes);

    void on_ack(std::uint64_t newly_acked_bytes, sim_time now);
    /// RTT sample feedback (HyStart-style slow-start exit).
    void on_rtt_sample(sim_duration rtt);
    /// Triple-dupack style loss (fast retransmit entry).
    void on_loss(sim_time now);
    /// Retransmission timeout: collapse to one segment.
    void on_timeout(sim_time now);

    std::uint64_t cwnd() const { return cwnd_; }

private:
    static constexpr double c_ = 0.4;
    static constexpr double beta_ = 0.3; // CUBIC's multiplicative decrease

    std::uint32_t mss_;
    std::uint64_t cwnd_;
    std::uint64_t ssthresh_;
    std::uint64_t w_max_{0};
    double k_{0.0};
    sim_time epoch_start_{sim_time::never()};
    sim_duration min_rtt_{sim_duration::zero()};
};

} // namespace mmtp::tcp
