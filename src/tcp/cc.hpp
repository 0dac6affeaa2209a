// cc.hpp — congestion-control algorithms for the TCP baseline.
//
// Two algorithms cover today's DTN practice: Reno/NewReno (the classical
// behaviour the paper's §4 complaints are calibrated against) and CUBIC
// (the Linux default used on tuned DTNs). Both operate on a cwnd in
// bytes. The interface is event-driven so connection.cpp stays free of
// algorithm detail.
#pragma once

#include "common/units.hpp"

#include <cstdint>
#include <memory>
#include <string>

namespace mmtp::tcp {

class congestion_control {
public:
    virtual ~congestion_control() = default;

    virtual void on_ack(std::uint64_t newly_acked_bytes, sim_time now) = 0;
    /// RTT sample feedback (HyStart-style slow-start exit); default no-op.
    virtual void on_rtt_sample(sim_duration) {}
    /// Triple-dupack style loss (fast retransmit entry).
    virtual void on_loss(sim_time now) = 0;
    /// Retransmission timeout: collapse to one segment.
    virtual void on_timeout(sim_time now) = 0;

    virtual std::uint64_t cwnd() const = 0;
    virtual std::string name() const = 0;
};

struct cc_config {
    std::uint32_t mss{8960};
    std::uint64_t init_cwnd_bytes{10 * 8960};
};

std::unique_ptr<congestion_control> make_reno(cc_config cfg);
std::unique_ptr<congestion_control> make_cubic(cc_config cfg);

enum class cc_kind { reno, cubic };

std::unique_ptr<congestion_control> make_cc(cc_kind kind, cc_config cfg);

} // namespace mmtp::tcp
