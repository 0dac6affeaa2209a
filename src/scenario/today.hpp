// today.hpp — the status-quo pipeline of Fig. 2.
//
//   sensor ──UDP──► DTN1 ──TCP (tuned)──► storage DTN ──TCP──► campus
//
// UDP (or bare Ethernet) inside the DAQ network, then TCP termination and
// store-and-forward relaying at each stage — "several stages of
// connection termination, buffering, and protocol tuning" (§4). The
// testbed exposes each stage so benches can measure per-stage throughput,
// buffering, and end-to-end latency of the relay pipeline.
#pragma once

#include "daq/message.hpp"
#include "netsim/network.hpp"
#include "pnet/element.hpp"
#include "tcp/stack.hpp"
#include "udp/udp.hpp"

#include <memory>

namespace mmtp::scenario {

struct today_config {
    std::uint64_t seed{42};
    data_rate daq_rate{data_rate::from_gbps(100)};
    data_rate wan_rate{data_rate::from_gbps(100)};
    sim_duration wan_delay{sim_duration{10000000}}; // 10 ms one way
    double wan_loss{0.0};
    data_rate campus_rate{data_rate::from_gbps(100)};
    sim_duration campus_delay{sim_duration{5000000}}; // 5 ms one way
    /// Tuned DTN TCP (big buffers, CUBIC, host ceiling) vs stock config.
    bool tuned{true};
    /// Per-stream end-host ceiling for tuned TCP (§4.1: ~30 Gbps).
    data_rate tcp_host_limit{data_rate::from_gbps(30)};
    std::uint64_t wan_queue_bytes{32ull * 1024 * 1024};
    /// Packets per burst on every span (1 = classic per-packet path).
    std::uint32_t link_burst{1};
};

/// Pipes one TCP connection's delivered bytes into another (the
/// store-and-forward relay a storage DTN performs today).
class tcp_relay {
public:
    tcp_relay(tcp::connection& in, tcp::connection& out);

    std::uint64_t relayed() const { return relayed_; }

private:
    void pump();

    tcp::connection& in_;
    tcp::connection& out_;
    std::uint64_t relayed_{0};
};

struct today_testbed {
    netsim::network net;
    today_config cfg;

    netsim::host* sensor{nullptr};
    netsim::host* dtn1{nullptr};
    netsim::host* storage{nullptr};
    netsim::host* campus{nullptr};

    pnet::programmable_switch* border{nullptr};
    pnet::programmable_switch* storage_router{nullptr};

    std::unique_ptr<udp::stack> sensor_udp;
    std::unique_ptr<udp::stack> dtn1_udp;
    std::unique_ptr<tcp::stack> dtn1_tcp;
    std::unique_ptr<tcp::stack> storage_tcp;
    std::unique_ptr<tcp::stack> campus_tcp;

    /// UDP port DAQ data arrives on at DTN1.
    static constexpr std::uint16_t daq_port = 7000;
    /// TCP ports for the WAN and campus hops.
    static constexpr std::uint16_t storage_port = 5001;
    static constexpr std::uint16_t campus_port = 5002;

    /// The TCP config the WAN hop uses (derived from cfg).
    tcp::tcp_config wan_tcp_config() const;
    tcp::tcp_config campus_tcp_config() const;

    /// Schedules every message of `src` as UDP datagrams from the
    /// sensor toward DTN1 (splitting messages into MTU-sized datagrams).
    /// Returns total bytes scheduled.
    std::uint64_t drive_sensor(daq::message_source& src, std::uint64_t limit = 0);

    /// Bytes that arrived at DTN1 over UDP so far.
    std::uint64_t dtn1_received_bytes{0};
    std::uint64_t dtn1_received_datagrams{0};
};

std::unique_ptr<today_testbed> make_today(const today_config& cfg);

} // namespace mmtp::scenario
