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
#include "scenario/driver.hpp"
#include "tcp/stack.hpp"
#include "udp/udp.hpp"

#include <memory>

namespace mmtp::scenario {

/// What the status-quo pipeline varies: the WAN span's delay and loss
/// (the benches sweep both) and the TCP tuning (campaign::generate).
/// Every span runs at 100 Gbps and the campus leg and queues are fixed
/// in today.cpp; tuned TCP keeps tuned_dtn_config's 30 Gbps per-stream
/// host ceiling (§4.1).
struct today_config {
    std::uint64_t seed{42};
    sim_duration wan_delay{sim_duration{10000000}}; // 10 ms one way
    double wan_loss{0.0};
    /// Tuned DTN TCP (big buffers, CUBIC, host ceiling) vs stock config.
    bool tuned{true};

    bool operator==(const today_config&) const = default;
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

/// The status-quo pipeline of Fig. 2 (UDP ingest stage).
class today_driver : public driver {
public:
    struct options {
        today_config today{};
        std::uint32_t message_bytes{5000};
        std::uint64_t messages{200};
        sim_duration message_interval{sim_duration{10000}}; // 10 us

        bool operator==(const options&) const = default;
    };
    explicit today_driver(options opt);

    std::string describe() const override;
    run_context build() override;
    telemetry::table report(telemetry::metrics_registry& reg) override;
    /// The pipeline has no sequencing: acceptance is byte accounting at
    /// the first UDP hop (and scenarios of it are lossy).
    acceptance accept() override;

    today_testbed& testbed() { return *tb_; }
    /// UDP payload bytes scheduled at the sensor (valid after build()).
    std::uint64_t bytes_scheduled() const { return bytes_scheduled_; }

private:
    options opt_;
    std::unique_ptr<today_testbed> tb_;
    std::uint64_t bytes_scheduled_{0};
};

} // namespace mmtp::scenario
