// connection.hpp — TCP connection state machine (baseline transport).
//
// Implements the behaviour the paper's §4 describes DAQ transfers relying
// on today: bytestream, handshake, sliding window with flow control,
// CUBIC congestion control, RTO + fast retransmit with SACK, and a
// per-stream end-host processing ceiling (`host_limit`) that reproduces
// the observed ~30 Gbps single-stream / ~55 Gbps testbed limits (§4.1).
// Segment size (8900-byte MSS), initial window (10 segments), RTO floor
// (200 ms) and initial RTO (1 s), and the 500 us delayed-ACK timer are
// constants in connection.cpp; only buffers and the host ceiling differ
// between the stock and tuned profiles.
//
// The stream payload is virtual (byte counts, not bytes): the benches
// measure throughput, FCT and delivery latency, none of which depend on
// payload content. Message delineation on top of the bytestream — and
// therefore head-of-line blocking — is observable through the
// `on_delivered` callback, which reports cumulative *in-order* bytes.
//
// There is no teardown: every transfer runs until the simulation ends,
// so no FIN or RST is ever sent, and one arriving is ignored.
#pragma once

#include "common/interval_set.hpp"
#include "common/units.hpp"
#include "netsim/host.hpp"
#include "netsim/packet.hpp"
#include "tcp/cc.hpp"
#include "tcp/segment.hpp"

#include <deque>
#include <functional>
#include <map>
#include <optional>

namespace mmtp::tcp {

struct tcp_config {
    std::uint64_t send_buffer_bytes{256 * 1024};
    std::uint64_t recv_buffer_bytes{256 * 1024};
    /// Per-stream end-host processing ceiling; 0 = unlimited. Models the
    /// DTN tuning wall: a single heavily-tuned stream tops out around
    /// 30-55 Gbps regardless of link rate (§4.1).
    data_rate host_limit{0};
};

/// A tuned-DTN profile: buffers sized to 2x the path BDP and the
/// single-stream host ceiling (default 30 Gbps as per [46]).
tcp_config tuned_dtn_config(data_rate path_rate, sim_duration rtt,
                            data_rate host_limit = data_rate::from_gbps(30));

struct connection_stats {
    std::uint64_t bytes_sent{0};
    std::uint64_t bytes_acked{0};
    std::uint64_t segments_sent{0};
    std::uint64_t retransmitted_segments{0};
    std::uint64_t fast_retransmits{0};
    std::uint64_t timeouts{0};
    sim_duration last_srtt{sim_duration::zero()};
};

class connection {
public:
    enum class state {
        closed,
        syn_sent,
        syn_received,
        established,
    };

    connection(netsim::host& h, netsim::packet_id_source& ids, tcp_config cfg,
               std::uint16_t local_port, wire::ipv4_addr remote_addr,
               std::uint16_t remote_port);

    /// Active open (client). Passive connections are created by the
    /// stack on an inbound SYN and never call connect().
    void connect();

    /// Appends `bytes` of (virtual) stream data; they are transmitted as
    /// the window allows. Returns bytes accepted (send-buffer bound).
    std::uint64_t send(std::uint64_t bytes);

    state current_state() const { return state_; }
    const connection_stats& stats() const { return stats_; }
    /// Cumulative in-order application bytes handed up so far.
    std::uint64_t delivered_bytes() const { return delivered_app_; }
    std::uint64_t acked_bytes() const { return stats_.bytes_acked; }

    /// Cumulative in-order bytes available to the application.
    void set_on_delivered(std::function<void(std::uint64_t)> cb)
    {
        on_delivered_ = std::move(cb);
    }
    void set_on_connected(std::function<void()> cb) { on_connected_ = std::move(cb); }
    /// Invoked when more send-buffer space opens (write-ready signal).
    void set_on_writable(std::function<void()> cb) { on_writable_ = std::move(cb); }

    /// Called by the stack for each inbound segment of this connection.
    void handle_segment(const segment_header& seg, std::uint64_t payload_len);

    std::uint16_t local_port() const { return local_port_; }
    wire::ipv4_addr remote_addr() const { return remote_addr_; }
    std::uint16_t remote_port() const { return remote_port_; }

    /// Marks this connection as passively opened (stack use).
    void begin_passive(const segment_header& syn);

private:
    void emit(std::uint64_t seq, std::uint64_t len, std::uint8_t flags, bool retransmission);
    void send_ack_now();
    void maybe_send_data();
    void enter_established();
    void arm_rto();
    void on_rto();
    void rtt_sample(sim_duration sample);
    std::uint64_t inflight() const;
    std::uint64_t effective_window() const;
    std::uint32_t advertised_window() const;
    std::vector<sack_block> current_sacks() const;
    void deliver_in_order();
    void process_ack(const segment_header& seg);
    sim_duration rto() const;

    netsim::host& host_;
    netsim::engine& eng_;
    netsim::packet_id_source& ids_;
    tcp_config cfg_;
    std::uint16_t local_port_;
    wire::ipv4_addr remote_addr_;
    std::uint16_t remote_port_;
    cubic cc_;

    state state_{state::closed};

    // --- sender ---
    std::uint64_t snd_una_{0};
    std::uint64_t snd_nxt_{0};
    std::uint64_t snd_high_{0}; // highest sequence ever sent (Karn guard)
    std::uint64_t app_written_{0}; // total bytes the app has queued
    std::uint64_t stream_end_{0};  // app_written_ in sequence space
    std::uint64_t rwnd_{0};
    interval_set sacked_;
    std::uint32_t dupacks_{0};
    bool in_recovery_{false};
    std::uint64_t recovery_point_{0};
    std::uint64_t rtx_cursor_{0}; // next gap to repair during recovery

    // host processing ceiling (leaky bucket)
    sim_time host_ready_{sim_time::zero()};
    bool send_pending_{false};

    // RTO machinery
    std::uint64_t rto_generation_{0};
    std::uint32_t rto_backoff_{0};
    std::optional<sim_duration> srtt_;
    sim_duration rttvar_{sim_duration::zero()};
    // RTT probes: (end_seq, sent_at) for first transmissions only
    // (Karn's rule); bounded like a TCP-timestamps implementation.
    std::deque<std::pair<std::uint64_t, sim_time>> timing_;
    static constexpr std::size_t max_timing_probes = 32;

    // --- receiver ---
    std::uint64_t rcv_nxt_{0};
    std::uint64_t delivered_app_{0};
    interval_set received_;
    std::uint32_t segs_since_ack_{0};
    bool ack_scheduled_{false};
    std::uint64_t ack_generation_{0};

    connection_stats stats_;
    std::function<void(std::uint64_t)> on_delivered_;
    std::function<void()> on_connected_;
    std::function<void()> on_writable_;
};

} // namespace mmtp::tcp
