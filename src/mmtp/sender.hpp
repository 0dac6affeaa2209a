// sender.hpp — MMTP sending endpoint.
//
// A sender turns daq_messages into MMTP datagrams in its configured
// origin mode (mode 0 at a sensor; a richer mode when the host itself is
// a DTN). It provides pacing (a leaky bucket at the configured rate) and
// reacts to in-network backpressure signals by temporarily scaling the
// pace down (Fig. 3 ⑤→①) — the protocol's lightweight alternative to
// full congestion control on capacity-planned paths (§5.3).
#pragma once

#include "daq/message.hpp"
#include "mmtp/stack.hpp"
#include "netsim/engine.hpp"
#include "mmtp/timing_profile.hpp"

#include <deque>
#include <memory>
#include <optional>

namespace mmtp::core {

struct sender_config {
    /// Origin mode; feature bits present here are emitted from source.
    wire::mode origin_mode{};
    /// Attach a source timestamp to every datagram (on by default —
    /// DAQ measurements are time-stamped, Req 7; age tracking needs it).
    bool timestamp{true};
    /// Split messages larger than this into multiple datagrams, each
    /// carrying the message's timestamp (fits jumbo frames).
    std::uint32_t max_datagram_payload{8192};
    /// Pacing rate; 0 = unpaced (sensor links are dedicated).
    data_rate pace{0};
    /// React to backpressure control messages by scaling pace (AIMD:
    /// multiplicative decrease on signal, additive recovery after a
    /// quiet period).
    bool honor_backpressure{true};
    /// Fraction of pace retained at maximum backpressure (level 255) —
    /// the multiplicative-decrease floor.
    double min_pace_fraction{0.1};
    /// Additive increase: fraction of the configured pace restored per
    /// recovery interval once the quiet period has lapsed.
    double recovery_step_fraction{0.15};
    /// Shared retry/backoff schedule. The sender uses `timing.hold` (the
    /// quiet period before recovery begins; each new signal pushes it
    /// out again) and `timing.recovery_interval`.
    timing_profile timing{};
};

struct sender_stats {
    std::uint64_t messages{0};
    std::uint64_t datagrams{0};
    std::uint64_t bytes{0};
    std::uint64_t backpressure_signals{0};
    /// Signals that actually cut the pace scale (a weaker signal during
    /// a stronger in-force suppression does not).
    std::uint64_t bp_decreases{0};
    /// Decreases clamped at the min_pace_fraction floor.
    std::uint64_t bp_floor_hits{0};
    /// Additive recovery steps taken.
    std::uint64_t bp_recovery_steps{0};
    /// Completed recoveries (pace back at the configured rate).
    std::uint64_t bp_recoveries{0};
    /// Total simulated time spent below the configured pace, accumulated
    /// when a recovery completes.
    std::uint64_t suppressed_ns{0};
    std::uint64_t queued_peak{0};
    std::uint64_t reroutes{0};
    /// Origin-mode changes applied by the control plane (reconfigs).
    std::uint64_t origin_mode_updates{0};
};

class sender {
public:
    /// Tag selecting L2 operation (sensors without an IP stack, Req 1):
    /// datagrams go out of the host port it names.
    struct l2_egress {
        unsigned port;
    };

    /// IPv4 operation: datagrams go to `dst` (the next processing stage).
    sender(stack& st, wire::ipv4_addr dst, sender_config cfg);
    /// L2 operation: datagrams leave via `egress.port` as raw frames.
    sender(stack& st, l2_egress egress, sender_config cfg);

    /// Enqueues a message for transmission (immediately if unpaced).
    void send_message(const daq::daq_message& msg);

    /// Drives a message_source: pulls every message (at most `limit`, 0 =
    /// all) now and emits each at its time, clamped to now(). Only one
    /// emission event per call is pending at a time — each one schedules
    /// the next — yet every message is dispatched under the key it would
    /// get if all were scheduled now, in source order (see
    /// engine::reserve_seq). Returns messages pulled.
    std::uint64_t drive(daq::message_source& src, std::uint64_t limit = 0);

    const sender_stats& stats() const { return stats_; }
    /// Current effective pace after backpressure scaling.
    data_rate effective_pace() const;
    /// True while the pace is below the configured rate.
    bool suppressed() const { return pace_scale_ < 1.0; }

    /// Control-plane reroute (failure-aware planner callback): future
    /// datagrams go to `new_dst`, and the stream epoch is bumped so
    /// receivers and buffers treat post-reroute traffic as a fresh
    /// sequence space (pre-failure sequences cannot collide with it).
    /// Only meaningful for IPv4 operation; ignored in L2 mode.
    void reroute(wire::ipv4_addr new_dst);
    std::uint16_t epoch() const { return epoch_; }

    /// Control-plane reconfiguration callback: future datagrams are
    /// emitted in `m` (feature bits *and* cfg_id — the policy epoch the
    /// plan was installed under). Datagrams already queued keep the mode
    /// they were stamped with, so they finish under the old epoch's
    /// rules (make-before-break). Unlike reroute() this does not bump
    /// the stream epoch: the sequence space is continuous across a mode
    /// shift, which is what lets receivers see no gap.
    void set_origin_mode(wire::mode m);
    wire::mode origin_mode() const { return cfg_.origin_mode; }

    /// Interned flight-recorder site id for send records (0 = unnamed).
    void set_trace_site(std::uint32_t site) { trace_site_ = site; }

private:
    /// A driven message and the (at, seq) key it is dispatched under.
    struct emission {
        sim_time at;
        std::uint64_t seq;
        daq::daq_message msg;
    };
    /// The rest of one drive() call's messages, in dispatch order.
    using emission_chain = std::deque<emission>;

    void schedule_emission(std::unique_ptr<emission_chain> chain);
    void on_backpressure(const wire::backpressure_body& b);
    void schedule_recovery();
    void recovery_step();
    void enqueue_datagram(wire::header h, std::vector<std::uint8_t> payload,
                          std::uint64_t extra_virtual);
    void pump();
    void transmit(wire::header h, std::vector<std::uint8_t> payload,
                  std::uint64_t extra_virtual);

    stack& stack_;
    std::optional<wire::ipv4_addr> dst_;
    unsigned l2_port_{netsim::no_port};
    sender_config cfg_;
    sender_stats stats_;

    struct pending {
        wire::header h;
        std::vector<std::uint8_t> payload;
        std::uint64_t extra_virtual;
    };
    std::deque<pending> queue_;
    sim_time pace_ready_{sim_time::zero()};
    bool pump_scheduled_{false};
    // AIMD state: pace_scale_ in [min_pace_fraction, 1.0] multiplies the
    // configured pace. Signals only ever lower it (a later weaker signal
    // must not relax a stronger in-force suppression); recovery raises it
    // in steps once bp_until_ (the quiet-period horizon) has passed.
    double pace_scale_{1.0};
    std::uint8_t bp_level_{0};
    sim_time bp_until_{sim_time::zero()};
    sim_time suppressed_since_{sim_time::zero()};
    bool recovery_scheduled_{false};
    // Pending recovery timer: cancelled and re-armed when a fresher
    // signal extends bp_until_, so superseded timers are dropped instead
    // of dead-firing.
    netsim::timer_handle recovery_timer_;
    std::uint16_t epoch_{0};
    std::uint32_t trace_site_{0};
};

} // namespace mmtp::core
