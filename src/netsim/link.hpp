// link.hpp — unidirectional point-to-point link.
//
// A link models: an egress queue (pluggable discipline), a serializer of
// `rate` bits/s (one packet at a time, no preemption), a propagation delay
// and a corruption process. Corruption fires per-packet with probability
// derived from a bit-error rate and the packet size — corrupted packets
// are delivered with `corrupted` set (receivers drop them after the
// integrity check fails, which is how loss appears on capacity-planned
// WAN paths, §4). A separate `drop_probability` models outright loss.
//
// On the classic path (burst == 1) a link holds at most two engine keys:
// the head of its in-flight FIFO, and a serializer kick that exists only
// while a packet waits behind the serializer. Both are reserved keys
// (engine::reserve_seq), so every dispatch keeps the (time, seq) a
// per-packet arrival event and a per-packet serializer-free event would
// have had; DESIGN.md §12 gives the ordering argument.
#pragma once

#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "common/units.hpp"
#include "netsim/engine.hpp"
#include "netsim/queue.hpp"

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace mmtp::netsim {

class node;

/// Upper bound on packets per burst event (arrival buffers are
/// preallocated at this size; link_config::burst is clamped to it).
constexpr unsigned max_burst = 64;

struct link_config {
    data_rate rate{data_rate::from_gbps(10)};
    sim_duration propagation{sim_duration{1000}}; // 1 us default
    /// Bit-error rate; per-packet corruption prob = 1-(1-ber)^bits,
    /// approximated as min(1, ber * bits).
    double bit_error_rate{0.0};
    /// Independent per-packet drop probability (e.g. optical glitches).
    double drop_probability{0.0};
    std::uint64_t queue_capacity_bytes{4 * 1024 * 1024};
    std::uint32_t mtu{9000}; // jumbo frames are the norm in DAQ (§2.1)
    /// Packets per burst on the batched hot path. 1 (default) keeps the
    /// classic one-event-per-packet serializer; >1 coalesces same-instant
    /// sends into one pump pass and delivers arrivals in per-burst events
    /// whose packets carry exact per-packet time stamps, so same-seed
    /// metrics stay byte-identical on FIFO links without depth watchers.
    std::uint32_t burst{1};
};

struct link_stats {
    /// Packets/bytes that actually went onto the wire toward the far end
    /// (random-loss victims are counted in dropped_random* instead, so
    /// tx_packets + dropped_random == packets the serializer dequeued).
    std::uint64_t tx_packets{0};
    std::uint64_t tx_bytes{0};
    std::uint64_t corrupted{0};
    std::uint64_t dropped_random{0};
    std::uint64_t dropped_random_bytes{0};
    std::uint64_t dropped_oversize{0};
    /// Packets refused at send() because the link was down. Down drops
    /// happen before the queue, so the tx/dropped_random/dequeued
    /// reconciliation identity is unaffected by faults.
    std::uint64_t dropped_down{0};
    std::uint64_t dropped_down_bytes{0};
    /// Time the serializer spent busy (for utilization reports); includes
    /// serialization of random-loss victims, which still occupy the line.
    sim_duration busy{sim_duration::zero()};
};

class link {
public:
    /// `to` must outlive the link. A custom queue discipline may be
    /// supplied; otherwise a drop-tail FIFO of the configured capacity.
    /// The serializer horizon compares reserved keys with `eng`'s
    /// dispatch position (engine::reached).
    link(engine& eng, rng noise, node& to, unsigned ingress_port_at_dst,
         const link_config& cfg, std::unique_ptr<queue_disc> q = nullptr);

    /// Queues the packet for transmission; drops it (recording stats)
    /// if the queue is full or the packet exceeds the MTU.
    void send(packet&& p);

    /// Burst-path send: the packet logically enters the link at virtual
    /// time `t` (clamped to >= now(); stamped on the packet), letting a
    /// burst-aware sender hand over a whole burst from one event. All
    /// send_at calls from the current instant coalesce into one pump
    /// pass; the pump replays the classic serializer decisions in exact
    /// virtual-time order. Falls back to the per-packet path when burst
    /// mode is off for this link.
    void send_at(sim_time t, packet&& p);

    /// True when this link batches (config().burst > 1). Depth watchers
    /// force the classic path: backpressure hooks must observe every
    /// transient queue depth, which batching elides.
    bool burst_enabled() const { return cfg_.burst > 1 && !depth_watcher_; }

    const link_config& config() const { return cfg_; }
    const link_stats& stats() const { return stats_; }
    const queue_stats& queue_statistics() const { return queue_->stats(); }
    std::uint64_t queue_depth_bytes() const { return queue_->byte_depth(); }
    std::size_t queue_depth_packets() const { return queue_->packet_depth(); }
    node& destination() { return to_; }

    /// Observer invoked after every enqueue with the new queue depth —
    /// programmable elements hook this to originate backpressure.
    void set_depth_watcher(std::function<void(std::uint64_t bytes)> w)
    {
        depth_watcher_ = std::move(w);
    }

    // --- fault surface (driven by netsim::fault_scheduler) ---

    /// Administrative/physical state. While down: new send() calls are
    /// dropped (dropped_down), the serializer stalls with queued packets
    /// held in place, and a packet already mid-serialization completes
    /// and is delivered — it is on the wire. Repair restarts the
    /// serializer on whatever stayed queued.
    bool up() const { return up_; }
    void set_up(bool up);

    /// Observer invoked on every up/down transition (after the state
    /// change) — health monitors hook this.
    void set_state_watcher(std::function<void(bool up)> w)
    {
        state_watcher_ = std::move(w);
    }

    /// Overrides the corruption process in place (fault_scheduler uses
    /// this for burst-corruption windows).
    void set_bit_error_rate(double ber) { cfg_.bit_error_rate = ber; }

    /// Interned flight-recorder site id for hop records this link emits
    /// (0 = unnamed; records still flow, just without a site label).
    void set_trace_site(std::uint32_t site) { trace_site_ = site; }
    std::uint32_t trace_site() const { return trace_site_; }

private:
    /// The serializer is busy until dispatch reaches the horizon key
    /// (free_at_, free_seq_), the key its free event would have had.
    bool busy() const { return !eng_.reached(free_at_, free_seq_); }
    void resume();
    void kick();
    void arm_kick();
    void transmit(packet&& p);
    void arrive();

    // --- burst machinery (active only when burst_enabled()) ---
    void pump();
    void drain_queue_until(sim_time t, trace::flight_recorder* rec);
    void commit(packet&& p, sim_time pickup, trace::flight_recorder* rec);
    void flush_arrivals();

    /// Preallocated buffer for one burst-arrival event; recycled through
    /// free_bursts_ so steady-state delivery never allocates.
    struct arrival_burst {
        std::array<packet, max_burst> pkts;
        unsigned n{0};
    };
    arrival_burst* acquire_burst();
    void release_burst(arrival_burst* ab);

    engine& eng_;
    rng noise_;
    node& to_;
    unsigned ingress_port_at_dst_;
    link_config cfg_;
    std::unique_ptr<queue_disc> queue_;
    bool up_{true};
    std::uint32_t trace_site_{0};
    link_stats stats_;
    std::function<void(std::uint64_t)> depth_watcher_;
    std::function<void(bool)> state_watcher_;

    // Classic-path state. The horizon's initial key (0, 0) counts as
    // reached, so a fresh link is idle; kick_armed_ is set while the
    // kick is scheduled under the horizon key. in_flight_ holds arrivals
    // in key order, (pkt.stamp, seq); only its head has an engine key.
    struct in_flight {
        std::uint64_t seq;
        packet pkt;
    };
    sim_time free_at_{sim_time::zero()};
    std::uint64_t free_seq_{0};
    bool kick_armed_{false};
    ring_buffer<in_flight> in_flight_;

    // Burst state. sched_free_at_ is the virtual serializer horizon —
    // the time the line frees after every committed packet; pending_
    // holds this instant's sends until the pump classifies them.
    ring_buffer<packet> pending_;
    sim_time sched_free_at_{sim_time::zero()};
    bool pump_scheduled_{false};
    arrival_burst* arr_open_{nullptr};
    std::vector<std::unique_ptr<arrival_burst>> burst_pool_;
    std::vector<arrival_burst*> free_bursts_;
};

} // namespace mmtp::netsim
