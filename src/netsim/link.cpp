#include "netsim/link.hpp"

#include "netsim/engine.hpp"
#include "netsim/node.hpp"

#include <limits>

namespace mmtp::netsim {

link::link(engine& eng, rng noise, node& to, unsigned ingress_port_at_dst,
           const link_config& cfg, std::unique_ptr<queue_disc> q)
    : eng_(eng),
      noise_(noise),
      to_(to),
      ingress_port_at_dst_(ingress_port_at_dst),
      cfg_(cfg),
      queue_(q ? std::move(q) : std::make_unique<drop_tail_queue>(cfg.queue_capacity_bytes))
{
    if (cfg_.burst == 0) cfg_.burst = 1;
    if (cfg_.burst > max_burst) cfg_.burst = max_burst;
}

void link::set_up(bool up)
{
    if (up_ == up) return;
    up_ = up;
    trace::emit(eng_.now(), trace_site_, up_ ? trace::hop::link_up : trace::hop::link_down,
                0, queue_->packet_depth());
    if (state_watcher_) state_watcher_(up_);
    // Repair restarts the serializer on whatever survived in the queue.
    if (up_) resume();
}

void link::send(packet&& p)
{
    // Burst links funnel everything through the pump so classic senders
    // and burst-aware senders interleave in one coherent virtual-time
    // order. Non-burst links (the default) never reach the pump.
    if (burst_enabled()) {
        send_at(eng_.now(), std::move(p));
        return;
    }
    const std::uint64_t pid = p.id;
    const std::uint64_t wire = p.wire_size();
    if (!up_) {
        stats_.dropped_down++;
        stats_.dropped_down_bytes += wire;
        trace::emit(eng_.now(), trace_site_, trace::hop::link_drop, pid, wire,
                    trace::reason::link_down);
        return;
    }
    if (wire > cfg_.mtu) {
        stats_.dropped_oversize++;
        trace::emit(eng_.now(), trace_site_, trace::hop::link_drop, pid, wire,
                    trace::reason::oversize);
        return;
    }
    // Cut-through: an idle serializer with an empty queue takes the
    // packet directly — same timing, same statistics, two fewer moves.
    // Depth watchers disable it (they must observe the transient depth).
    if (!busy() && !depth_watcher_ && queue_->empty() && queue_->would_accept(p)) {
        queue_->note_passthrough(wire);
        trace::emit(eng_.now(), trace_site_, trace::hop::link_enqueue, pid, wire);
        trace::emit(eng_.now(), trace_site_, trace::hop::link_dequeue, pid, wire);
        transmit(std::move(p));
        return;
    }
    if (!queue_->enqueue(std::move(p))) {
        // queue discipline recorded the drop
        trace::emit(eng_.now(), trace_site_, trace::hop::link_drop, pid, wire,
                    trace::reason::queue_full);
        if (depth_watcher_) depth_watcher_(queue_->byte_depth());
        return;
    }
    trace::emit(eng_.now(), trace_site_, trace::hop::link_enqueue, pid, wire);
    if (depth_watcher_) depth_watcher_(queue_->byte_depth());
    resume();
}

/// Starts the next queued packet now if the serializer is free, else at
/// its horizon.
void link::resume()
{
    if (!busy())
        kick();
    else if (!queue_->empty())
        arm_kick();
}

/// Runs with the serializer free: starts the next queued packet.
void link::kick()
{
    if (!up_) return;
    packet next;
    if (!queue_->dequeue_into(next)) return;
    trace::emit(eng_.now(), trace_site_, trace::hop::link_dequeue, next.id, next.wire_size());
    transmit(std::move(next));
}

/// Schedules the kick under the horizon key, the key a serializer-free
/// event scheduled at transmit would have; at most one is pending.
void link::arm_kick()
{
    if (kick_armed_) return;
    kick_armed_ = true;
    eng_.schedule_reserved(free_at_, free_seq_, task_class::link_tx, [this] {
        kick_armed_ = false;
        kick();
    });
}

void link::transmit(packet&& p)
{
    const sim_time now = eng_.now();
    const auto wire = p.wire_size();
    const auto tx = cfg_.rate.transmission_time(wire);
    stats_.busy = stats_.busy + tx; // the serializer runs even for lost packets

    // Corruption / random-loss processes.
    bool drop = false;
    if (cfg_.drop_probability > 0.0 && noise_.chance(cfg_.drop_probability)) {
        stats_.dropped_random++;
        stats_.dropped_random_bytes += wire;
        trace::emit(now, trace_site_, trace::hop::link_drop, p.id, wire,
                    trace::reason::random_loss);
        drop = true;
    } else {
        stats_.tx_packets++;
        stats_.tx_bytes += wire;
    }
    if (!drop && cfg_.bit_error_rate > 0.0) {
        const double pkt_prob = cfg_.bit_error_rate * static_cast<double>(wire * 8);
        if (noise_.chance(pkt_prob < 1.0 ? pkt_prob : 1.0)) {
            stats_.corrupted++;
            p.corrupted = true; // delivered, then dropped by the receiver
            trace::emit(now, trace_site_, trace::hop::link_corrupt, p.id, wire);
        }
    }

    // Arrival at the far end after serialization + propagation. Its seq
    // is reserved before the horizon's, so the two keys order exactly as
    // an arrival event and then a serializer-free event scheduled here.
    if (!drop) {
        p.stamp = now + tx + cfg_.propagation; // exact arrival time
        const sim_time at = p.stamp;
        const std::uint64_t seq = eng_.reserve_seq(1);
        const bool idle = in_flight_.empty();
        in_flight_.push_back(in_flight{seq, std::move(p)});
        if (idle)
            eng_.schedule_reserved(at, seq, task_class::link_arrival, [this] { arrive(); });
    }

    // The serializer frees after the transmission time. A kick waits at
    // that horizon only while a packet is queued behind it.
    free_at_ = now + tx;
    free_seq_ = eng_.reserve_seq(1);
    if (!queue_->empty()) arm_kick();
}

/// Delivers the in-flight head, after scheduling the next arrival (so a
/// delivery that transmits on this link again finds the FIFO consistent).
void link::arrive()
{
    in_flight head = in_flight_.pop_front();
    if (!in_flight_.empty()) {
        const in_flight& next = in_flight_.front();
        eng_.schedule_reserved(next.pkt.stamp, next.seq, task_class::link_arrival,
                               [this] { arrive(); });
    }
    head.pkt.hops++;
    to_.deliver(std::move(head.pkt), ingress_port_at_dst_);
}

// --- burst machinery ----------------------------------------------------
//
// The pump replays the classic serializer event sequence in virtual time:
// pending sends and queued packets are interleaved in exact stamp order,
// every trace record and RNG draw happens at the same virtual instant and
// in the same order as the per-packet path, and each committed packet's
// arrival stamp is the exact classic arrival time. What changes is the
// event count: one pump event per sending instant and one arrival event
// per burst, instead of two events per packet.

void link::send_at(sim_time t, packet&& p)
{
    if (!burst_enabled()) {
        // Degrade to the per-packet path: immediately when due, else via
        // an event at the packet's virtual send time.
        if (t <= eng_.now()) {
            send(std::move(p));
            return;
        }
        auto push = [this, pkt = std::move(p)]() mutable { send(std::move(pkt)); };
        static_assert(inline_task::stored_inline<decltype(push)>,
                      "deferred link send closure must not heap-allocate");
        eng_.schedule_at(t, task_class::link_tx, std::move(push));
        return;
    }
    const sim_time now = eng_.now();
    p.stamp = t < now ? now : t;
    const std::uint64_t pid = p.id;
    const std::uint64_t wire = p.wire_size();
    if (!up_) {
        stats_.dropped_down++;
        stats_.dropped_down_bytes += wire;
        trace::emit(p.stamp, trace_site_, trace::hop::link_drop, pid, wire,
                    trace::reason::link_down);
        return;
    }
    if (wire > cfg_.mtu) {
        stats_.dropped_oversize++;
        trace::emit(p.stamp, trace_site_, trace::hop::link_drop, pid, wire,
                    trace::reason::oversize);
        return;
    }
    pending_.push_back(std::move(p));
    if (!pump_scheduled_) {
        pump_scheduled_ = true;
        // Same-instant FIFO means this runs after every send_at from the
        // currently-executing event — one pump pass per sending instant.
        eng_.schedule_at(now, task_class::link_tx, [this] { pump(); });
    }
}

void link::pump()
{
    pump_scheduled_ = false;
    trace::flight_recorder* rec = trace::burst_recorder(); // hoisted once per pump
    while (!pending_.empty()) {
        packet p;
        pending_.pop_front_into(p);
        const std::uint64_t wire = p.wire_size();
        if (!up_) { // flipped by an interleaved control event
            stats_.dropped_down++;
            stats_.dropped_down_bytes += wire;
            if (rec)
                rec->emit(p.stamp.ns, trace_site_, trace::hop::link_drop, p.id, wire,
                          trace::reason::link_down);
            continue;
        }
        // Packets already queued that the serializer picks up before this
        // send's instant go first — exact classic interleaving.
        drain_queue_until(p.stamp, rec);
        if (queue_->empty() && sched_free_at_ <= p.stamp && queue_->would_accept(p)) {
            // Zero-wait: the serializer is virtually idle when the packet
            // shows up — mirror of the classic cut-through, including its
            // passthrough accounting and enqueue/dequeue trace pair.
            queue_->note_passthrough(wire);
            if (rec) {
                rec->emit(p.stamp.ns, trace_site_, trace::hop::link_enqueue, p.id, wire,
                          trace::reason::none);
                rec->emit(p.stamp.ns, trace_site_, trace::hop::link_dequeue, p.id, wire,
                          trace::reason::none);
            }
            const sim_time pickup = p.stamp;
            commit(std::move(p), pickup, rec);
            continue;
        }
        const std::uint64_t pid = p.id;
        const sim_time stamp = p.stamp;
        if (!queue_->enqueue(std::move(p))) {
            // queue discipline recorded the drop
            if (rec)
                rec->emit(stamp.ns, trace_site_, trace::hop::link_drop, pid, wire,
                          trace::reason::queue_full);
            continue;
        }
        if (rec)
            rec->emit(stamp.ns, trace_site_, trace::hop::link_enqueue, pid, wire,
                      trace::reason::none);
    }
    // Whatever queued drains now at its exact future pickup times — the
    // arrival events carry the timing, no serializer events needed.
    drain_queue_until(sim_time{std::numeric_limits<std::int64_t>::max()}, rec);
    flush_arrivals();
}

void link::drain_queue_until(sim_time t, trace::flight_recorder* rec)
{
    while (!queue_->empty() && sched_free_at_ <= t) {
        packet q;
        if (!queue_->dequeue_into(q)) break;
        const sim_time pickup = sched_free_at_ < q.stamp ? q.stamp : sched_free_at_;
        if (rec)
            rec->emit(pickup.ns, trace_site_, trace::hop::link_dequeue, q.id, q.wire_size(),
                      trace::reason::none);
        commit(std::move(q), pickup, rec);
    }
}

void link::commit(packet&& p, sim_time pickup, trace::flight_recorder* rec)
{
    const auto wire = p.wire_size();
    const auto tx = cfg_.rate.transmission_time(wire);
    stats_.busy = stats_.busy + tx; // the serializer runs even for lost packets
    sched_free_at_ = pickup + tx;

    if (cfg_.drop_probability > 0.0 && noise_.chance(cfg_.drop_probability)) {
        stats_.dropped_random++;
        stats_.dropped_random_bytes += wire;
        if (rec)
            rec->emit(pickup.ns, trace_site_, trace::hop::link_drop, p.id, wire,
                      trace::reason::random_loss);
        return;
    }
    stats_.tx_packets++;
    stats_.tx_bytes += wire;
    if (cfg_.bit_error_rate > 0.0) {
        const double pkt_prob = cfg_.bit_error_rate * static_cast<double>(wire * 8);
        if (noise_.chance(pkt_prob < 1.0 ? pkt_prob : 1.0)) {
            stats_.corrupted++;
            p.corrupted = true; // delivered, then dropped by the receiver
            if (rec)
                rec->emit(pickup.ns, trace_site_, trace::hop::link_corrupt, p.id, wire,
                          trace::reason::none);
        }
    }

    p.stamp = sched_free_at_ + cfg_.propagation; // exact arrival time
    if (arr_open_ == nullptr) arr_open_ = acquire_burst();
    arr_open_->pkts[arr_open_->n++] = std::move(p);
    if (arr_open_->n >= cfg_.burst) flush_arrivals();
}

void link::flush_arrivals()
{
    arrival_burst* ab = arr_open_;
    arr_open_ = nullptr;
    if (ab == nullptr) return;
    if (ab->n == 0) {
        release_burst(ab);
        return;
    }
    auto deliver = [this, ab] {
        for (unsigned i = 0; i < ab->n; ++i) ab->pkts[i].hops++;
        to_.deliver_burst(ab->pkts.data(), ab->n, ingress_port_at_dst_);
        release_burst(ab);
    };
    static_assert(inline_task::stored_inline<decltype(deliver)>,
                  "burst arrival closure must not heap-allocate");
    eng_.schedule_at(ab->pkts[0].stamp, task_class::link_arrival, std::move(deliver));
}

link::arrival_burst* link::acquire_burst()
{
    if (!free_bursts_.empty()) {
        arrival_burst* ab = free_bursts_.back();
        free_bursts_.pop_back();
        return ab;
    }
    burst_pool_.push_back(std::make_unique<arrival_burst>());
    return burst_pool_.back().get();
}

void link::release_burst(arrival_burst* ab)
{
    ab->n = 0;
    free_bursts_.push_back(ab);
}

} // namespace mmtp::netsim
