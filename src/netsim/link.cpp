#include "netsim/link.hpp"

#include "common/trace.hpp"
#include "netsim/engine.hpp"
#include "netsim/node.hpp"

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
    const std::uint64_t pid = p.id;
    const std::uint64_t wire = p.wire_size();
    if (!up_) {
        stats_.dropped_down++;
        stats_.dropped_down_bytes += wire;
        trace::emit(eng_.now(), trace_site_, trace::hop::link_drop, pid, wire,
                    trace::reason::link_down);
        return;
    }
    if (wire > link_mtu) {
        stats_.dropped_oversize++;
        trace::emit(eng_.now(), trace_site_, trace::hop::link_drop, pid, wire,
                    trace::reason::oversize);
        return;
    }
    // Cut-through: an idle serializer with an empty queue takes the
    // packet directly — same timing, same statistics, two fewer moves.
    if (!busy() && queue_->empty() && queue_->would_accept(p)) {
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
        return;
    }
    trace::emit(eng_.now(), trace_site_, trace::hop::link_enqueue, pid, wire);
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

} // namespace mmtp::netsim
