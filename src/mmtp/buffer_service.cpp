#include "mmtp/buffer_service.hpp"

#include "common/trace.hpp"
#include "netsim/engine.hpp"

#include <algorithm>

namespace mmtp::core {

namespace {
/// Severity advertised in storage-pressure backpressure signals.
constexpr std::uint8_t pressure_level = 192;
} // namespace

buffer_service::buffer_service(stack& st, buffer_service_config cfg)
    : stack_(st), cfg_(cfg), buffer_(cfg.buffer)
{
    stack_.set_nak_handler([this](const wire::nak_body& nak, wire::experiment_id exp,
                                  wire::ipv4_addr src) { handle_nak(nak, exp, src); });
}

void buffer_service::attach_as_sink()
{
    stack_.set_data_sink([this](delivered_datagram&& d) { relay(std::move(d)); });
}

std::uint64_t buffer_service::next_sequence(wire::experiment_id experiment)
{
    // keyed by the FULL experiment id: each instrument slice is an
    // independent stream with its own sequence space (Req 8)
    return seq_counters_[experiment]++;
}

void buffer_service::relay(delivered_datagram d)
{
    const auto now = stack_.sim().now();
    // Datagrams that already carry a sequence number keep it (tap
    // buffers fed by duplication must agree with the on-path numbering);
    // otherwise mirror the on-path element's counter.
    const auto seq =
        d.hdr.sequencing ? d.hdr.sequencing->sequence : next_sequence(d.hdr.experiment);

    dtn::buffered_datagram entry;
    entry.sequence = seq;
    entry.epoch = d.hdr.sequencing ? d.hdr.sequencing->epoch : 0;
    entry.experiment = d.hdr.experiment;
    entry.timestamp_ns = d.hdr.timestamp_ns.value_or(static_cast<std::uint64_t>(now.ns));
    entry.size_bytes = static_cast<std::uint32_t>(d.total_payload_bytes);
    entry.inline_payload = d.payload;
    if (cfg_.persist) {
        if (cfg_.persist->append(entry))
            stats_.persisted++;
        else
            stats_.persist_rejected++;
        cfg_.persist->note_sequence(d.hdr.experiment, seq + 1);
    }
    buffer_.store(entry, now);
    check_pressure(d.src, d.hdr.experiment);

    if (cfg_.tap_only) {
        stats_.relayed++;
        stats_.relayed_bytes += d.total_payload_bytes;
        return;
    }

    wire::header h;
    h.m = d.hdr.m;
    h.experiment = d.hdr.experiment;
    h.timestamp_ns = d.hdr.timestamp_ns;
    if (h.timestamp_ns) h.m.set(wire::feature::timestamped);
    h.sequencing = d.hdr.sequencing;
    h.retransmission = d.hdr.retransmission;
    h.timeliness = d.hdr.timeliness;
    h.pacing = d.hdr.pacing;

    if (cfg_.assign_sequence_locally) {
        h.m.set(wire::feature::sequencing);
        h.sequencing = wire::sequencing_field{seq, 0};
        h.m.set(wire::feature::retransmission);
        h.retransmission = wire::retransmission_field{
            cfg_.buffer_addr_override != 0 ? cfg_.buffer_addr_override
                                           : stack_.host().address()};
        if (cfg_.deadline_us > 0) {
            h.m.set(wire::feature::timeliness);
            wire::timeliness_field t;
            t.deadline_us = cfg_.deadline_us;
            t.notify_addr = cfg_.notify_addr;
            h.timeliness = t;
        }
    }

    stats_.relayed++;
    stats_.relayed_bytes += d.total_payload_bytes;
    const std::uint64_t extra_virtual = d.total_payload_bytes - d.payload.size();
    stack_.send_datagram(cfg_.next_hop, h, std::move(d.payload), extra_virtual);
}

void buffer_service::check_pressure(wire::ipv4_addr src, wire::experiment_id experiment)
{
    if (cfg_.occupancy_high_bytes == 0) return;
    const auto used = buffer_.bytes_used();
    const auto now = stack_.sim().now();

    if (!pressure_engaged_) {
        if (used < cfg_.occupancy_high_bytes) return;
        pressure_engaged_ = true;
        pressure_epoch_++;
        stats_.pressure_engagements++;
        if (pressure_handler_) pressure_handler_(true, used);
    } else if (used < cfg_.occupancy_low_bytes) {
        pressure_engaged_ = false;
        stats_.pressure_releases++;
        if (pressure_handler_) pressure_handler_(false, used);
        return;
    }

    // Tell the upstream sender to slow down — once per source per
    // engagement (the sender's own hold/recovery schedule takes it from
    // there), and never within timing.hold of the previous signal to the
    // same source: a watermark flapping across engagements must not turn
    // into a signal storm. L2-fed taps have no routable source to signal.
    if (src == 0) return;
    auto& sig = signalled_[src];
    if (sig.epoch == pressure_epoch_) return;
    if (cfg_.timing.hold.ns > 0 && sig.epoch != 0
        && (now - sig.last).ns < cfg_.timing.hold.ns) {
        return; // suppressed; re-checked on the next store/poll
    }
    sig = {pressure_epoch_, now};

    wire::backpressure_body body;
    body.level = pressure_level;
    body.origin = stack_.host().address();
    body.queue_depth_pkts = static_cast<std::uint32_t>(buffer_.entries());
    byte_writer w;
    serialize(body, w);
    stack_.send_control(src, experiment, wire::control_type::backpressure, w.take());
    stats_.pressure_signals++;
    trace::emit(now, trace_site_, trace::hop::sw_backpressure, 0, body.level);
}

void buffer_service::poll_pressure()
{
    if (cfg_.occupancy_high_bytes == 0) return;
    buffer_.sweep(stack_.sim().now());
    check_pressure(0, 0);
    prune_signals();
}

void buffer_service::prune_signals()
{
    // Long-run memory bound: a signal record only influences suppression
    // while it belongs to the current engagement or is still inside the
    // timing.hold quiet period. Anything older is dead state — over a
    // soak with churning upstream sources it would otherwise grow one
    // entry per source forever.
    const auto now = stack_.sim().now();
    const auto pruned = std::erase_if(signalled_, [&](const auto& kv) {
        const auto& s = kv.second;
        const bool stale_epoch = !pressure_engaged_ || s.epoch != pressure_epoch_;
        const bool hold_elapsed = cfg_.timing.hold.ns == 0
            || (now - s.last).ns >= cfg_.timing.hold.ns;
        return stale_epoch && hold_elapsed;
    });
    stats_.signals_pruned += pruned;
}

void buffer_service::handle_nak(const wire::nak_body& nak, wire::experiment_id experiment,
                                wire::ipv4_addr /*src*/)
{
    stats_.nak_requests++;
    const auto now = stack_.sim().now();

    // Each stored sequence in range is read in place and leaves at once,
    // or waits in the paced queue with its own copy of the inline bytes.
    const auto repair = [&](const dtn::buffered_datagram& entry) {
        std::vector<std::uint8_t> payload(entry.inline_payload.begin(),
                                          entry.inline_payload.end());
        if (cfg_.retransmit_pace.bits_per_sec == 0) {
            send_retransmit(nak.requester, entry, std::move(payload));
            return;
        }
        // Paced repair: a re-NAK of a sequence still waiting in the
        // queue is absorbed — re-sending it would only lengthen the
        // very backlog that delayed the first copy.
        const auto key =
            std::make_tuple(nak.requester, entry.experiment, entry.epoch, entry.sequence);
        if (!queued_.insert(key).second) {
            stats_.retransmit_dedup++;
            return;
        }
        auto& queued = rtx_queue_.emplace_back(nak.requester, entry, std::move(payload));
        queued.entry.inline_payload = {}; // the buffer's bytes may go first
        if (rtx_queue_.size() > stats_.retransmit_queue_peak)
            stats_.retransmit_queue_peak = rtx_queue_.size();
    };
    for (const auto& range : nak.ranges) {
        const auto found =
            buffer_.fetch_range(experiment, nak.epoch, range.first, range.last, now, repair);
        stats_.unavailable += (range.last - range.first + 1) - found;
    }
    if (!rtx_queue_.empty()) pump_retransmits();
}

void buffer_service::send_retransmit(wire::ipv4_addr to, const dtn::buffered_datagram& entry,
                                     std::vector<std::uint8_t> payload)
{
    wire::header h;
    h.experiment = entry.experiment;
    h.m.set(wire::feature::sequencing);
    h.sequencing = wire::sequencing_field{entry.sequence, entry.epoch};
    h.m.set(wire::feature::retransmission);
    h.retransmission = wire::retransmission_field{stack_.host().address()};
    h.m.set(wire::feature::timestamped);
    h.timestamp_ns = entry.timestamp_ns;
    if (cfg_.deadline_us > 0) {
        h.m.set(wire::feature::timeliness);
        wire::timeliness_field t;
        t.deadline_us = cfg_.deadline_us;
        t.notify_addr = cfg_.notify_addr;
        h.timeliness = t;
    }
    const std::uint64_t extra_virtual =
        entry.size_bytes > payload.size() ? entry.size_bytes - payload.size() : 0;
    const std::uint64_t pid = stack_.send_datagram(to, h, std::move(payload), extra_virtual);
    stats_.retransmitted++;
    // Binding record: ties the fresh packet id to the sequence.
    trace::emit(stack_.sim().now(), trace_site_, trace::hop::mmtp_retransmit, pid,
                entry.sequence);
}

void buffer_service::pump_retransmits()
{
    auto& eng = stack_.sim();
    while (!rtx_queue_.empty()) {
        const auto now = eng.now();
        if (rtx_ready_.ns > now.ns) {
            if (!rtx_pump_scheduled_) {
                rtx_pump_scheduled_ = true;
                eng.schedule_at(rtx_ready_, netsim::task_class::protocol, [this] {
                    rtx_pump_scheduled_ = false;
                    pump_retransmits();
                });
            }
            return;
        }
        auto next = std::move(rtx_queue_.front());
        rtx_queue_.pop_front();
        queued_.erase(std::make_tuple(next.to, next.entry.experiment, next.entry.epoch,
                                      next.entry.sequence));
        send_retransmit(next.to, next.entry, std::move(next.payload));
        const auto start = rtx_ready_.ns > now.ns ? rtx_ready_ : now;
        rtx_ready_ =
            start + cfg_.retransmit_pace.transmission_time(next.entry.size_bytes);
    }
}

void buffer_service::flush(unsigned copies)
{
    // Emit markers in ascending experiment order: seq_counters_ is
    // hashed, and packet emission order is telemetry-observable — the
    // walk must not depend on hash iteration order.
    std::vector<std::uint32_t> experiments;
    experiments.reserve(seq_counters_.size());
    for (const auto& [experiment, next_seq] : seq_counters_) {
        (void)next_seq;
        experiments.push_back(experiment);
    }
    std::sort(experiments.begin(), experiments.end());
    for (const auto experiment : experiments) {
        wire::stream_flush_body body;
        body.experiment = experiment;
        body.epoch = 0;
        body.next_sequence = seq_counters_[experiment];
        byte_writer w;
        serialize(body, w);
        for (unsigned i = 0; i < copies; ++i) {
            stack_.send_control(cfg_.next_hop, experiment,
                                wire::control_type::stream_flush, w.view().size()
                                    ? std::vector<std::uint8_t>(w.view().begin(),
                                                                w.view().end())
                                    : std::vector<std::uint8_t>{});
        }
    }
}

void buffer_service::crash()
{
    // Everything in memory dies with the node; the durable store (the
    // disk) keeps its sealed chunks and loses the open tail.
    buffer_ = dtn::retransmission_buffer(cfg_.buffer);
    seq_counters_.clear();
    rtx_queue_.clear();
    queued_.clear();
    rtx_ready_ = sim_time::zero();
    pressure_engaged_ = false;
    signalled_.clear();
    stats_.crashes++;
    if (cfg_.persist) stats_.tail_lost += cfg_.persist->crash();
    // A pending pump event may still fire; it finds an empty queue and
    // rtx_pump_scheduled_ resets itself — harmless.
}

std::uint64_t buffer_service::revive(wire::ipv4_addr collector)
{
    std::uint64_t n = 0;
    if (cfg_.persist) {
        const auto now = stack_.sim().now();
        const auto rec = cfg_.persist->recover(
            [&](const dtn::buffered_datagram& d) { buffer_.store(d, now); });
        n = rec.records;
        for (const auto& [experiment, next] : rec.next_sequences) {
            auto& slot = seq_counters_[experiment];
            if (next > slot) slot = next;
        }
        stats_.recovered_records += n;
    }
    stats_.revivals++;
    if (collector != 0) advertise(collector);
    return n;
}

void buffer_service::advertise(wire::ipv4_addr collector)
{
    wire::buffer_advert_body body;
    body.buffer_addr = stack_.host().address();
    body.capacity_bytes = buffer_.config().capacity_bytes;
    body.retention_ms = static_cast<std::uint32_t>(buffer_.config().retention.millis());
    body.secondary_addr = cfg_.secondary_buffer;
    byte_writer w;
    serialize(body, w);
    stack_.send_control(collector, 0, wire::control_type::buffer_advert, w.take());
}

} // namespace mmtp::core
