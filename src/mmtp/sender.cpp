#include "mmtp/sender.hpp"

#include "common/trace.hpp"
#include "netsim/engine.hpp"

#include <algorithm>

namespace mmtp::core {

sender::sender(stack& st, wire::ipv4_addr dst, sender_config cfg)
    : stack_(st), dst_(dst), cfg_(cfg)
{
    if (cfg_.honor_backpressure)
        stack_.add_backpressure_handler(
            [this](const wire::backpressure_body& b) { on_backpressure(b); });
}

sender::sender(stack& st, l2_egress egress, sender_config cfg)
    : stack_(st), l2_port_(egress.port), cfg_(cfg)
{
    if (cfg_.honor_backpressure)
        stack_.add_backpressure_handler(
            [this](const wire::backpressure_body& b) { on_backpressure(b); });
}

data_rate sender::effective_pace() const
{
    if (cfg_.pace.bits_per_sec == 0 || pace_scale_ >= 1.0) return cfg_.pace;
    return data_rate{static_cast<std::uint64_t>(
        static_cast<double>(cfg_.pace.bits_per_sec) * pace_scale_)};
}

void sender::reroute(wire::ipv4_addr new_dst)
{
    if (!dst_) return; // L2 senders have no routable destination
    stats_.reroutes++;
    dst_ = new_dst;
    epoch_++;
}

void sender::set_origin_mode(wire::mode m)
{
    if (m == cfg_.origin_mode) return;
    cfg_.origin_mode = m;
    stats_.origin_mode_updates++;
}

void sender::on_backpressure(const wire::backpressure_body& b)
{
    stats_.backpressure_signals++;
    const auto now = stack_.sim().now();

    // Multiplicative decrease, proportional to the signalled level. Only
    // downward: a later, weaker signal must not relax a stronger
    // suppression already in force.
    const double span = 1.0 - cfg_.min_pace_fraction;
    double target = 1.0 - span * (static_cast<double>(b.level) / 255.0);
    if (target < cfg_.min_pace_fraction) target = cfg_.min_pace_fraction;
    if (target < pace_scale_) {
        if (pace_scale_ >= 1.0) suppressed_since_ = now;
        pace_scale_ = target;
        stats_.bp_decreases++;
        if (pace_scale_ <= cfg_.min_pace_fraction) stats_.bp_floor_hits++;
    }
    if (b.level > bp_level_) bp_level_ = b.level;

    // Every signal pushes the quiet-period horizon out; keep the max so
    // overlapping signals extend, never shorten, the hold.
    const auto until = now + cfg_.timing.hold;
    if (until > bp_until_) bp_until_ = until;
    schedule_recovery();
}

void sender::schedule_recovery()
{
    if (pace_scale_ >= 1.0) return;
    if (recovery_scheduled_) {
        // The quiet period moved: drop the superseded timer and re-arm at
        // the new horizon (it would otherwise fire dead and reschedule).
        if (!stack_.sim().cancel(recovery_timer_)) return;
        recovery_scheduled_ = false;
    }
    recovery_scheduled_ = true;
    recovery_timer_ = stack_.sim().schedule_cancellable_in(
        bp_until_ - stack_.sim().now(), netsim::task_class::protocol, [this] {
            recovery_scheduled_ = false;
            recovery_step();
        });
}

void sender::recovery_step()
{
    if (pace_scale_ >= 1.0) return;
    const auto now = stack_.sim().now();
    if (now < bp_until_) { // a fresher signal extended the quiet period
        schedule_recovery();
        return;
    }

    // Additive increase toward the configured pace.
    pace_scale_ += cfg_.recovery_step_fraction;
    stats_.bp_recovery_steps++;
    if (pace_scale_ >= 1.0) {
        pace_scale_ = 1.0;
        bp_level_ = 0;
        stats_.bp_recoveries++;
        stats_.suppressed_ns += static_cast<std::uint64_t>((now - suppressed_since_).ns);
    } else {
        recovery_scheduled_ = true;
        recovery_timer_ = stack_.sim().schedule_cancellable_in(
            cfg_.timing.recovery_interval, netsim::task_class::protocol, [this] {
                recovery_scheduled_ = false;
                recovery_step();
            });
    }
}

void sender::send_message(const daq::daq_message& msg)
{
    stats_.messages++;

    std::uint64_t remaining = msg.size_bytes;
    std::span<const std::uint8_t> inline_left(msg.inline_payload);
    bool first = true;
    while (remaining > 0 || first) {
        first = false;
        const std::uint64_t chunk =
            remaining < cfg_.max_datagram_payload ? remaining : cfg_.max_datagram_payload;

        wire::header h;
        h.m = cfg_.origin_mode;
        h.experiment = msg.experiment;
        h.m.set(wire::feature::timestamped);
        h.timestamp_ns = msg.timestamp_ns;
        // The origin mode may activate features whose values the network
        // fills in (e.g. timeliness: the boundary element sets the
        // deadline); emit default-valued fields so the header is
        // well-formed on the wire.
        wire::materialize_missing_fields(h);
        // Origin-sequenced streams carry the sender's current epoch so a
        // reroute is visible as an epoch change downstream.
        if (h.sequencing) h.sequencing->epoch = epoch_;

        // Real bytes first, virtual bulk for the rest.
        std::vector<std::uint8_t> payload;
        std::uint64_t extra_virtual = 0;
        const std::uint64_t take_inline =
            inline_left.size() < chunk ? inline_left.size() : chunk;
        payload.assign(inline_left.begin(), inline_left.begin() + take_inline);
        inline_left = inline_left.subspan(take_inline);
        extra_virtual = chunk - take_inline;

        enqueue_datagram(std::move(h), std::move(payload), extra_virtual);
        remaining -= chunk;
    }
}

std::uint64_t sender::drive(daq::message_source& src, std::uint64_t limit)
{
    auto& sim = stack_.sim();
    const sim_time now = sim.now();
    auto chain = std::make_unique<emission_chain>();
    while (limit == 0 || chain->size() < limit) {
        auto tm = src.next();
        if (!tm) break;
        chain->push_back({tm->at < now ? now : tm->at, 0, std::move(tm->msg)});
    }
    const std::uint64_t n = chain->size();
    if (n == 0) return 0;
    std::uint64_t seq = sim.reserve_seq(n);
    for (auto& e : *chain) e.seq = seq++;
    // Sources are mostly time-ordered already.
    const auto sooner = [](const emission& a, const emission& b) {
        return a.at != b.at ? a.at < b.at : a.seq < b.seq;
    };
    if (!std::is_sorted(chain->begin(), chain->end(), sooner))
        std::sort(chain->begin(), chain->end(), sooner);
    schedule_emission(std::move(chain));
    return n;
}

void sender::schedule_emission(std::unique_ptr<emission_chain> chain)
{
    const sim_time at = chain->front().at;
    const std::uint64_t seq = chain->front().seq;
    // Each emission schedules the next from inside its own event, which
    // is what keeps reserved keys in their pre-scheduled order.
    stack_.sim().schedule_reserved(
        at, seq, netsim::task_class::protocol, [this, chain = std::move(chain)]() mutable {
            const daq::daq_message msg = std::move(chain->front().msg);
            chain->pop_front();
            if (!chain->empty()) schedule_emission(std::move(chain));
            send_message(msg);
        });
}

void sender::enqueue_datagram(wire::header h, std::vector<std::uint8_t> payload,
                              std::uint64_t extra_virtual)
{
    if (cfg_.pace.bits_per_sec == 0) {
        transmit(std::move(h), std::move(payload), extra_virtual);
        return;
    }
    queue_.push_back(pending{std::move(h), std::move(payload), extra_virtual});
    if (queue_.size() > stats_.queued_peak) stats_.queued_peak = queue_.size();
    pump();
}

void sender::pump()
{
    auto& eng = stack_.sim();
    while (!queue_.empty()) {
        const auto now = eng.now();
        if (pace_ready_ > now) {
            if (!pump_scheduled_) {
                pump_scheduled_ = true;
                eng.schedule_at(pace_ready_, netsim::task_class::protocol, [this] {
                    pump_scheduled_ = false;
                    pump();
                });
            }
            return;
        }
        auto item = std::move(queue_.front());
        queue_.pop_front();
        const std::uint64_t size = item.h.wire_size() + item.payload.size()
            + item.extra_virtual;
        const auto pace = effective_pace();
        pace_ready_ = (pace_ready_ > now ? pace_ready_ : now)
            + pace.transmission_time(size);
        transmit(std::move(item.h), std::move(item.payload), item.extra_virtual);
    }
}

void sender::transmit(wire::header h, std::vector<std::uint8_t> payload,
                      std::uint64_t extra_virtual)
{
    stats_.datagrams++;
    const std::uint64_t bytes = payload.size() + extra_virtual;
    stats_.bytes += bytes;
    std::uint64_t pid;
    if (dst_) {
        pid = stack_.send_datagram(*dst_, h, std::move(payload), extra_virtual);
    } else {
        pid = stack_.send_datagram_l2(l2_port_, h, std::move(payload), extra_virtual);
    }
    trace::emit(stack_.sim().now(), trace_site_, trace::hop::mmtp_send, pid, bytes);
}

} // namespace mmtp::core
