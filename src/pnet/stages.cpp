#include "pnet/stages.hpp"

#include "common/bytes.hpp"
#include "common/trace.hpp"
#include "netsim/link.hpp"

#include <iterator>
#include <limits>

namespace mmtp::pnet {

netsim::packet make_control_packet(wire::ipv4_addr element_addr, wire::ipv4_addr dst,
                                   wire::experiment_id experiment, wire::control_type type,
                                   std::vector<std::uint8_t> body)
{
    wire::header h;
    h.m.set(wire::feature::control);
    h.experiment = experiment;
    h.control = type;

    netsim::packet p;
    wire::build_mmtp_over_ipv4(p.headers, /*src_mac=*/0, element_addr, dst, h, body.size());
    p.payload = std::move(body);
    return p;
}

// --------------------------------------------------------------------------
// mode_transition_stage

mode_transition_stage::mode_transition_stage() = default;

void mode_transition_stage::install_epoch(std::uint8_t epoch, std::vector<mode_rule> rules,
                                          element_state* state)
{
    for (auto& r : rules) {
        r.epoch = epoch;
        r.match_any_epoch = false;
    }
    // New-epoch rules go in front: they win the first-match walk for
    // datagrams stamped with the new epoch, and cannot shadow older
    // epochs because the epoch match is exact.
    rules_.insert(rules_.begin(), std::make_move_iterator(rules.begin()),
                  std::make_move_iterator(rules.end()));
    if (state != nullptr) state->bump("mode_shifts");
}

std::size_t mode_transition_stage::retire_epoch(std::uint8_t epoch, element_state* state)
{
    const auto before = rules_.size();
    std::erase_if(rules_, [epoch](const mode_rule& r) {
        return !r.match_any_epoch && r.epoch == epoch;
    });
    const auto removed = before - rules_.size();
    if (removed > 0 && state != nullptr) state->bump("epochs_retired");
    return removed;
}

bool mode_transition_stage::has_epoch(std::uint8_t epoch) const
{
    for (const auto& r : rules_)
        if (!r.match_any_epoch && r.epoch == epoch) return true;
    return false;
}

void mode_transition_stage::resolve(element_state& state)
{
    state.create_register("mode_seq", seq_register_cells);
    seq_ = state.register_id("mode_seq");
    transitions_ = state.counter_id("mode_transitions");
}

void mode_transition_stage::process(packet_context& ctx, element_state& state)
{
    ensure_bound(state);
    if (!ctx.mmtp || ctx.mmtp->m.has(wire::feature::control)) return;
    auto& h = *ctx.mmtp;

    for (const auto& rule : rules_) {
        if (!rule.match_any_experiment
            && wire::experiment_of(h.experiment) != rule.experiment)
            continue;
        if (!rule.match_any_epoch && h.m.cfg_id != rule.epoch) continue;
        if ((h.m.cfg_data & rule.require_bits) != rule.require_bits) continue;

        const auto before = h.m.cfg_data;
        h.m.cfg_data = (h.m.cfg_data | rule.set_bits) & ~rule.clear_bits;
        if (h.m.cfg_data == before && rule.set_bits == 0 && rule.clear_bits == 0) continue;

        // Activate newly set features with the rule's parameters.
        if (h.m.has(wire::feature::sequencing) && !h.sequencing) {
            // Per-stream sequence counter in a register array, indexed by
            // the full experiment id (slices are independent streams,
            // Req 8) — the pilot's elements "add a sequence number to
            // loss-recoverable streams" (§5.4). As in real P4 hardware the
            // register is a hash-indexed array: concurrent streams must
            // not collide modulo its size for buffer prediction to hold —
            // seq_cell_of reduces modulo a prime so concurrent
            // experiments cannot systematically alias (see stages.hpp).
            auto& cell = state.reg(seq_, seq_cell_of(h.experiment));
            wire::sequencing_field f;
            f.sequence = cell & 0xffffffffffffull;
            f.epoch = static_cast<std::uint16_t>(cell >> 48);
            cell++;
            h.sequencing = f;
            // Binding record: ties this packet id to its sequence number.
            trace::emit(ctx.now, state.trace_site, trace::hop::sw_seq_insert, ctx.pkt.id,
                        f.sequence);
        }
        if (!h.m.has(wire::feature::sequencing)) h.sequencing.reset();

        if (h.m.has(wire::feature::retransmission) && !h.retransmission) {
            wire::retransmission_field f;
            f.buffer_addr = rule.buffer_addr.value_or(state.element_addr);
            h.retransmission = f;
        }
        if (!h.m.has(wire::feature::retransmission)) h.retransmission.reset();

        if (h.m.has(wire::feature::timeliness) && !h.timeliness) {
            wire::timeliness_field f;
            f.deadline_us = rule.deadline_us.value_or(0);
            f.age_us = 0;
            f.notify_addr = rule.notify_addr.value_or(0);
            h.timeliness = f;
        }
        if (!h.m.has(wire::feature::timeliness)) h.timeliness.reset();

        if (h.m.has(wire::feature::pacing) && !h.pacing) {
            wire::pacing_field f;
            f.pace_mbps = rule.pace_mbps.value_or(0);
            h.pacing = f;
        }
        if (!h.m.has(wire::feature::pacing)) h.pacing.reset();

        // Fields the endpoint emitted as zero-valued placeholders get
        // their values from the rule (the network fills in what the
        // source cannot know: buffer addresses, deadlines, paces).
        if (h.retransmission && h.retransmission->buffer_addr == 0 && rule.buffer_addr)
            h.retransmission->buffer_addr = *rule.buffer_addr;
        if (h.timeliness) {
            if (h.timeliness->deadline_us == 0 && rule.deadline_us)
                h.timeliness->deadline_us = *rule.deadline_us;
            if (h.timeliness->notify_addr == 0 && rule.notify_addr)
                h.timeliness->notify_addr = *rule.notify_addr;
        }
        if (h.pacing && h.pacing->pace_mbps == 0 && rule.pace_mbps)
            h.pacing->pace_mbps = *rule.pace_mbps;

        if (!h.m.has(wire::feature::timestamped)) h.timestamp_ns.reset();

        ctx.headers_dirty = true;
        state.bump(transitions_);
        trace::emit(ctx.now, state.trace_site, trace::hop::sw_mode_rewrite, ctx.pkt.id,
                    h.m.cfg_data);
        break; // first matching rule wins, P4-table style
    }
}

// --------------------------------------------------------------------------
// age_update_stage

void age_update_stage::resolve(element_state& state)
{
    aged_packets_ = state.counter_id("aged_packets");
    notifications_ = state.counter_id("deadline_notifications");
}

void age_update_stage::process(packet_context& ctx, element_state& state)
{
    ensure_bound(state);
    if (!ctx.mmtp || !ctx.mmtp->timeliness) return;
    if (ctx.mmtp->m.has(wire::feature::control)) return;
    auto& h = *ctx.mmtp;
    auto& t = *h.timeliness;

    // Age is measured against the source timestamp when present (DAQ
    // measurements are time-stamped, Req 7); otherwise the field keeps
    // whatever upstream elements accumulated.
    if (h.timestamp_ns) {
        const auto age_ns = ctx.now.ns - static_cast<std::int64_t>(*h.timestamp_ns);
        t.age_us = age_ns > 0 ? static_cast<std::uint32_t>(age_ns / 1000) : 0;
        ctx.headers_dirty = true;
        trace::emit(ctx.now, state.trace_site, trace::hop::sw_age_update, ctx.pkt.id,
                    t.age_us);
    }

    if (t.deadline_us > 0 && t.age_us > t.deadline_us) {
        if (!t.aged()) {
            t.set_aged();
            ctx.headers_dirty = true;
            state.bump(aged_packets_);
        }
        if (emit_notifications_ && !t.notified() && t.notify_addr != 0) {
            t.set_notified();
            ctx.headers_dirty = true;
            wire::deadline_exceeded_body body;
            body.sequence = h.sequencing ? h.sequencing->sequence : 0;
            body.epoch = h.sequencing ? h.sequencing->epoch : 0;
            body.age_us = t.age_us;
            body.deadline_us = t.deadline_us;
            body.where = state.element_addr;
            byte_writer w;
            serialize(body, w);
            ctx.emissions.push_back(emission{
                make_control_packet(state.element_addr, t.notify_addr, h.experiment,
                                    wire::control_type::deadline_exceeded, w.take()),
                t.notify_addr});
            state.bump(notifications_);
        }
    }
}

// --------------------------------------------------------------------------
// backpressure_stage

backpressure_stage::backpressure_stage(programmable_switch& sw, backpressure_config cfg)
    : sw_(sw), cfg_(cfg)
{
}

void backpressure_stage::resolve(element_state& state)
{
    engagements_ = state.counter_id("backpressure_engagements");
    suppressed_ = state.counter_id("backpressure_suppressed");
    escalations_ = state.counter_id("backpressure_escalations");
    signals_ = state.counter_id("backpressure_signals");
}

void backpressure_stage::process(packet_context& ctx, element_state& state)
{
    ensure_bound(state);
    if (!ctx.mmtp || !ctx.mmtp->m.has(wire::feature::backpressure)) return;
    if (ctx.mmtp->m.has(wire::feature::control)) return;
    if (!ctx.ip) return;

    const auto dst = ctx.dst_override.value_or(ctx.ip->dst);
    const unsigned port = sw_.route(dst);
    if (port == netsim::no_port || port >= sw_.port_count()) return;

    const auto depth = sw_.egress(port).queue_depth_bytes();
    if (port >= ports_.size()) ports_.resize(port + 1);
    auto& ps = ports_[port];

    // Hysteresis: engage at the high watermark, disengage below the low
    // one. Between the watermarks an engaged port stays engaged and a
    // quiet port stays quiet.
    if (!ps.engaged) {
        if (depth < cfg_.high_watermark_bytes) return;
        ps.engaged = true;
        state.bump(engagements_);
    } else if (depth < cfg_.low_watermark_bytes) {
        ps.engaged = false;
        ps.sources.clear(); // next engagement re-signals every source
        return;
    }

    // Severity 0..255 over [low watermark, capacity].
    const auto capacity = sw_.egress(port).config().queue_capacity_bytes;
    const auto over = depth > cfg_.low_watermark_bytes ? depth - cfg_.low_watermark_bytes : 0;
    const auto room = capacity > cfg_.low_watermark_bytes
                          ? capacity - cfg_.low_watermark_bytes
                          : 1;
    std::uint64_t level = room ? (over * 255) / room : 255;
    if (level > 255) level = 255;
    const unsigned band_width = 256 / (cfg_.level_bands ? cfg_.level_bands : 1);
    const unsigned band = static_cast<unsigned>(level) / (band_width ? band_width : 1);

    const auto src = ctx.ip->src;
    auto it = ps.sources.find(src);
    if (it != ps.sources.end()) {
        // Already signalled this engagement: only escalations get
        // through, and no faster than min_interval.
        if (band <= it->second.band
            || (ctx.now - it->second.last).ns < cfg_.min_interval.ns) {
            state.bump(suppressed_);
            return;
        }
        state.bump(escalations_);
        it->second = source_state{ctx.now, band};
    } else {
        ps.sources.emplace(src, source_state{ctx.now, band});
    }

    wire::backpressure_body body;
    body.level = static_cast<std::uint8_t>(level);
    body.origin = state.element_addr;
    body.queue_depth_pkts = static_cast<std::uint32_t>(sw_.egress(port).queue_depth_packets());

    byte_writer w;
    serialize(body, w);
    ctx.emissions.push_back(emission{
        make_control_packet(state.element_addr, src, ctx.mmtp->experiment,
                            wire::control_type::backpressure, w.take()),
        src});
    state.bump(signals_);
    trace::emit(ctx.now, state.trace_site, trace::hop::sw_backpressure, ctx.pkt.id,
                body.level);
}

// --------------------------------------------------------------------------
// duplication_stage

void duplication_stage::add_subscriber(std::uint32_t experiment, wire::ipv4_addr subscriber)
{
    auto& v = subs_[experiment];
    for (auto a : v)
        if (a == subscriber) return;
    v.push_back(subscriber);
}

bool duplication_stage::remove_subscriber(std::uint32_t experiment,
                                          wire::ipv4_addr subscriber)
{
    auto it = subs_.find(experiment);
    if (it == subs_.end()) return false;
    auto& v = it->second;
    for (auto a = v.begin(); a != v.end(); ++a) {
        if (*a == subscriber) {
            v.erase(a);
            return true;
        }
    }
    return false;
}

std::size_t duplication_stage::subscriber_count(std::uint32_t experiment) const
{
    auto it = subs_.find(experiment);
    return it == subs_.end() ? 0 : it->second.size();
}

void duplication_stage::resolve(element_state& state)
{
    subscriptions_ = state.counter_id("subscriptions");
    duplicated_ = state.counter_id("duplicated");
}

void duplication_stage::process(packet_context& ctx, element_state& state)
{
    ensure_bound(state);
    if (!ctx.mmtp) return;
    auto& h = *ctx.mmtp;

    // In-band subscription addressed to this element.
    if (h.m.has(wire::feature::control) && h.control == wire::control_type::subscribe
        && ctx.ip && ctx.ip->dst == state.element_addr) {
        if (const auto body = wire::parse_subscribe(ctx.control_body())) {
            add_subscriber(wire::experiment_of(body->experiment), body->subscriber);
            state.bump(subscriptions_);
        }
        ctx.drop = true; // consumed
        return;
    }

    if (h.m.has(wire::feature::control)) return;
    if (!h.m.has(wire::feature::duplication)) return;

    auto it = subs_.find(wire::experiment_of(h.experiment));
    if (it == subs_.end()) return;
    const auto primary_dst =
        ctx.dst_override.value_or(ctx.ip ? ctx.ip->dst : 0);
    for (const auto sub : it->second) {
        if (sub == primary_dst) continue;
        ctx.clones.push_back(sub);
    }
    if (!ctx.clones.empty()) state.bump(duplicated_);
}

// --------------------------------------------------------------------------

namespace {
std::optional<wire::header> parse_mmtp_of(const netsim::packet& p)
{
    byte_reader r(p.headers);
    const auto eth = wire::parse_eth(r);
    if (!eth) return std::nullopt;
    if (eth->ethertype == wire::ethertype_ipv4) {
        const auto ip = wire::parse_ipv4(r);
        if (!ip || ip->protocol != wire::ipproto_mmtp) return std::nullopt;
    } else if (eth->ethertype != wire::ethertype_mmtp) {
        return std::nullopt;
    }
    const auto rest = std::span<const std::uint8_t>(p.headers).subspan(r.position());
    return wire::parse(rest);
}
} // namespace

unsigned timeliness_band_of(const netsim::packet& p)
{
    const auto h = parse_mmtp_of(p);
    if (!h) return 2;
    if (h->m.has(wire::feature::control)) return 0; // NAKs/notifications first
    if (h->m.has(wire::feature::timeliness)) return 0;
    return 1; // bulk DAQ
}

std::int64_t timeliness_slack_of(const netsim::packet& p)
{
    constexpr auto never = std::numeric_limits<std::int64_t>::max();
    const auto h = parse_mmtp_of(p);
    if (!h) return never;
    if (h->m.has(wire::feature::control)) return never; // control is never shed
    if (!h->timeliness || h->timeliness->deadline_us == 0) return never;
    return static_cast<std::int64_t>(h->timeliness->deadline_us)
           - static_cast<std::int64_t>(h->timeliness->age_us);
}

} // namespace mmtp::pnet
