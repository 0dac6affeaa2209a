#include "pnet/element.hpp"

#include "common/trace.hpp"
#include "netsim/link.hpp"

#include <cassert>
#include <stdexcept>

namespace mmtp::pnet {

namespace {

std::uint32_t intern(std::unordered_map<std::string, std::uint32_t>& ids, const std::string& name,
                     std::size_t next)
{
    return ids.try_emplace(name, static_cast<std::uint32_t>(next)).first->second;
}

} // namespace

register_handle element_state::register_id(const std::string& name)
{
    const auto id = intern(register_ids_, name, registers_.size());
    if (id == registers_.size()) registers_.emplace_back();
    return {id};
}

counter_handle element_state::counter_id(const std::string& name)
{
    const auto id = intern(counter_ids_, name, counters_.size());
    if (id == counters_.size()) counters_.push_back(0);
    return {id};
}

void element_state::create_register(const std::string& name, std::size_t cells)
{
    registers_[register_id(name).index].resize(cells, 0);
}

std::uint64_t& element_state::reg(const std::string& name, std::size_t index)
{
    auto it = register_ids_.find(name);
    if (it == register_ids_.end())
        throw std::out_of_range("pnet register not created: " + name);
    return registers_[it->second].at(index);
}

std::uint64_t element_state::counter(const std::string& name) const
{
    auto it = counter_ids_.find(name);
    return it == counter_ids_.end() ? 0 : counters_[it->second];
}

void pipeline_stage::bind(element_state& state)
{
    if (bound_ == &state) return;
    if (bound_ != nullptr)
        throw std::logic_error("pnet stage '" + name() + "' already belongs to another element");
    bound_ = &state;
    resolve(state);
}

element_profile tofino2_profile()
{
    return element_profile{"tofino2", sim_duration{400}}; // ~400 ns pipeline
}

element_profile alveo_profile()
{
    return element_profile{"alveo", sim_duration{1500}}; // ~1.5 us FPGA datapath
}

programmable_switch::programmable_switch(netsim::engine& eng, std::string nm,
                                         wire::ipv4_addr addr, wire::mac_addr mc,
                                         element_profile profile)
    : node(eng, std::move(nm), addr, mc), profile_(std::move(profile))
{
    state_.element_addr = addr;
}

void programmable_switch::add_stage(std::shared_ptr<pipeline_stage> stage)
{
    stage->bind(state_);
    stages_.push_back(std::move(stage));
}

namespace {

/// Clears verdicts and parse results on a reused scratch context.
/// clear() (not reassignment) keeps clones/emissions capacity, so a
/// recycled context never re-allocates.
void reset_context(packet_context& ctx)
{
    ctx.ip.reset();
    ctx.mmtp.reset();
    ctx.mmtp_over_l2 = false;
    ctx.l4_offset = 0;
    ctx.headers_dirty = false;
    ctx.drop = false;
    ctx.dst_override.reset();
    ctx.clones.clear();
    ctx.emissions.clear();
}

} // namespace

packet_context* programmable_switch::contexts()
{
    if (!ctx_scratch_)
        ctx_scratch_ = std::make_unique<packet_context[]>(netsim::max_burst);
    return ctx_scratch_.get();
}

void programmable_switch::receive(netsim::packet&& p, unsigned ingress_port)
{
    if (p.corrupted) {
        // Store-and-forward element: FCS fails, frame dropped here.
        stats_.dropped_corrupted++;
        trace::emit(eng_.now(), state_.trace_site, trace::hop::sw_drop, p.id, 0,
                    trace::reason::corrupted);
        return;
    }
    if (p.hops > 64) { // loop backstop
        stats_.dropped_malformed++;
        trace::emit(eng_.now(), state_.trace_site, trace::hop::sw_drop, p.id, 0,
                    trace::reason::malformed);
        return;
    }

    packet_context& ctx = contexts()[0];
    reset_context(ctx);
    ctx.pkt = std::move(p);
    ctx.ingress_port = ingress_port;
    ctx.now = eng_.now();
    if (!parse_context(ctx)) {
        stats_.dropped_malformed++;
        trace::emit(eng_.now(), state_.trace_site, trace::hop::sw_drop, ctx.pkt.id, 0,
                    trace::reason::malformed);
        return;
    }

    for (const auto& stage : stages_) {
        stage->process(ctx, state_);
        if (ctx.drop) break;
    }

    // Control messages synthesized by stages leave first (they are tiny
    // and time-critical: NAKs, backpressure, deadline notifications).
    for (auto& e : ctx.emissions) {
        stats_.emissions++;
        if (ids_) e.pkt.id = ids_->next();
        netsim::packet out = std::move(e.pkt);
        forward(std::move(out), e.dst, false);
    }

    if (ctx.drop) {
        stats_.dropped_by_pipeline++;
        trace::emit(eng_.now(), state_.trace_site, trace::hop::sw_drop, ctx.pkt.id, 0,
                    trace::reason::pipeline);
        return;
    }

    deparse_context(ctx);

    // Clones (in-network duplication toward subscribers, Fig. 3 ⑥).
    for (const auto dst : ctx.clones) {
        netsim::packet copy = ctx.pkt; // deep copy of headers/payload
        if (ids_) copy.id = ids_->next();
        // Rewrite the clone's IPv4 destination.
        packet_context cc;
        cc.pkt = std::move(copy);
        if (parse_context(cc) && cc.ip) {
            cc.headers_dirty = true;
            cc.dst_override = dst;
            deparse_context(cc);
            stats_.clones++;
            // Binding record: ties the clone's fresh id to its parent's.
            trace::emit(eng_.now(), state_.trace_site, trace::hop::sw_clone, cc.pkt.id,
                        ctx.pkt.id);
            forward(std::move(cc.pkt), dst, false);
        }
    }

    // Primary forwarding decision.
    const auto delay = profile_.pipeline_latency;
    if (ctx.mmtp_over_l2) {
        // DAQ-network L2 segment: one upstream port toward the first DTN.
        if (l2_uplink_ == netsim::no_port || l2_uplink_ >= port_count()) {
            stats_.dropped_unroutable++;
            trace::emit(eng_.now(), state_.trace_site, trace::hop::sw_drop, ctx.pkt.id, 0,
                        trace::reason::unroutable);
            return;
        }
        auto pkt = std::move(ctx.pkt);
        const unsigned port = l2_uplink_;
        stats_.forwarded++;
        auto push = [this, port, moved = std::move(pkt)]() mutable {
            egress(port).send(std::move(moved));
        };
        static_assert(netsim::engine::action::stored_inline<decltype(push)>,
                      "switch egress closure must not heap-allocate");
        eng_.schedule_in(delay, netsim::task_class::pipeline, std::move(push));
        return;
    }
    if (!ctx.ip) {
        stats_.dropped_unroutable++;
        trace::emit(eng_.now(), state_.trace_site, trace::hop::sw_drop, ctx.pkt.id, 0,
                    trace::reason::unroutable);
        return;
    }
    const auto dst = ctx.dst_override.value_or(ctx.ip->dst);
    forward(std::move(ctx.pkt), dst, false);
}

void programmable_switch::receive_burst(netsim::packet* pkts, unsigned n, unsigned ingress_port)
{
    packet_context* ctxs = contexts();

    // Admission + parse, per packet at its own arrival stamp.
    unsigned m = 0;
    for (unsigned i = 0; i < n; ++i) {
        netsim::packet p = std::move(pkts[i]);
        if (p.corrupted) {
            stats_.dropped_corrupted++;
            trace::emit(p.stamp, state_.trace_site, trace::hop::sw_drop, p.id, 0,
                        trace::reason::corrupted);
            continue;
        }
        if (p.hops > 64) { // loop backstop
            stats_.dropped_malformed++;
            trace::emit(p.stamp, state_.trace_site, trace::hop::sw_drop, p.id, 0,
                        trace::reason::malformed);
            continue;
        }
        packet_context& ctx = ctxs[m];
        reset_context(ctx);
        ctx.pkt = std::move(p);
        ctx.ingress_port = ingress_port;
        ctx.now = ctx.pkt.stamp;
        if (!parse_context(ctx)) {
            stats_.dropped_malformed++;
            trace::emit(ctx.now, state_.trace_site, trace::hop::sw_drop, ctx.pkt.id, 0,
                        trace::reason::malformed);
            continue;
        }
        m++;
    }

    // Stage-major: the whole burst crosses each stage before the next.
    for (const auto& stage : stages_)
        stage->process_burst(ctxs, m, state_);

    for (unsigned i = 0; i < m; ++i)
        finalize_burst(ctxs[i]);
}

void programmable_switch::finalize_burst(packet_context& ctx)
{
    const sim_time now = ctx.now;

    for (auto& e : ctx.emissions) {
        stats_.emissions++;
        if (ids_) e.pkt.id = ids_->next();
        forward_at(now, std::move(e.pkt), e.dst);
    }

    if (ctx.drop) {
        stats_.dropped_by_pipeline++;
        trace::emit(now, state_.trace_site, trace::hop::sw_drop, ctx.pkt.id, 0,
                    trace::reason::pipeline);
        return;
    }

    deparse_context(ctx);

    for (const auto dst : ctx.clones) {
        netsim::packet copy = ctx.pkt; // deep copy of headers/payload
        if (ids_) copy.id = ids_->next();
        packet_context cc;
        cc.pkt = std::move(copy);
        if (parse_context(cc) && cc.ip) {
            cc.headers_dirty = true;
            cc.dst_override = dst;
            deparse_context(cc);
            stats_.clones++;
            trace::emit(now, state_.trace_site, trace::hop::sw_clone, cc.pkt.id, ctx.pkt.id);
            forward_at(now, std::move(cc.pkt), dst);
        }
    }

    if (ctx.mmtp_over_l2) {
        if (l2_uplink_ == netsim::no_port || l2_uplink_ >= port_count()) {
            stats_.dropped_unroutable++;
            trace::emit(now, state_.trace_site, trace::hop::sw_drop, ctx.pkt.id, 0,
                        trace::reason::unroutable);
            return;
        }
        stats_.forwarded++;
        egress(l2_uplink_).send_at(now + profile_.pipeline_latency, std::move(ctx.pkt));
        return;
    }
    if (!ctx.ip) {
        stats_.dropped_unroutable++;
        trace::emit(now, state_.trace_site, trace::hop::sw_drop, ctx.pkt.id, 0,
                    trace::reason::unroutable);
        return;
    }
    const auto dst = ctx.dst_override.value_or(ctx.ip->dst);
    forward_at(now, std::move(ctx.pkt), dst);
}

void programmable_switch::forward_at(sim_time now, netsim::packet&& p, wire::ipv4_addr dst)
{
    const unsigned port = route(dst);
    if (port == netsim::no_port || port >= port_count()) {
        stats_.dropped_unroutable++;
        trace::emit(now, state_.trace_site, trace::hop::sw_drop, p.id, 0,
                    trace::reason::unroutable);
        return;
    }
    stats_.forwarded++;
    egress(port).send_at(now + profile_.pipeline_latency, std::move(p));
}

void programmable_switch::forward(netsim::packet&& p, wire::ipv4_addr dst, bool /*over_l2*/)
{
    const unsigned port = route(dst);
    if (port == netsim::no_port || port >= port_count()) {
        stats_.dropped_unroutable++;
        trace::emit(eng_.now(), state_.trace_site, trace::hop::sw_drop, p.id, 0,
                    trace::reason::unroutable);
        return;
    }
    stats_.forwarded++;
    auto push = [this, port, moved = std::move(p)]() mutable {
        egress(port).send(std::move(moved));
    };
    static_assert(netsim::engine::action::stored_inline<decltype(push)>,
                  "switch egress closure must not heap-allocate");
    eng_.schedule_in(profile_.pipeline_latency, netsim::task_class::pipeline, std::move(push));
}

} // namespace mmtp::pnet
