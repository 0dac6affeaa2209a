#include "control/policy_engine.hpp"

#include "common/trace.hpp"

namespace mmtp::control {

const char* posture_name(posture p)
{
    switch (p) {
    case posture::baseline: return "baseline";
    case posture::buffered: return "buffered";
    }
    return "?";
}

policy_engine::policy_engine(netsim::engine& eng, resource_map map,
                             policy_engine_config cfg)
    : eng_(eng), map_(std::move(map)), cfg_(std::move(cfg))
{
}

void policy_engine::attach_element(pnet::programmable_switch& sw,
                                   std::shared_ptr<pnet::mode_transition_stage> stage)
{
    elements_.push_back(attached{&sw, std::move(stage)});
}

void policy_engine::subscribe_health(health_monitor& hm)
{
    hm.add_listener([this](const link_id& /*id*/, bool up, sim_time /*at*/) {
        if (!started_ || cfg_.preset != mode_preset::closed_loop) return;
        link_down_ = !up;
        if (!up) {
            // A dead span is the loss signal at its strongest: degrade
            // immediately instead of waiting out the poll interval.
            stats_.health_triggers++;
            clean_polls_ = 0;
            if (posture_ != posture::buffered) request(posture::buffered);
        }
    });
}

std::uint64_t policy_engine::loss_total() const
{
    std::uint64_t total = 0;
    for (const auto* l : loss_links_)
        total += l->stats().corrupted + l->stats().dropped_random;
    return total;
}

compiled_policy policy_engine::compile_for(posture p) const
{
    // Both postures start from a fresh static compilation — buffered is
    // a transformation of the baseline plan, so segment topology changes
    // (new inputs) are picked up on the next shift too.
    compiled_policy plan = compile_modes(cfg_.inputs, map_);
    if (cfg_.deadline_override_us != 0) {
        plan.deadline_us = cfg_.deadline_override_us;
        for (auto& t : plan.transitions)
            if (t.rule.deadline_us) t.rule.deadline_us = cfg_.deadline_override_us;
    }

    if (p == posture::buffered) {
        // Trade timeliness for recovery: while the span is lossy no
        // datagram is aged, shed or notified about — sequencing,
        // retransmission and backpressure stay so everything is
        // eventually delivered from the buffer.
        plan.deadline_us = 0;
        for (auto& t : plan.transitions) {
            t.rule.set_bits &= ~wire::feature_bit(wire::feature::timeliness);
            t.rule.clear_bits |= wire::feature_bit(wire::feature::timeliness);
            t.rule.deadline_us.reset();
        }
    }

    // Recompute the per-segment resulting modes from the transformed
    // rules so reports and origin handlers see the posture's true shape.
    wire::mode current = plan.origin_mode;
    for (auto& t : plan.transitions) {
        current.cfg_data = (current.cfg_data | t.rule.set_bits) & ~t.rule.clear_bits;
        t.resulting_mode = current;
    }
    return plan;
}

void policy_engine::install(const compiled_policy& plan, std::uint8_t new_epoch)
{
    for (auto& el : elements_) {
        std::vector<pnet::mode_rule> rules;
        for (const auto& t : plan.transitions)
            if (t.element == el.sw->state().element_addr) rules.push_back(t.rule);
        el.stage->install_epoch(new_epoch, std::move(rules), &el.sw->state());
    }
    stats_.reconfigs_installed++;
    trace::emit(eng_.now(), trace_site_, trace::hop::ctl_reconfig_installed, 0, new_epoch);
    if (origin_) {
        wire::mode origin = plan.origin_mode;
        origin.cfg_id = new_epoch;
        origin_(plan, origin);
    }
}

void policy_engine::start()
{
    if (started_) return;
    started_ = true;
    current_ = compile_for(posture::baseline);
    posture_ = posture::baseline;

    if (cfg_.preset == mode_preset::static_preset) {
        // The pilot path: epoch-agnostic rules, installed once, no
        // polling — exactly what compile_modes() + add_rule() used to do.
        for (auto& el : elements_) {
            for (const auto& t : current_.transitions)
                if (t.element == el.sw->state().element_addr)
                    el.stage->add_rule(t.rule);
        }
        if (origin_) origin_(current_, current_.origin_mode);
        return;
    }

    install(current_, epoch_); // epoch 0
    last_loss_ = loss_total();
    schedule_poll();
}

void policy_engine::schedule_poll()
{
    if (cfg_.poll_until == sim_time::zero()) return;
    const auto next = eng_.now() + cfg_.poll_interval;
    if (next > cfg_.poll_until) return;
    eng_.schedule_in(cfg_.poll_interval, netsim::task_class::control,
                     [this] { evaluate(); });
}

void policy_engine::evaluate()
{
    stats_.polls++;

    const auto loss = loss_total();
    const auto dloss = loss - last_loss_;
    last_loss_ = loss;

    if (link_down_ || dloss >= cfg_.loss_degrade_threshold) {
        clean_polls_ = 0;
        if (!link_down_) stats_.loss_triggers++;
        // Escalate only: the way back down is the restore hysteresis.
        if (posture_ != posture::buffered) request(posture::buffered);
    } else if (posture_ != posture::baseline) {
        // Restore-on-recovery with hysteresis: require a run of clean
        // polls so an intermittent fault cannot flap the configuration.
        if (++clean_polls_ >= cfg_.restore_after_clean_polls) {
            clean_polls_ = 0;
            stats_.restores++;
            request(posture::baseline);
        }
    }

    schedule_poll();
}

bool policy_engine::request(posture p)
{
    if (!started_) return false;
    stats_.reconfigs_planned++;
    const auto candidate = static_cast<std::uint8_t>(epoch_ + 1);
    trace::emit(eng_.now(), trace_site_, trace::hop::ctl_reconfig_planned, 0, candidate);

    if (cfg_.preset == mode_preset::static_preset || p == posture_) {
        // Static engines never shift; a duplicate posture is a no-op
        // plan. Either way the plan is dropped, visibly.
        stats_.reconfigs_aborted++;
        trace::emit(eng_.now(), trace_site_, trace::hop::ctl_reconfig_aborted, 0,
                    candidate);
        return false;
    }

    const auto plan = compile_for(p);
    const std::uint8_t old_epoch = epoch_;
    epoch_ = candidate;
    install(plan, epoch_);
    current_ = plan;
    posture_ = p;

    // Commit after the drain window: in-flight datagrams stamped with
    // the old epoch have flushed through every mode-rewriting element by
    // then, so its rules can be retired.
    pending_commits_++;
    eng_.schedule_in(cfg_.drain_window, netsim::task_class::control,
                     [this, old_epoch] {
                         for (auto& el : elements_)
                             el.stage->retire_epoch(old_epoch, &el.sw->state());
                         pending_commits_--;
                         stats_.reconfigs_committed++;
                         trace::emit(eng_.now(), trace_site_,
                                     trace::hop::ctl_reconfig_committed, 0, old_epoch);
                     });
    return true;
}

} // namespace mmtp::control
