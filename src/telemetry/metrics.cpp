#include "telemetry/metrics.hpp"

#include "control/health_monitor.hpp"
#include "control/planner.hpp"
#include "control/policy_engine.hpp"
#include "mmtp/buffer_service.hpp"
#include "mmtp/receiver.hpp"
#include "mmtp/sender.hpp"
#include "mmtp/stack.hpp"
#include "netsim/engine.hpp"
#include "netsim/link.hpp"

#include <algorithm>

namespace mmtp::telemetry {

std::string metrics_registry::key_of(const std::string& name, const metric_labels& labels)
{
    if (labels.empty()) return name;
    std::string key = name + "{";
    bool first = true;
    for (const auto& [k, v] : labels) {
        if (!first) key += ",";
        first = false;
        key += k + "=" + v;
    }
    key += "}";
    return key;
}

counter& metrics_registry::get_counter(const std::string& name, const metric_labels& labels)
{
    return counters_[key_of(name, labels)];
}

gauge& metrics_registry::get_gauge(const std::string& name, const metric_labels& labels)
{
    return gauges_[key_of(name, labels)];
}

histogram& metrics_registry::get_histogram(const std::string& name,
                                           const metric_labels& labels)
{
    return histograms_[key_of(name, labels)];
}

void metrics_registry::add_probe(const std::string& name, const metric_labels& labels,
                                 probe_fn fn)
{
    probes_[key_of(name, labels)] = std::move(fn);
}

std::vector<metrics_registry::row> metrics_registry::snapshot() const
{
    std::vector<row> rows;
    for (const auto& [key, c] : counters_)
        rows.push_back({key, "value", static_cast<std::int64_t>(c.value())});
    for (const auto& [key, g] : gauges_)
        rows.push_back({key, "value", g.value()});
    for (const auto& [key, fn] : probes_)
        rows.push_back({key, "value", static_cast<std::int64_t>(fn())});
    for (const auto& [key, h] : histograms_) {
        rows.push_back({key, "count", static_cast<std::int64_t>(h.count())});
        rows.push_back({key, "min", static_cast<std::int64_t>(h.min())});
        rows.push_back({key, "max", static_cast<std::int64_t>(h.max())});
        rows.push_back({key, "p50", static_cast<std::int64_t>(h.percentile(50))});
        rows.push_back({key, "p90", static_cast<std::int64_t>(h.percentile(90))});
        rows.push_back({key, "p99", static_cast<std::int64_t>(h.percentile(99))});
    }
    std::sort(rows.begin(), rows.end(), [](const row& a, const row& b) {
        if (a.metric != b.metric) return a.metric < b.metric;
        return a.field < b.field;
    });
    return rows;
}

std::string metrics_registry::to_csv() const
{
    std::string out = "metric,field,value\n";
    for (const auto& r : snapshot())
        out += r.metric + "," + r.field + "," + std::to_string(r.value) + "\n";
    return out;
}

// --- standard probes -----------------------------------------------------

void register_engine_metrics(metrics_registry& reg, const netsim::engine& eng)
{
    const netsim::engine* e = &eng;
    for (std::size_t i = 0; i < netsim::task_class_count; ++i) {
        const auto tc = static_cast<netsim::task_class>(i);
        reg.add_probe("engine_events", {{"class", netsim::task_class_name(tc)}},
                      [e, i] { return e->profile().executed_by_class[i]; });
    }
    reg.add_probe("engine_events_total", {}, [e] { return e->profile().executed; });
    reg.add_probe("engine_timers_cancelled", {},
                  [e] { return e->profile().timers_cancelled; });
}

void register_link_metrics(metrics_registry& reg, const std::string& link_name,
                           const netsim::link& l)
{
    const netsim::link* lk = &l;
    const metric_labels base{{"link", link_name}};
    reg.add_probe("link_tx_packets", base, [lk] { return lk->stats().tx_packets; });
    reg.add_probe("link_tx_bytes", base, [lk] { return lk->stats().tx_bytes; });
    reg.add_probe("link_corrupted", base, [lk] { return lk->stats().corrupted; });
    reg.add_probe("link_queue_depth_bytes", base, [lk] { return lk->queue_depth_bytes(); });
    reg.add_probe("link_drops", {{"link", link_name}, {"reason", "random_loss"}},
                  [lk] { return lk->stats().dropped_random; });
    reg.add_probe("link_drops", {{"link", link_name}, {"reason", "oversize"}},
                  [lk] { return lk->stats().dropped_oversize; });
    reg.add_probe("link_drops", {{"link", link_name}, {"reason", "link_down"}},
                  [lk] { return lk->stats().dropped_down; });
    reg.add_probe("link_drops", {{"link", link_name}, {"reason", "queue_full"}},
                  [lk] { return lk->queue_statistics().dropped; });
}

void register_planner_metrics(metrics_registry& reg, const control::capacity_planner& p,
                              const std::vector<std::string>& links)
{
    const control::capacity_planner* pl = &p;
    reg.add_probe("planner_flows", {}, [pl] { return pl->flow_count(); });
    reg.add_probe("planner_link_failures", {}, [pl] { return pl->stats().link_failures; });
    reg.add_probe("planner_link_repairs", {}, [pl] { return pl->stats().link_repairs; });
    reg.add_probe("planner_flows_rerouted", {},
                  [pl] { return pl->stats().flows_rerouted; });
    reg.add_probe("planner_flows_stranded", {},
                  [pl] { return pl->stats().flows_stranded; });
    // Metric names mirror the stats-struct fields (subsystem prefix +
    // field), the convention every other adapter follows.
    reg.add_probe("planner_admissions_denied_pressure", {},
                  [pl] { return pl->stats().admissions_denied_pressure; });
    reg.add_probe("planner_admissions_deferred", {},
                  [pl] { return pl->stats().admissions_deferred; });
    reg.add_probe("planner_deferred_admitted", {},
                  [pl] { return pl->stats().deferred_admitted; });
    for (const auto& id : links) {
        reg.add_probe("planner_committed_bps", {{"link", id}},
                      [pl, id] { return pl->committed(id).bits_per_sec; });
        reg.add_probe("planner_available_bps", {{"link", id}},
                      [pl, id] { return pl->available(id).bits_per_sec; });
    }
}

void register_health_metrics(metrics_registry& reg, const control::health_monitor& hm)
{
    const control::health_monitor* h = &hm;
    reg.add_probe("health_links_watched", {}, [h] { return h->stats().links_watched; });
    reg.add_probe("health_downs_observed", {}, [h] { return h->stats().downs_observed; });
    reg.add_probe("health_ups_observed", {}, [h] { return h->stats().ups_observed; });
}

namespace {
void register_policy_engine_probes(metrics_registry& reg, const metric_labels& base,
                                   const control::policy_engine& pe)
{
    const control::policy_engine* p = &pe;
    auto with = [&base](const char* k, const char* v) {
        metric_labels l = base;
        l.emplace_back(k, v);
        return l;
    };
    reg.add_probe("policy_reconfigs", with("phase", "planned"),
                  [p] { return p->stats().reconfigs_planned; });
    reg.add_probe("policy_reconfigs", with("phase", "installed"),
                  [p] { return p->stats().reconfigs_installed; });
    reg.add_probe("policy_reconfigs", with("phase", "committed"),
                  [p] { return p->stats().reconfigs_committed; });
    reg.add_probe("policy_reconfigs", with("phase", "aborted"),
                  [p] { return p->stats().reconfigs_aborted; });
    reg.add_probe("policy_polls", base, [p] { return p->stats().polls; });
    reg.add_probe("policy_triggers", with("signal", "loss"),
                  [p] { return p->stats().loss_triggers; });
    // The loop watches loss and link health only. These two rows stay,
    // always 0, because the pinned metrics CSVs of every closed-loop
    // scenario carry them.
    reg.add_probe("policy_triggers", with("signal", "backpressure"),
                  [] { return std::uint64_t{0}; });
    reg.add_probe("policy_triggers", with("signal", "occupancy"),
                  [] { return std::uint64_t{0}; });
    reg.add_probe("policy_triggers", with("signal", "health"),
                  [p] { return p->stats().health_triggers; });
    reg.add_probe("policy_restores", base, [p] { return p->stats().restores; });
    reg.add_probe("policy_epoch", base, [p] { return p->epoch(); });
    reg.add_probe("policy_posture", base,
                  [p] { return static_cast<std::uint64_t>(p->current_posture()); });
    reg.add_probe("policy_pending_commits", base, [p] { return p->pending_commits(); });
}
} // namespace

void register_policy_engine_metrics(metrics_registry& reg,
                                    const control::policy_engine& pe)
{
    register_policy_engine_probes(reg, {}, pe);
}

void register_policy_engine_metrics(metrics_registry& reg, const std::string& name,
                                    const control::policy_engine& pe)
{
    register_policy_engine_probes(reg, {{"engine", name}}, pe);
}

void register_element_metrics(metrics_registry& reg, const std::string& element_name,
                              const pnet::programmable_switch& sw)
{
    const pnet::programmable_switch* s = &sw;
    const metric_labels base{{"element", element_name}};
    reg.add_probe("element_forwarded", base, [s] { return s->stats().forwarded; });
    reg.add_probe("element_clones", base, [s] { return s->stats().clones; });
    reg.add_probe("element_emissions", base, [s] { return s->stats().emissions; });
    reg.add_probe("element_dropped", {{"element", element_name}, {"reason", "corrupted"}},
                  [s] { return s->stats().dropped_corrupted; });
    reg.add_probe("element_dropped", {{"element", element_name}, {"reason", "malformed"}},
                  [s] { return s->stats().dropped_malformed; });
    reg.add_probe("element_dropped", {{"element", element_name}, {"reason", "pipeline"}},
                  [s] { return s->stats().dropped_by_pipeline; });
    reg.add_probe("element_dropped", {{"element", element_name}, {"reason", "unroutable"}},
                  [s] { return s->stats().dropped_unroutable; });
    // Named pipeline counters (P4-style): exported under one canonical
    // key family instead of each scenario inventing its own row names.
    // No stage bumps `aged_drops` (aged datagrams are forwarded); its row
    // reads 0 and stays because the pinned metrics CSVs carry it.
    for (const char* ctr :
         {"mode_transitions", "mode_shifts", "epochs_retired", "backpressure_engagements",
          "backpressure_signals", "backpressure_suppressed", "backpressure_escalations",
          "aged_packets", "aged_drops", "deadline_notifications", "duplicated",
          "subscriptions"}) {
        reg.add_probe(std::string("element_") + ctr, base,
                      [s, ctr] { return s->state().counter(ctr); });
    }
}

void register_stack_metrics(metrics_registry& reg, const std::string& host,
                            const core::stack& st)
{
    const core::stack* s = &st;
    const metric_labels base{{"host", host}};
    reg.add_probe("stack_data_in", base, [s] { return s->stats().data_in; });
    reg.add_probe("stack_control_in", base, [s] { return s->stats().control_in; });
    reg.add_probe("stack_malformed", base, [s] { return s->stats().malformed; });
    reg.add_probe("stack_control_parse_errors", base,
                  [s] { return s->stats().control_parse_errors; });
    reg.add_probe("stack_sent", base, [s] { return s->stats().sent; });
}

void register_sender_metrics(metrics_registry& reg, const std::string& host,
                             const core::sender& s)
{
    const core::sender* sp = &s;
    const metric_labels base{{"host", host}};
    reg.add_probe("sender_messages", base, [sp] { return sp->stats().messages; });
    reg.add_probe("sender_datagrams", base, [sp] { return sp->stats().datagrams; });
    reg.add_probe("sender_bytes", base, [sp] { return sp->stats().bytes; });
    reg.add_probe("sender_backpressure_signals", base,
                  [sp] { return sp->stats().backpressure_signals; });
    reg.add_probe("sender_bp_decreases", base, [sp] { return sp->stats().bp_decreases; });
    reg.add_probe("sender_bp_floor_hits", base, [sp] { return sp->stats().bp_floor_hits; });
    reg.add_probe("sender_bp_recovery_steps", base,
                  [sp] { return sp->stats().bp_recovery_steps; });
    reg.add_probe("sender_bp_recoveries", base,
                  [sp] { return sp->stats().bp_recoveries; });
    reg.add_probe("sender_suppressed_ns", base,
                  [sp] { return sp->stats().suppressed_ns; });
    reg.add_probe("sender_effective_pace_bps", base,
                  [sp] { return sp->effective_pace().bits_per_sec; });
    reg.add_probe("sender_reroutes", base, [sp] { return sp->stats().reroutes; });
    reg.add_probe("sender_origin_mode_updates", base,
                  [sp] { return sp->stats().origin_mode_updates; });
}

void register_receiver_metrics(metrics_registry& reg, const std::string& host,
                               const core::receiver& r)
{
    const core::receiver* rp = &r;
    const metric_labels base{{"host", host}};
    reg.add_probe("receiver_datagrams", base, [rp] { return rp->stats().datagrams; });
    reg.add_probe("receiver_bytes", base, [rp] { return rp->stats().bytes; });
    reg.add_probe("receiver_duplicates", base, [rp] { return rp->stats().duplicates; });
    reg.add_probe("receiver_recovered", base, [rp] { return rp->stats().recovered; });
    reg.add_probe("receiver_naks_sent", base, [rp] { return rp->stats().naks_sent; });
    reg.add_probe("receiver_nak_retries", base, [rp] { return rp->stats().nak_retries; });
    reg.add_probe("receiver_buffer_failovers", base,
                  [rp] { return rp->stats().buffer_failovers; });
    reg.add_probe("receiver_buffer_failbacks", base,
                  [rp] { return rp->stats().buffer_failbacks; });
    reg.add_probe("receiver_given_up", base, [rp] { return rp->stats().given_up; });
    reg.add_probe("receiver_mode_shifts_seen", base,
                  [rp] { return rp->stats().mode_shifts_seen; });
    reg.add_probe("receiver_streams", base, [rp] { return rp->stream_count(); });
    reg.add_probe("receiver_streams_retired", base,
                  [rp] { return rp->stats().streams_retired; });
}

void register_buffer_metrics(metrics_registry& reg, const std::string& host,
                             const core::buffer_service& b)
{
    const core::buffer_service* bp = &b;
    const metric_labels base{{"host", host}};
    reg.add_probe("buffer_relayed", base, [bp] { return bp->stats().relayed; });
    reg.add_probe("buffer_relayed_bytes", base, [bp] { return bp->stats().relayed_bytes; });
    reg.add_probe("buffer_nak_requests", base, [bp] { return bp->stats().nak_requests; });
    reg.add_probe("buffer_retransmitted", base,
                  [bp] { return bp->stats().retransmitted; });
    reg.add_probe("buffer_unavailable", base, [bp] { return bp->stats().unavailable; });
    reg.add_probe("buffer_bytes_used", base, [bp] { return bp->buffer().bytes_used(); });
    reg.add_probe("buffer_pressure_engaged", base,
                  [bp] { return bp->pressure_engaged() ? 1u : 0u; });
    reg.add_probe("buffer_pressure_engagements", base,
                  [bp] { return bp->stats().pressure_engagements; });
    reg.add_probe("buffer_pressure_releases", base,
                  [bp] { return bp->stats().pressure_releases; });
    reg.add_probe("buffer_pressure_signals", base,
                  [bp] { return bp->stats().pressure_signals; });
    reg.add_probe("buffer_signals_pruned", base,
                  [bp] { return bp->stats().signals_pruned; });
    reg.add_probe("buffer_retransmit_dedup", base,
                  [bp] { return bp->stats().retransmit_dedup; });
    reg.add_probe("buffer_retransmit_queue_peak", base,
                  [bp] { return bp->stats().retransmit_queue_peak; });
    reg.add_probe("buffer_persisted", base, [bp] { return bp->stats().persisted; });
    reg.add_probe("buffer_persist_rejected", base,
                  [bp] { return bp->stats().persist_rejected; });
    reg.add_probe("buffer_crashes", base, [bp] { return bp->stats().crashes; });
    reg.add_probe("buffer_tail_lost", base, [bp] { return bp->stats().tail_lost; });
    reg.add_probe("buffer_recovered_records", base,
                  [bp] { return bp->stats().recovered_records; });
    reg.add_probe("buffer_revivals", base, [bp] { return bp->stats().revivals; });
}

void register_priority_queue_metrics(metrics_registry& reg, const std::string& link_name,
                                     const netsim::priority_queue_disc& q)
{
    const netsim::priority_queue_disc* qp = &q;
    const metric_labels base{{"link", link_name}};
    reg.add_probe("pq_enqueued", base, [qp] { return qp->stats().enqueued; });
    reg.add_probe("pq_dequeued", base, [qp] { return qp->stats().dequeued; });
    reg.add_probe("pq_dropped", base, [qp] { return qp->stats().dropped; });
    reg.add_probe("pq_shed", base, [qp] { return qp->stats().shed; });
    reg.add_probe("pq_shed_bytes", base, [qp] { return qp->stats().shed_bytes; });
    reg.add_probe("pq_peak_bytes", base, [qp] { return qp->stats().peak_bytes; });
    for (unsigned b = 0; b < q.band_count(); ++b) {
        const metric_labels bl{{"link", link_name}, {"band", std::to_string(b)}};
        reg.add_probe("pq_band_dropped", bl, [qp, b] { return qp->band_dropped(b); });
        reg.add_probe("pq_band_shed", bl, [qp, b] { return qp->band_shed(b); });
        reg.add_probe("pq_band_shed_bytes", bl,
                      [qp, b] { return qp->band_shed_bytes(b); });
    }
}

} // namespace mmtp::telemetry
