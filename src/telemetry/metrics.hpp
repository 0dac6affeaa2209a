// metrics.hpp — central metrics registry.
//
// One registry per scenario collects every number worth reporting:
// owned counters/gauges/histograms that components bump directly, and
// pull-model probes that read a component's existing stats struct at
// snapshot time (so instrumenting a subsystem never adds work to its
// hot path). Metrics are identified by a name plus optional labels;
// snapshots render to CSV or JSON with rows sorted by (metric, field),
// and every exported value is an integer — same-seed runs produce
// byte-identical snapshots.
#pragma once

#include "common/histogram.hpp"

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace mmtp::netsim {
class engine;
class link;
class priority_queue_disc;
} // namespace mmtp::netsim
namespace mmtp::control {
class capacity_planner;
class health_monitor;
class policy_engine;
} // namespace mmtp::control
namespace mmtp::pnet {
class programmable_switch;
} // namespace mmtp::pnet
namespace mmtp::core {
class buffer_service;
class receiver;
class sender;
class stack;
} // namespace mmtp::core

namespace mmtp::telemetry {

/// Label set attached to a metric name, rendered canonically as
/// `name{k1=v1,k2=v2}` in registration order.
using metric_labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic event count.
class counter {
public:
    void inc(std::uint64_t by = 1) { value_ += by; }
    std::uint64_t value() const { return value_; }

private:
    std::uint64_t value_{0};
};

/// Point-in-time level (queue depths, committed rates).
class gauge {
public:
    void set(std::int64_t v) { value_ = v; }
    void add(std::int64_t by) { value_ += by; }
    std::int64_t value() const { return value_; }

private:
    std::int64_t value_{0};
};

class metrics_registry {
public:
    using probe_fn = std::function<std::uint64_t()>;

    /// Renders `name{k1=v1,...}`; the identity metrics are keyed by.
    static std::string key_of(const std::string& name, const metric_labels& labels);

    // Owned instruments: created on first use, shared on repeat lookups.
    counter& get_counter(const std::string& name, const metric_labels& labels = {});
    gauge& get_gauge(const std::string& name, const metric_labels& labels = {});
    histogram& get_histogram(const std::string& name, const metric_labels& labels = {});

    /// Pull-model probe sampled at snapshot time. Re-registering a key
    /// replaces its probe (components may re-wire across phases).
    void add_probe(const std::string& name, const metric_labels& labels, probe_fn fn);

    /// One snapshot row: `metric` is the labeled key, `field` is "value"
    /// for scalars or the statistic name for histograms.
    struct row {
        std::string metric;
        std::string field;
        std::int64_t value;
    };
    /// All rows, sorted by (metric, field). Probes are sampled here.
    std::vector<row> snapshot() const;

    /// `metric,field,value` lines (with header), sorted — byte-identical
    /// across same-seed runs.
    std::string to_csv() const;

private:
    std::map<std::string, counter> counters_;
    std::map<std::string, gauge> gauges_;
    std::map<std::string, histogram> histograms_;
    std::map<std::string, probe_fn> probes_;
};

// --- standard probes -----------------------------------------------------
//
// Adapters exposing each subsystem's stats struct through the registry.
// They capture a pointer to the component, which must outlive the
// registry's last snapshot.

/// engine_events{class=...} per task_class, plus engine_events_total.
/// Dispatch wall time is deliberately NOT exported (nondeterministic);
/// read it from engine::profile().wall_seconds directly.
void register_engine_metrics(metrics_registry& reg, const netsim::engine& eng);

/// link_tx_packets/bytes, link_drops{reason=...}, link_queue_depth_bytes.
void register_link_metrics(metrics_registry& reg, const std::string& link_name,
                           const netsim::link& l);

/// planner_flows, planner_reroutes/stranded/failures/repairs, plus
/// planner_committed_bps{link=...} for each named link budget.
void register_planner_metrics(metrics_registry& reg, const control::capacity_planner& p,
                              const std::vector<std::string>& links);

/// health_downs/ups observed.
void register_health_metrics(metrics_registry& reg, const control::health_monitor& hm);

/// policy_reconfigs{phase=planned|installed|committed|aborted}, trigger
/// counters, policy_epoch and policy_posture gauges for one engine.
void register_policy_engine_metrics(metrics_registry& reg,
                                    const control::policy_engine& pe);

/// Same probes under `...{engine=name}` labels — for scenarios running
/// one policy engine per experiment over a shared registry (the soak).
void register_policy_engine_metrics(metrics_registry& reg, const std::string& name,
                                    const control::policy_engine& pe);

/// element_forwarded/dropped/clones/emissions plus the element's named
/// pipeline counters (mode_transitions, mode_shifts, epochs_retired,
/// backpressure_*) under canonical `element_*{element=...}` keys.
void register_element_metrics(metrics_registry& reg, const std::string& element_name,
                              const pnet::programmable_switch& sw);

/// stack_data_in/control_in/malformed/sent for one host's stack.
void register_stack_metrics(metrics_registry& reg, const std::string& host,
                            const core::stack& st);

/// sender_messages/datagrams/bytes/backpressure_signals/reroutes.
void register_sender_metrics(metrics_registry& reg, const std::string& host,
                             const core::sender& s);

/// receiver_datagrams/bytes/duplicates/recovered/naks_sent/nak_retries/
/// buffer_failovers/given_up.
void register_receiver_metrics(metrics_registry& reg, const std::string& host,
                               const core::receiver& r);

/// buffer_relayed/retransmitted/nak_requests/unavailable, plus occupancy
/// and storage-pressure watermark counters.
void register_buffer_metrics(metrics_registry& reg, const std::string& host,
                             const core::buffer_service& b);

/// pq_enqueued/dequeued/dropped/shed{link=...} plus per-band drop/shed
/// counters for one priority egress queue (overload observability).
void register_priority_queue_metrics(metrics_registry& reg, const std::string& link_name,
                                     const netsim::priority_queue_disc& q);

} // namespace mmtp::telemetry
