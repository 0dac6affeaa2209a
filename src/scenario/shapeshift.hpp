// shapeshift.hpp — the shape-shift drill: a WAN span degrades mid-run
// and the closed-loop policy engine shifts the stream's mode at runtime.
//
// The paper's headline claim is that transport should *shape-shift* —
// modes change while data is flowing, not just at setup (§5.3). This
// drill is the claim end to end:
//
//     sensor ──► DTN1 (buffer, relay) ──► Tofino ══ wan ══► rx
//                                           ▲               │
//                policy engine ─ installs ──┘     NAKs ─────┘
//                 (closed loop)
//
// The run starts in the baseline posture (epoch 0: age-sensitive +
// recoverable loss, compiled by the same `compile_modes` the pilot
// uses). At `burst_at` a corruption burst degrades the WAN span; the
// engine's loss trigger fires on the next poll and it shifts to the
// *buffered* posture — a new epoch whose rules drop the delivery
// deadline so nothing is shed or aged while the span is lossy. The
// shift is make-before-break: epoch 1 rules are installed ahead of
// epoch 0's, the sender re-stamps new datagrams with the new epoch
// (cfg_id), and epoch 0 is retired only after the drain window. When
// the burst ends, restore hysteresis returns the flow to baseline under
// a third epoch. Every corrupted datagram is recovered from DTN1 via
// NAK, so the drill ends with zero message loss despite the fault.
//
// Everything rides the simulation engine — faults, polls, reconfigs,
// recovery — so two same-seed runs produce byte-identical telemetry
// (shapeshift_result::report / metrics_csv), which is what test_modes
// asserts.
#pragma once

#include "common/trace.hpp"
#include "control/policy_engine.hpp"
#include "mmtp/buffer_service.hpp"
#include "mmtp/receiver.hpp"
#include "mmtp/sender.hpp"
#include "netsim/fault.hpp"
#include "netsim/network.hpp"
#include "pnet/stages.hpp"
#include "scenario/driver.hpp"

#include <map>
#include <memory>
#include <optional>
#include <string>

namespace mmtp::scenario {

/// What a shape-shift drill varies: the traffic window, the burst, the
/// poll horizon, the flush, tracing and the policy preset
/// (campaign::generate). The spans, the message size and the closed
/// loop's cadence are one operating point, fixed in shapeshift.cpp; its
/// drain window, loss threshold and restore hysteresis are
/// policy_engine_config's defaults.
struct shapeshift_config {
    std::uint64_t seed{42};
    /// Fixed-size DAQ messages offered below the WAN rate (the drill
    /// probes mode agility, not overload).
    std::uint64_t messages{1500};
    sim_duration message_interval{sim_duration{4000}}; // 4 us ≈ 8.2 Gbps
    /// The mid-run degradation: a corruption burst on the WAN span.
    sim_time burst_at{sim_time{2000000}};            // 2 ms
    sim_duration burst_duration{sim_duration{1500000}}; // 1.5 ms
    double burst_ber{2e-5}; // ≈ half of all datagrams corrupted
    /// The closed loop stops polling here (see policy_engine_config).
    sim_time poll_until{sim_time{40000000}}; // 40 ms
    /// End-of-window flush from DTN1 revealing tail loss.
    sim_time flush_at{sim_time{7000000}}; // 7 ms
    bool trace{true};
    /// Policy preset the engine runs. closed_loop (default) answers the
    /// burst with a runtime mode shift; static_preset pins epoch 0 and
    /// leans on NAK recovery alone — the campaign runner sweeps both.
    control::mode_preset policy{control::mode_preset::closed_loop};

    bool operator==(const shapeshift_config&) const = default;
};

/// When the first message leaves the sensor; campaign::generate places
/// the burst and the flush relative to it.
inline constexpr sim_time shapeshift_first_message{100000}; // 100 us

struct shapeshift_testbed {
    netsim::network net;
    shapeshift_config cfg;

    netsim::host* sensor{nullptr};
    netsim::host* dtn1{nullptr};
    pnet::programmable_switch* tofino{nullptr};
    netsim::host* rx_host{nullptr};

    netsim::link* wan{nullptr};

    std::unique_ptr<core::stack> sensor_stack;
    std::unique_ptr<core::sender> tx;
    std::unique_ptr<core::stack> dtn1_stack;
    std::unique_ptr<core::buffer_service> dtn1_svc;
    std::unique_ptr<core::stack> rx_stack;
    std::unique_ptr<core::receiver> rx;

    std::shared_ptr<pnet::mode_transition_stage> mode_stage;
    std::unique_ptr<control::policy_engine> policy_ctl;
    std::unique_ptr<netsim::fault_scheduler> faults;

    std::unique_ptr<trace::flight_recorder> tracer;
    std::unique_ptr<trace::scoped_recorder> tracer_install;

    std::uint64_t messages_scheduled{0};
    /// Deliveries at rx keyed by the policy epoch (cfg_id) they arrived
    /// under — the per-epoch story the drill reports.
    std::map<std::uint8_t, std::uint64_t> delivered_by_epoch;
};

/// Builds the drill topology, wires the closed-loop engine to the WAN's
/// loss counters, and scripts the traffic, the burst and the flush.
/// Call net.sim().run() (or use shapeshift_driver / run_shapeshift_drill)
/// to execute.
std::unique_ptr<shapeshift_testbed> make_shapeshift(const shapeshift_config& cfg);

struct shapeshift_result {
    core::sender_stats tx;
    core::receiver_stats rx;
    core::buffer_service_stats buf;
    netsim::link_stats wan;
    control::policy_engine_stats ctl;
    std::uint64_t messages_sent{0};
    std::uint64_t delivered{0};
    bool all_delivered{false};
    /// Element-side epoch machinery counters (the Tofino).
    std::uint64_t mode_shifts{0};
    std::uint64_t epochs_retired{0};
    /// Where the control loop ended up.
    std::uint8_t final_epoch{0};
    std::string final_posture;
    /// Receiver-side cross-epoch observation.
    std::uint64_t rx_mode_shifts_seen{0};
    std::uint8_t rx_last_epoch{0};
    std::map<std::uint8_t, std::uint64_t> delivered_by_epoch;

    /// Deterministic telemetry: integer-only table and the metrics
    /// registry snapshot (same-seed runs are byte-identical).
    telemetry::table report{"shapeshift drill"};
    std::string metrics_csv;

    /// The reconfiguration story as trace spans
    /// (planned → installed → committed per shift; empty without trace).
    std::string reconfig_timeline;
};

/// Mid-run WAN degradation answered by a runtime mode shift.
class shapeshift_driver : public driver {
public:
    explicit shapeshift_driver(shapeshift_config cfg = {}) : cfg_(cfg) {}

    std::string describe() const override;
    run_context build() override;
    telemetry::table report(telemetry::metrics_registry& reg) override;
    acceptance accept() override;

    shapeshift_testbed& testbed() { return *tb_; }
    /// Summarized once after run(); report() fills it.
    const shapeshift_result& result();

private:
    shapeshift_config cfg_;
    std::unique_ptr<shapeshift_testbed> tb_;
    std::optional<shapeshift_result> result_;
};

/// Builds, runs to completion, and summarizes one shape-shift drill.
shapeshift_result run_shapeshift_drill(const shapeshift_config& cfg);

} // namespace mmtp::scenario
