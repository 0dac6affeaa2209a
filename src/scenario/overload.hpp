// overload.hpp — the overload drill: 2× sustained offered load pushed
// through a pilot-style topology with every overload-control layer
// engaged at once.
//
// The paper argues capacity planning makes congestion rare (§4.1) and
// that MMTP therefore needs only lightweight reactions when it happens
// anyway (§5.3). The overload drill probes exactly that boundary: the
// source offers twice the WAN's rate for a sustained window, and the
// stack must degrade *predictably* instead of collapsing:
//
//     src ──► Tofino ════ wan (priority + deadline shedding) ════► rx
//              │  ▲
//              ▼  └ backpressure signals (hysteresis + escalation bands)
//             buf  (duplication-fed tap; storage watermarks gate the
//                   planner's admissions while occupancy is high)
//
// Four control loops close during the run:
//   1. the Tofino's backpressure stage watches the WAN egress queue and
//      signals the source across hysteresis watermarks (O(crossings)
//      signals, not O(packets));
//   2. the sender's AIMD schedule cuts its pace multiplicatively per
//      signal and recovers additively after a quiet period — the pace
//      returns to the configured rate by the end of the drill;
//   3. the WAN egress queue sheds the entry closest to its deadline
//      (never control, never retransmissions) when a band fills;
//   4. buf's occupancy watermarks gate the capacity planner: a scripted
//      second-flow admission is deferred while storage pressure is
//      engaged and admitted automatically once retention decay releases
//      it.
//
// Loss is recovered from buf via NAK (zero give-ups required); deadline
// misses — late arrivals plus shed/dropped originals — stay bounded and
// are the drill's headline number. Everything rides the simulation
// engine, so two same-seed runs produce byte-identical telemetry
// (overload_result::report / metrics_csv), which is what test_overload
// asserts.
#pragma once

#include "common/trace.hpp"
#include "control/planner.hpp"
#include "mmtp/buffer_service.hpp"
#include "mmtp/receiver.hpp"
#include "mmtp/sender.hpp"
#include "netsim/network.hpp"
#include "netsim/queue.hpp"
#include "pnet/stages.hpp"
#include "scenario/driver.hpp"
#include "telemetry/recorder.hpp"

#include <functional>
#include <memory>
#include <optional>
#include <string>

namespace mmtp::scenario {

/// What an overload drill varies. Its control loops are tuned as a
/// system, so programs vary only the offered window and tracing
/// (campaign::generate); every other value — spans, watermarks, the AIMD
/// schedule, the recovery schedule, the second flow — is one operating
/// point, fixed in overload.cpp.
struct overload_config {
    std::uint64_t seed{42};
    /// Fixed-size DAQ messages offered at ~2× the WAN rate for a
    /// sustained window — the overload under test.
    std::uint64_t messages{5000};
    bool trace{true};

    bool operator==(const overload_config&) const = default;
};

/// Sender pace (≈ the offered rate; pacing is not the bottleneck until
/// backpressure scales it). The AIMD loop must end the drill back at it.
inline constexpr data_rate overload_pace = data_rate::from_gbps(20);
/// A second flow asks for admission here, mid-overload: it must be
/// deferred while buf's pressure gates the storage link and admitted
/// once pressure releases.
inline constexpr sim_time overload_second_flow_at{10000000}; // 10 ms
/// Recovery probing gives up this long after the load window ends.
inline constexpr sim_duration overload_probe_deadline{400000000}; // 400 ms

struct overload_testbed {
    netsim::network net;
    overload_config cfg;

    netsim::host* src{nullptr};
    pnet::programmable_switch* tofino{nullptr};
    netsim::host* rx_host{nullptr};
    netsim::host* buf{nullptr};

    unsigned wan_port{0};
    netsim::link* wan{nullptr};
    /// The WAN's priority queue (owned by the link; raw pointer kept for
    /// per-band accounting).
    netsim::priority_queue_disc* wan_queue{nullptr};

    std::unique_ptr<core::stack> src_stack;
    std::unique_ptr<core::sender> tx;
    std::unique_ptr<core::stack> rx_stack;
    std::unique_ptr<core::receiver> rx;
    std::unique_ptr<core::stack> buf_stack;
    std::unique_ptr<core::buffer_service> buf_svc;

    std::shared_ptr<pnet::mode_transition_stage> mode_stage;
    std::shared_ptr<pnet::backpressure_stage> bp_stage;

    control::capacity_planner planner;
    control::flow_id flow{0};
    /// Simulated instant the deferred second flow was admitted
    /// (zero => never admitted).
    sim_time second_flow_admitted_at{sim_time::zero()};
    std::unique_ptr<telemetry::recovery_tracker> recovery;

    std::unique_ptr<trace::flight_recorder> tracer;
    std::unique_ptr<trace::scoped_recorder> tracer_install;

    std::uint64_t messages_scheduled{0};
    bool flush_sent{false};
    /// Self-rescheduling scripts (flush watcher, pressure poll).
    std::function<void()> flush_watch;
    std::function<void()> pressure_poll;
};

/// Builds the drill topology, wires every overload-control loop, and
/// scripts the traffic, the deferred admission, the pressure polling and
/// the end-of-stream flush. Call net.sim().run() (or use
/// overload_driver / run_overload_drill) to execute.
std::unique_ptr<overload_testbed> make_overload(const overload_config& cfg);

struct overload_result {
    core::sender_stats tx;
    core::receiver_stats rx;
    core::buffer_service_stats buf;
    netsim::link_stats wan;
    netsim::queue_stats wan_queue;
    control::planner_stats planner;
    std::uint64_t messages_sent{0};
    /// Per-band WAN egress accounting (band 0 = deadline + control).
    std::uint64_t band0_dropped{0};
    std::uint64_t band0_shed{0};
    std::uint64_t band1_dropped{0};
    /// Tofino backpressure-stage counters.
    std::uint64_t bp_engagements{0};
    std::uint64_t bp_escalations{0};
    std::uint64_t bp_suppressed{0};
    std::uint64_t bp_signals{0};
    /// Deadline misses: arrivals past their budget plus deadline-band
    /// originals lost at the WAN egress (recovered copies carry no
    /// deadline, so nothing is counted twice).
    std::uint64_t missed_deadline{0};
    std::uint64_t miss_ppm{0};
    /// Effective sender pace at end of run (bits/sec) — the AIMD loop
    /// must have recovered it to the configured rate.
    std::uint64_t final_pace_bps{0};
    bool pace_recovered{false};
    /// Storage-pressure story.
    std::uint64_t pressure_engagements{0};
    std::uint64_t pressure_releases{0};
    bool second_flow_deferred{false};
    bool second_flow_admitted{false};
    sim_time second_flow_admitted_at{sim_time::zero()};
    bool recovered{false};
    sim_duration time_to_recover{sim_duration::zero()};
    std::uint64_t probes{0};

    /// Deterministic telemetry: integer-only table and the metrics
    /// registry snapshot (same-seed runs are byte-identical).
    telemetry::table report{"overload drill"};
    std::string metrics_csv;

    /// Hop-by-hop story of the first deadline-shed packet's sequence:
    /// shed at the WAN egress, NAKed, recovered from buf
    /// (UINT64_MAX when nothing was shed or tracing was off).
    std::uint64_t traced_sequence{std::uint64_t(-1)};
    std::string hop_timeline;
};

/// 2× sustained offered load with every overload-control layer engaged.
class overload_driver : public driver {
public:
    explicit overload_driver(overload_config cfg = {}) : cfg_(cfg) {}

    std::string describe() const override;
    run_context build() override;
    telemetry::table report(telemetry::metrics_registry& reg) override;
    acceptance accept() override;

    overload_testbed& testbed() { return *tb_; }
    /// Summarized once after run(); report() fills it.
    const overload_result& result();

private:
    overload_config cfg_;
    std::unique_ptr<overload_testbed> tb_;
    std::optional<overload_result> result_;
};

/// Builds, runs to completion, and summarizes one overload drill.
overload_result run_overload_drill(const overload_config& cfg);

} // namespace mmtp::scenario
