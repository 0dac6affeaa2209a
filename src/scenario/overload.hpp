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
// (overload_result::csv / metrics_csv), which is what test_overload
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
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/report.hpp"

#include <functional>
#include <memory>
#include <string>

namespace mmtp::scenario {

struct overload_config {
    std::uint64_t seed{42};
    /// WAN span: the bottleneck the drill overloads.
    data_rate wan_rate{data_rate::from_gbps(10)};
    sim_duration wan_delay{sim_duration{1000000}}; // 1 ms one way
    /// Per-band byte capacity of the WAN's priority egress queue (also
    /// the capacity the backpressure stage scales severity against).
    std::uint64_t band_bytes{2ull * 1024 * 1024};
    /// Fixed-size DAQ messages offered at ~2× the WAN rate for a
    /// sustained window — the overload under test.
    std::uint32_t message_bytes{8192};
    std::uint64_t messages{5000};
    sim_duration message_interval{sim_duration{3300}}; // ~19.9 Gbps offered
    sim_time first_message{sim_time{100000}};          // 100 us
    /// Timeliness budget stamped by the Tofino's mode rule.
    std::uint32_t deadline_us{5000};
    /// Backpressure hysteresis on the WAN egress (engage at high,
    /// release below low) plus signal rate limiting.
    std::uint64_t bp_low_bytes{512 * 1024};
    std::uint64_t bp_high_bytes{1024 * 1024};
    sim_duration bp_min_interval{sim_duration{100000}}; // 100 us
    unsigned bp_level_bands{8};
    /// Sender pace (≈ the offered rate; pacing is not the bottleneck
    /// until backpressure scales it) and its AIMD schedule.
    data_rate pace{data_rate::from_gbps(20)};
    double min_pace_fraction{0.25};
    sim_duration backpressure_hold{sim_duration{2000000}};  // 2 ms
    double recovery_step_fraction{0.2};
    sim_duration recovery_interval{sim_duration{500000}};   // 500 us
    /// buf's storage and its occupancy watermarks (clones of every
    /// original land here; retention decay eventually releases pressure).
    /// Retention must outlive the whole recovery tail (gaps behind the
    /// load window retry on the NAK schedule above), and it also sets
    /// when occupancy decays below the low watermark.
    std::uint64_t buffer_capacity_bytes{64ull * 1024 * 1024};
    sim_duration buffer_retention{sim_duration{80000000}};  // 80 ms
    /// Repair traffic is paced below the WAN rate so recovery cannot
    /// re-overload the segment it is repairing.
    data_rate retransmit_pace{data_rate::from_gbps(8)};
    std::uint64_t occupancy_high_bytes{8ull * 1024 * 1024};
    std::uint64_t occupancy_low_bytes{4ull * 1024 * 1024};
    /// Cadence of buf's retention sweep / watermark re-check, and when
    /// to stop polling (bounds the run).
    sim_duration pressure_poll{sim_duration{1000000}}; // 1 ms
    sim_time poll_until{sim_time{150000000}};          // 150 ms
    /// A second flow asks for admission mid-overload: it must be
    /// deferred while buf's pressure gates the storage link and admitted
    /// once pressure releases.
    sim_time second_flow_at{sim_time{10000000}}; // 10 ms
    data_rate second_flow_rate{data_rate::from_gbps(1)};
    /// Receiver recovery knobs. Retransmissions ride the WAN's bulk band
    /// *behind* the deadline traffic, so a gap is often unfillable until
    /// the load window drains — the retry base must be generous or every
    /// retry just duplicates a retransmission already parked in band 1.
    sim_duration nak_retry{sim_duration{20000000}};     // 20 ms
    sim_duration nak_retry_cap{sim_duration{40000000}}; // 40 ms
    std::uint32_t max_nak_attempts{8};
    /// End-of-stream detection: once the sender has drained, a flush
    /// marker (re-checked at this cadence) reveals any tail loss.
    sim_duration flush_check{sim_duration{1000000}}; // 1 ms
    /// Recovery probing cadence and give-up horizon.
    sim_duration probe_interval{sim_duration{500000}};    // 500 us
    sim_duration probe_deadline{sim_duration{400000000}}; // 400 ms
    /// Rate the primary flow is admitted at.
    data_rate planned_rate{data_rate::from_gbps(8)};
    bool trace{true};
    std::size_t trace_capacity{1u << 18};
    /// Packets per burst on every span (1 = classic per-packet path).
    /// The WAN egress itself always runs per-packet regardless — its
    /// backpressure depth watcher must observe every transient depth.
    std::uint32_t link_burst{1};
};

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
    telemetry::metrics_registry metrics;

    std::uint64_t messages_scheduled{0};
    bool flush_sent{false};
    /// Self-rescheduling scripts (flush watcher, pressure poll).
    std::function<void()> flush_watch;
    std::function<void()> pressure_poll;
};

/// Builds the drill topology, wires every overload-control loop, and
/// scripts the traffic, the deferred admission, the pressure polling and
/// the end-of-stream flush. Call net.sim().run() (or use
/// run_overload_drill) to execute.
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

    /// Deterministic telemetry: integer-only table, its CSV bytes, and
    /// the metrics registry snapshot (same-seed runs are byte-identical).
    telemetry::table report{"overload drill"};
    std::string csv;
    std::string metrics_csv;

    /// Hop-by-hop story of the first deadline-shed packet's sequence:
    /// shed at the WAN egress, NAKed, recovered from buf
    /// (UINT64_MAX when nothing was shed or tracing was off).
    std::uint64_t traced_sequence{std::uint64_t(-1)};
    std::string hop_timeline;
};

/// Summarizes an already-run testbed (drivers separate build/run/report).
overload_result summarize_overload(overload_testbed& tb);

/// Builds, runs to completion, and summarizes one overload drill.
overload_result run_overload_drill(const overload_config& cfg);

} // namespace mmtp::scenario
