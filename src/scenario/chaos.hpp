// chaos.hpp — the chaos drill: coordinated failure of the primary WAN
// path and the primary retransmission buffer, mid-transfer.
//
// The paper's robustness claim is layered: capacity-planned paths make
// congestion loss rare (§4.1), nearest-buffer recovery absorbs the loss
// that still happens (§5.1), and "another retransmission buffer becomes
// available" when the nearest one does not answer. The chaos drill
// exercises every layer at once:
//
//     src ──► Tofino ═══ wan-primary ═══► rx        (admitted path)
//              │ │  └─── wan-backup ───►            (registered backup)
//              │ └──► buf1  (primary tap buffer)    ← blacked out
//              └────► buf2  (secondary tap buffer)  ← advertised fallback
//
// At `fault_at`, the fault scheduler takes the primary WAN link down,
// severs the Tofino→buf1 feed, and powers buf1 off. The health monitor
// observes the transitions and drives the capacity planner, which
// releases the dead path's budgets and re-admits the flow onto the
// backup (repointing the Tofino's route via the reroute callback) while
// a health listener prunes buf1 from the duplication subscribers. The
// receiver's NAKs to buf1 go unanswered, back off exponentially, and
// fail over to buf2 — learned earlier from buf1's own advert. A
// recovery_tracker probes until the stream is whole again.
//
// Everything — faults, probes, recovery — rides the simulation engine,
// so two runs with the same config produce byte-identical telemetry
// (chaos_result::csv), which is what test_chaos asserts.
#pragma once

#include "common/trace.hpp"
#include "control/health_monitor.hpp"
#include "control/planner.hpp"
#include "dtn/durable_store.hpp"
#include "mmtp/buffer_service.hpp"
#include "mmtp/receiver.hpp"
#include "mmtp/sender.hpp"
#include "netsim/fault.hpp"
#include "netsim/network.hpp"
#include "pnet/stages.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/report.hpp"
#include "telemetry/run_recorder.hpp"

#include <memory>
#include <string>

namespace mmtp::scenario {

struct chaos_config {
    std::uint64_t seed{42};
    /// WAN span (both primary and backup).
    data_rate wan_rate{data_rate::from_gbps(10)};
    sim_duration wan_delay{sim_duration{1000000}}; // 1 ms one way
    std::uint64_t wan_queue_bytes{8ull * 1024 * 1024};
    /// Fixed-size DAQ messages, injected unpaced so the WAN egress queue
    /// holds a backlog when the fault hits (the stranded packets are the
    /// loss the drill must recover).
    std::uint32_t message_bytes{8192};
    std::uint64_t messages{1000};
    sim_duration message_interval{sim_duration{4000}}; // 4 us
    sim_time first_message{sim_time{100000}};          // 100 us
    /// The instant the primary WAN link and buf1 itself fail
    /// (mid-transfer with the defaults above).
    sim_time fault_at{sim_time{2000000}}; // 2 ms
    /// How long after `fault_at` the switch's feed span to buf1 is cut.
    /// The gap keeps the feed carrying traffic into the dead node for a
    /// moment — clones and the first NAK reach buf1 and are dropped at
    /// its ingress — before the control plane sees the span go dark.
    sim_duration feed_cut_after{sim_duration{3000000}}; // 3 ms
    /// End-of-window flush revealing any tail loss (after the last
    /// message has been injected).
    sim_time flush_at{sim_time{8000000}}; // 8 ms
    /// Recovery probing cadence and give-up horizon (after fault_at).
    sim_duration probe_interval{sim_duration{500000}};    // 500 us
    sim_duration probe_deadline{sim_duration{500000000}}; // 500 ms
    /// Receiver recovery knobs (base must exceed the rx→buffer RTT).
    sim_duration nak_retry{sim_duration{5000000}};      // 5 ms
    sim_duration nak_retry_cap{sim_duration{40000000}}; // 40 ms
    std::uint32_t max_nak_attempts{6};
    std::uint32_t failover_attempts{2};
    /// Rate the flow is admitted at (must fit the WAN budgets).
    data_rate planned_rate{data_rate::from_gbps(8)};
    /// Install a flight recorder and name every site, so the result can
    /// show a failed-over message's hop-by-hop timeline.
    bool trace{true};
    /// Ring capacity in records (rounded up to a power of two). The
    /// default holds the whole drill without overwrites.
    std::size_t trace_capacity{1u << 17};
    /// Packets per burst on every span (1 = classic per-packet path).
    std::uint32_t link_burst{1};
    /// Write buf1 through a durable store. Required (and forced) when
    /// revive_at > 0 — a revive without an archive has nothing to reload.
    bool persist{true};

    // --- kill-and-revive phase (disabled by default — zeros leave the
    // classic drill byte-identical; use kill_revive_config()) ---
    //
    // buf1 always writes through a durable_store; with revive_at == 0
    // that archive is simply never read back. When revive_at > 0 the
    // fault hooks make the blackout a genuine kill (buf1's in-memory
    // state dies, its unsealed archive tail is lost and counted) and the
    // restore a genuine revive (reload the archive, re-advertise, serve
    // NAKs for messages the — by then blacked-out — secondary never saw).
    /// Records per archive chunk on buf1's store (the seal granularity:
    /// smaller chunks = smaller unsealed-tail loss window).
    std::uint32_t persist_chunk_records{64};
    /// The secondary buffer (buf2) is blacked out and its feed cut here
    /// (0 = never) — from now on only a revived buf1 can answer NAKs.
    sim_time fault2_at{sim_time{0}};
    /// buf1 is restored here (0 = kill-and-revive phase disabled): its
    /// feed is repaired, the archive reloads, it re-advertises (the
    /// receiver fails *back*) and rejoins the duplication group.
    sim_time revive_at{sim_time{0}};
    /// Second traffic wave, injected after the revive; its losses are
    /// recoverable only from the revived buf1.
    std::uint64_t messages2{0};
    sim_time second_wave_at{sim_time{0}};
    /// Corruption burst on the backup WAN span during the second wave —
    /// the loss process the revived buffer repairs.
    sim_time burst_at{sim_time{0}};
    sim_duration burst_duration{sim_duration{0}};
    double burst_ber{0.0};
    /// End-of-window flush for the second wave (0 = none).
    sim_time flush2_at{sim_time{0}};
    /// Capture the finished run (trace + metrics + report) into
    /// chaos_result::recording for archive-based replay.
    bool record{false};
};

/// The chaos drill plus the kill-and-revive phase: buf2 dies at 25 ms,
/// buf1 revives from its archive at 30 ms, a 500-message second wave
/// rides a corruption burst on the backup span, and the drill ends whole
/// — 0 lost, 0 duplicated — with the revived buffer serving every repair.
chaos_config kill_revive_config();

struct chaos_testbed {
    netsim::network net;
    chaos_config cfg;

    netsim::host* src{nullptr};
    pnet::programmable_switch* tofino{nullptr};
    netsim::host* rx_host{nullptr};
    netsim::host* buf1{nullptr};
    netsim::host* buf2{nullptr};

    unsigned wan_primary_port{0};
    unsigned wan_backup_port{0};
    netsim::link* wan_primary{nullptr};
    netsim::link* wan_backup{nullptr};
    netsim::link* buf1_feed{nullptr};
    netsim::link* buf2_feed{nullptr};

    /// buf1's modeled disk: owned here (not by the service) so it
    /// survives the crash()/revive() cycle, like a disk survives a
    /// power cut.
    std::unique_ptr<dtn::durable_store> buf1_store;

    std::unique_ptr<core::stack> src_stack;
    std::unique_ptr<core::sender> tx;
    std::unique_ptr<core::stack> rx_stack;
    std::unique_ptr<core::receiver> rx;
    std::unique_ptr<core::stack> buf1_stack;
    std::unique_ptr<core::buffer_service> buf1_svc;
    std::unique_ptr<core::stack> buf2_stack;
    std::unique_ptr<core::buffer_service> buf2_svc;

    std::shared_ptr<pnet::mode_transition_stage> mode_stage;
    std::shared_ptr<pnet::duplication_stage> duplication;

    control::capacity_planner planner;
    control::flow_id flow{0};
    std::unique_ptr<control::health_monitor> health;
    std::unique_ptr<netsim::fault_scheduler> faults;
    std::unique_ptr<telemetry::recovery_tracker> recovery;
    /// Second tracker: armed at fault2_at, healthy when every message of
    /// both waves has been delivered and no gap is outstanding.
    std::unique_ptr<telemetry::recovery_tracker> recovery2;

    /// Flight recorder (installed for the testbed's lifetime when
    /// cfg.trace) and the run's metrics registry.
    std::unique_ptr<trace::flight_recorder> tracer;
    std::unique_ptr<trace::scoped_recorder> tracer_install;
    telemetry::metrics_registry metrics;

    std::uint64_t messages_scheduled{0};
    std::uint64_t datagrams_at_fault{0};
};

/// Builds the drill topology, wires the failure-aware control plane, and
/// scripts the traffic, the fault and the flush. Call net.sim().run()
/// (or use run_chaos_drill) to execute.
std::unique_ptr<chaos_testbed> make_chaos(const chaos_config& cfg);

struct chaos_result {
    core::receiver_stats rx;
    core::buffer_service_stats buf1;
    core::buffer_service_stats buf2;
    netsim::link_stats wan_primary;
    netsim::link_stats wan_backup;
    control::planner_stats planner;
    control::health_stats health;
    netsim::fault_stats faults;
    std::uint64_t messages_sent{0};
    std::uint64_t datagrams_at_fault{0};
    /// Datagrams the application received after the fault instant — the
    /// drill's "delivered despite failure" headline number.
    std::uint64_t delivered_despite_failure{0};
    /// Packets stranded in the dead primary link's queue at end of run.
    std::uint64_t stranded_in_primary_queue{0};
    std::uint64_t buf1_blackout_dropped{0};
    bool recovered{false};
    sim_duration time_to_recover{sim_duration::zero()};
    std::uint64_t probes{0};
    /// Kill-and-revive phase outcome (false/zero when disabled).
    bool recovered2{false};
    sim_duration time_to_recover2{sim_duration::zero()};
    std::uint64_t probes2{0};

    /// The run's telemetry as a table (integer cells only, so rendering
    /// is deterministic) and its CSV bytes for run-to-run comparison.
    telemetry::table report{"chaos drill"};
    std::string csv;

    /// Hop-by-hop story of one failed-over message (the first sequence
    /// buf2 retransmitted): rendered timeline, whether it crossed the
    /// backup WAN span after the fault, and the sequence itself
    /// (UINT64_MAX when tracing was off or nothing failed over).
    std::uint64_t traced_sequence{std::uint64_t(-1)};
    std::string hop_timeline;
    bool traversed_backup{false};
    /// Metrics registry snapshot (integer-only, deterministic bytes).
    std::string metrics_csv;

    /// Archive blob capturing the whole run — wire events, metrics,
    /// report — when chaos_config::record was set (else empty). Feed it
    /// to telemetry::run_replayer to re-derive metrics_csv byte-for-byte.
    std::vector<std::uint8_t> recording;
};

/// Summarizes an already-run testbed (drivers separate build/run/report).
chaos_result summarize_chaos(chaos_testbed& tb);

/// Builds, runs to completion, and summarizes one chaos drill.
chaos_result run_chaos_drill(const chaos_config& cfg);

} // namespace mmtp::scenario
