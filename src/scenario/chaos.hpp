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
// (chaos_result::report), which is what test_chaos asserts.
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
#include "scenario/driver.hpp"
#include "telemetry/recorder.hpp"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace mmtp::scenario {

/// What a chaos drill varies: the traffic window, the fault and flush
/// instants, tracing and persistence (campaign::generate), the
/// kill-and-revive script (kill_revive_config()) and recording
/// (chaos_replay). Everything else — the spans, the recovery schedule,
/// the planned rate — is one operating point, fixed in chaos.cpp.
struct chaos_config {
    std::uint64_t seed{42};
    /// Fixed-size DAQ messages, injected unpaced so the WAN egress queue
    /// holds a backlog when the fault hits (the stranded packets are the
    /// loss the drill must recover).
    std::uint32_t message_bytes{8192};
    std::uint64_t messages{1000};
    sim_duration message_interval{sim_duration{4000}}; // 4 us
    /// The instant the primary WAN link and buf1 itself fail
    /// (mid-transfer with the defaults above).
    sim_time fault_at{sim_time{2000000}}; // 2 ms
    /// End-of-window flush revealing any tail loss (after the last
    /// message has been injected).
    sim_time flush_at{sim_time{8000000}}; // 8 ms
    /// Install a flight recorder and name every site, so the result can
    /// show a failed-over message's hop-by-hop timeline.
    bool trace{true};
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

    bool operator==(const chaos_config&) const = default;
};

/// When the first message leaves the source; campaign::generate places
/// the fault and the flush relative to it.
inline constexpr sim_time chaos_first_message{100000}; // 100 us
/// Recovery probing gives up this long after a fault instant.
inline constexpr sim_duration chaos_probe_deadline{500000000}; // 500 ms

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
    /// cfg.trace).
    std::unique_ptr<trace::flight_recorder> tracer;
    std::unique_ptr<trace::scoped_recorder> tracer_install;

    std::uint64_t messages_scheduled{0};
    std::uint64_t datagrams_at_fault{0};
};

/// Builds the drill topology, wires the failure-aware control plane, and
/// scripts the traffic, the fault and the flush. Call net.sim().run()
/// (or use chaos_driver / run_chaos_drill) to execute.
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
    /// and its CSV bytes are deterministic).
    telemetry::table report{"chaos drill"};

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

/// Coordinated WAN + buffer failure mid-transfer (chaos drill).
class chaos_driver : public driver {
public:
    explicit chaos_driver(chaos_config cfg = {}) : cfg_(cfg) {}

    std::string describe() const override;
    run_context build() override;
    telemetry::table report(telemetry::metrics_registry& reg) override;
    acceptance accept() override;

    chaos_testbed& testbed() { return *tb_; }
    /// Summarized once after run(); report() fills it.
    const chaos_result& result();

private:
    chaos_config cfg_;
    std::unique_ptr<chaos_testbed> tb_;
    std::optional<chaos_result> result_;
};

/// Builds, runs to completion, and summarizes one chaos drill.
chaos_result run_chaos_drill(const chaos_config& cfg);

} // namespace mmtp::scenario
