// soak.hpp — the facility-scale soak: all five Table-1 experiments at
// once, over shared WAN spans and DTNs, under a scripted fault-and-
// overload storm.
//
// Every other drill exercises one subsystem against one stream. The
// soak is the integration claim of §2: "integrated research
// infrastructure" means CMS L1, DUNE, ECCE, Mu2e and Vera Rubin share
// the same spans, the same retransmission DTN, the same programmable
// element and the same capacity planner — concurrently, at millions of
// messages — and every control-plane layer stays correct while the
// fault subsystem and the closed-loop policy engines are active in the
// same run (the first drill to combine them):
//
//   cms ──┐
//   dune ─┤                       ┌── wan-primary ══╗
//   ecce ─┼─► DTN1 ──► Tofino ────┤                 ╠══► rx
//   mu2e ─┤  (buffer,  (5 mode    └── wan-backup ══╝  │
//   rubin ┘   relay)    stages,        ▲               │
//              ▲        duplication)   │  NAK return ──┘
//              │           │           │
//              │           ▼       planner + health
//       storage pressure  DTN2     (trunks + churn)
//       gates admissions  (tap,
//                          killed + revived mid-run)
//
// Five slices of load: (1) steady per-stream traffic — experiments ×
// slices × messages, timed emission chains, not an up-front schedule;
// (2) admission/teardown churn against the planner (admit_or_defer,
// hold, release) at hundreds of flows; (3) DTN1 storage-pressure
// engagement that gates the churn behind the planner's deferred queue
// and drains it on release; (4) a storm — a corruption burst on the
// primary span, a DTN2 kill-and-revive (blackout hooks + durable
// store), a hard primary-WAN failure rerouting all five trunks onto the
// backup, and a second burst on the now-active backup span; (5) five
// *independent* closed-loop policy engines, one per experiment, each
// owning its own mode_transition_stage on the shared element (epoch
// retirement is per-stage, so one experiment's commit can never retire
// another's rules).
//
// The run must end whole: zero duplicates, zero give-ups (every storm
// loss is NAK-recovered from DTN1), all completed streams retired by
// prune_idle, all pressure-suppression records pruned — and two
// same-seed runs produce byte-identical telemetry even though every
// hot-path table underneath is now hashed (soak_result::csv /
// metrics_csv; test_soak asserts both).
#pragma once

#include "control/health_monitor.hpp"
#include "control/planner.hpp"
#include "control/policy_engine.hpp"
#include "daq/profiles.hpp"
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

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace mmtp::scenario {

/// The five concurrent experiments (Table 1 order).
inline constexpr std::size_t soak_experiments = 5;

struct soak_config {
    std::uint64_t seed{42};

    // --- traffic shape: experiments × slices × messages ---
    /// Parallel sensor slices per experiment (each is one sequence
    /// space: experiment_id = (number << 12) | slice).
    unsigned slices_per_experiment{4};
    /// Messages per slice stream. The default totals 5 × 4 × 50 000 =
    /// one million messages.
    std::uint64_t messages_per_stream{50000};
    std::uint32_t message_bytes{512};
    /// Per-stream emission gap. 2 µs × 20 streams × 512 B ≈ 41 Gbps
    /// offered onto the 100 Gbps WAN span.
    sim_duration message_interval{sim_duration{2000}};
    sim_time first_message{sim_time{100000}}; // 100 us
    /// Experiment mix: bit i enables Table-1 experiment i (cms, dune,
    /// ecce, mu2e, rubin). Disabled experiments keep their trunks,
    /// engines and mode stages — only their traffic is withheld, so the
    /// control plane still carries five tenants.
    std::uint32_t experiment_mask{0x1f};
    /// Per-experiment messages-per-stream override (0 = messages_per_stream)
    /// — the DSL's "rates/counts per experiment" knob.
    std::array<std::uint64_t, 5> experiment_messages{};
    /// Per-experiment emission-gap override (0 ns = message_interval).
    std::array<sim_duration, 5> experiment_interval{};

    // --- spans ---
    data_rate wan_rate{data_rate::from_gbps(100)};
    sim_duration wan_delay{sim_duration{1000000}}; // 1 ms one way
    std::uint64_t wan_queue_bytes{32ull * 1024 * 1024};

    // --- capacity plan: five trunks plus admission/teardown churn ---
    /// Rate each experiment's trunk is admitted at on {daq, wan-primary}
    /// (backup registered on {daq, wan-backup}).
    data_rate trunk_rate{data_rate::from_gbps(8)};
    /// Short-lived transfer requests: one admit_or_defer per interval,
    /// held for `churn_hold`, then released. ~100 live at peak, ~450
    /// admitted over the run — the planner's O(1) hot path at soak
    /// flow counts.
    sim_duration churn_interval{sim_duration{200000}};  // 200 us
    sim_duration churn_hold{sim_duration{20000000}};    // 20 ms
    data_rate churn_rate{data_rate{10000000}};          // 10 Mbps
    sim_time churn_until{sim_time{90000000}};           // 90 ms

    // --- DTN1: shared retransmission buffer + storage pressure ---
    std::uint64_t dtn1_capacity_bytes{1024ull * 1024 * 1024};
    /// Retention horizon; with ~41 Gbps flowing this holds ~102 MB, so
    /// the high watermark below engages early and stays engaged until
    /// the traffic tail decays — gating churn admissions for most of
    /// the run (the deferred queue drains at release).
    sim_duration dtn1_retention{sim_duration{20000000}}; // 20 ms
    std::uint64_t occupancy_high_bytes{96ull * 1024 * 1024};
    std::uint64_t occupancy_low_bytes{32ull * 1024 * 1024};
    /// Quiet period between storage-pressure signals per source.
    sim_duration pressure_hold{sim_duration{5000000}}; // 5 ms
    sim_duration pressure_poll{sim_duration{1000000}}; // 1 ms
    /// Records per archive chunk on DTN2's durable store.
    std::uint32_t persist_chunk_records{256};

    // --- the storm ---
    /// W1: corruption burst on the primary span (all five engines'
    /// loss triggers fire on the next poll).
    sim_time burst1_at{sim_time{20000000}};             // 20 ms
    sim_duration burst1_duration{sim_duration{2000000}}; // 2 ms
    double burst1_ber{2e-6};
    /// DTN2 (the duplication-fed tap) is killed and revived: blackout +
    /// crash() at down, feed repair + revive() + re-advertisement at up.
    sim_time dtn2_down_at{sim_time{30000000}}; // 30 ms
    sim_time dtn2_up_at{sim_time{40000000}};   // 40 ms
    /// W2: the primary WAN span fails hard — the health monitor drives
    /// the planner, all five trunks reroute onto wan-backup, the
    /// element's route flips. Repair does not move them back
    /// (make-before-break is the operator's call).
    sim_time wan_down_at{sim_time{45000000}}; // 45 ms
    sim_time wan_up_at{sim_time{55000000}};   // 55 ms
    /// W3: corruption burst on the backup span (now the active path).
    sim_time burst2_at{sim_time{70000000}};             // 70 ms
    sim_duration burst2_duration{sim_duration{2000000}}; // 2 ms
    double burst2_ber{2e-6};

    // --- closed-loop knobs (one engine per experiment) ---
    /// Preset all five engines run (closed_loop shifts modes on loss and
    /// health triggers; static_preset pins every epoch at 0).
    control::mode_preset policy{control::mode_preset::closed_loop};
    sim_duration poll_interval{sim_duration{1000000}}; // 1 ms
    sim_duration drain_window{sim_duration{2000000}};  // 2 ms
    std::uint64_t loss_degrade_threshold{8};
    unsigned restore_after_clean_polls{4};

    // --- receiver recovery ---
    std::uint32_t max_nak_attempts{10};
    std::uint32_t failover_attempts{4};

    // --- tail: flush, stream retirement, run horizon ---
    /// End-of-window flush, after the traffic tail (~100 ms) but well
    /// inside DTN1's retention so a revealed tail gap is recoverable.
    sim_time flush_at{sim_time{105000000}}; // 105 ms
    /// Periodic receiver prune: completed streams idle this long retire
    /// (must exceed the reorder/pacing horizon). The first sweep runs
    /// only after the flush markers have landed and their recovery has
    /// settled — a retired stream that later receives a flush marker
    /// would be resurrected as an all-gap ghost.
    sim_time prune_from{sim_time{118000000}};           // 118 ms
    sim_duration prune_interval{sim_duration{5000000}}; // 5 ms
    sim_duration prune_idle_after{sim_duration{10000000}}; // 10 ms
    /// Recovery probe after W2 (reroute wholeness).
    sim_duration probe_interval{sim_duration{500000}}; // 500 us
    /// Bounded horizon for every periodic chain (polls, prunes).
    sim_time end_at{sim_time{140000000}}; // 140 ms

    /// Packets per burst on every span (1 = classic per-packet path).
    std::uint32_t link_burst{1};

    /// Messages the traffic loop will schedule under the mask/overrides.
    std::uint64_t expected_messages() const
    {
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < 5; ++i) {
            if ((experiment_mask >> i & 1u) == 0) continue;
            const std::uint64_t per = experiment_messages[i] != 0
                ? experiment_messages[i]
                : messages_per_stream;
            total += static_cast<std::uint64_t>(slices_per_experiment) * per;
        }
        return total;
    }
};

/// CI-sized soak: same topology, same storm script, same control plane,
/// ~10 000 messages stretched over the same 100 ms span (ctest label
/// `soak`, sanitizer-friendly). Burst BERs and watermarks are rescaled
/// so every trigger still fires at the smaller packet rate.
soak_config soak_smoke_config();

struct soak_testbed {
    netsim::network net;
    soak_config cfg;

    std::array<netsim::host*, soak_experiments> sensors{};
    netsim::host* dtn1{nullptr};
    netsim::host* dtn2{nullptr};
    pnet::programmable_switch* tofino{nullptr};
    netsim::host* rx_host{nullptr};

    unsigned wan_primary_port{0};
    unsigned wan_backup_port{0};
    netsim::link* wan_primary{nullptr};
    netsim::link* wan_backup{nullptr};
    netsim::link* dtn2_feed{nullptr};

    std::array<std::unique_ptr<core::stack>, soak_experiments> sensor_stacks;
    std::array<std::unique_ptr<core::sender>, soak_experiments> senders;
    std::unique_ptr<core::stack> dtn1_stack;
    std::unique_ptr<core::buffer_service> dtn1_svc;
    std::unique_ptr<core::stack> dtn2_stack;
    std::unique_ptr<core::buffer_service> dtn2_svc;
    /// DTN2's modeled disk (survives the kill-and-revive cycle).
    std::unique_ptr<dtn::durable_store> dtn2_store;
    std::unique_ptr<core::stack> rx_stack;
    std::unique_ptr<core::receiver> rx;

    /// One mode stage per experiment, each owned by its own engine —
    /// epoch retirement is per-stage, so engines can never collide.
    std::array<std::shared_ptr<pnet::mode_transition_stage>, soak_experiments>
        mode_stages;
    std::shared_ptr<pnet::duplication_stage> duplication;
    std::array<std::unique_ptr<control::policy_engine>, soak_experiments> engines;

    control::capacity_planner planner;
    std::array<control::flow_id, soak_experiments> trunks{};
    std::unique_ptr<control::health_monitor> health;
    std::unique_ptr<netsim::fault_scheduler> faults;
    std::unique_ptr<telemetry::recovery_tracker> recovery;

    telemetry::metrics_registry metrics;

    std::uint64_t messages_scheduled{0};
    std::uint64_t churn_requests{0};
    std::uint64_t churn_released{0};
    /// Deliveries keyed by experiment *number* (concurrency evidence).
    std::map<std::uint32_t, std::uint64_t> delivered_by_experiment;
};

/// Builds the soak topology, wires the full control plane (planner +
/// health + five policy engines + pressure gating), and scripts the
/// traffic chains, the churn, the storm and the tail. Call
/// net.sim().run() (or use run_soak_drill) to execute.
std::unique_ptr<soak_testbed> make_soak(const soak_config& cfg);

struct soak_result {
    std::uint64_t messages_sent{0};
    std::uint64_t delivered{0};
    bool all_delivered{false};
    /// Per-experiment delivery counts (all five must be complete).
    std::map<std::uint32_t, std::uint64_t> delivered_by_experiment;
    bool all_experiments_complete{false};

    core::receiver_stats rx;
    core::buffer_service_stats dtn1;
    core::buffer_service_stats dtn2;
    netsim::link_stats wan_primary;
    netsim::link_stats wan_backup;
    control::planner_stats planner;
    control::health_stats health;
    netsim::fault_stats faults;

    /// Aggregated across the five per-experiment engines.
    std::uint64_t reconfigs_committed{0};
    std::uint64_t loss_triggers{0};
    std::uint64_t health_triggers{0};
    std::uint64_t restores{0};

    std::uint64_t streams_seen{0};
    std::uint64_t streams_retired{0};
    std::uint64_t streams_live_at_end{0};
    std::uint64_t signals_pruned{0};

    std::uint64_t churn_requests{0};
    std::uint64_t churn_released{0};

    bool rerouted_all_trunks{false};
    bool recovered_after_reroute{false};
    sim_duration time_to_recover{sim_duration::zero()};

    telemetry::table report{"soak drill"};
    std::string csv;
    std::string metrics_csv;
};

/// Summarizes an already-run testbed (drivers separate build/run/report).
soak_result summarize_soak(soak_testbed& tb);

/// Builds, runs to completion, and summarizes one soak.
soak_result run_soak_drill(const soak_config& cfg);

} // namespace mmtp::scenario
