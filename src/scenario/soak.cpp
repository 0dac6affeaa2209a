#include "scenario/soak.hpp"

#include "daq/message.hpp"

#include <algorithm>
#include <bit>

namespace mmtp::scenario {

namespace {

/// Short labels for hosts and metric labels (Table 1 order, matching
/// daq::table1_profiles()).
constexpr const char* slugs[soak_experiments] = {"cms", "dune", "ecce", "mu2e",
                                                 "rubin"};

/// The drill's one metrics list: every layer reports into one place.
void register_metrics(telemetry::metrics_registry& reg, soak_testbed& tb)
{
    telemetry::register_engine_metrics(reg, tb.net.sim());
    telemetry::register_link_metrics(reg, "wan-primary", *tb.wan_primary);
    telemetry::register_link_metrics(reg, "wan-backup", *tb.wan_backup);
    telemetry::register_link_metrics(reg, "dtn2-feed", *tb.dtn2_feed);
    telemetry::register_planner_metrics(reg, tb.planner,
                                        {"daq", "wan-primary", "wan-backup"});
    telemetry::register_health_metrics(reg, *tb.health);
    telemetry::register_element_metrics(reg, "tofino", *tb.tofino);
    telemetry::register_stack_metrics(reg, "dtn1", *tb.dtn1_stack);
    telemetry::register_stack_metrics(reg, "rx", *tb.rx_stack);
    telemetry::register_receiver_metrics(reg, "rx", *tb.rx);
    telemetry::register_buffer_metrics(reg, "dtn1", *tb.dtn1_svc);
    telemetry::register_buffer_metrics(reg, "dtn2", *tb.dtn2_svc);
    for (std::size_t i = 0; i < soak_experiments; ++i) {
        telemetry::register_policy_engine_metrics(reg, slugs[i], *tb.engines[i]);
        telemetry::register_sender_metrics(reg, slugs[i], *tb.senders[i]);
    }
}

/// One slice stream's emission chain: each event sends one message and
/// schedules the next. A soak-scale run must NOT pre-schedule all of
/// its messages (a million closures parked in the heap before t=0);
/// the chain keeps exactly one pending event per live stream.
void schedule_stream_emission(soak_testbed* tb, std::size_t exp_idx,
                              wire::experiment_id stream, sim_time at,
                              std::uint64_t seq, std::uint64_t remaining)
{
    if (remaining == 0) return;
    tb->net.sim().schedule_at(at, [tb, exp_idx, stream, at, seq, remaining] {
        daq::daq_message m;
        m.experiment = stream;
        m.sequence = seq;
        m.timestamp_ns = static_cast<std::uint64_t>(at.ns);
        m.size_bytes = tb->cfg.message_bytes; // virtual bulk, no inline bytes
        tb->senders[exp_idx]->send_message(m);
        const sim_duration gap = tb->cfg.experiment_interval[exp_idx].ns != 0
            ? tb->cfg.experiment_interval[exp_idx]
            : tb->cfg.message_interval;
        schedule_stream_emission(tb, exp_idx, stream, at + gap, seq + 1,
                                 remaining - 1);
    });
}

/// Admission/teardown churn: one short-lived transfer request per tick,
/// held for churn_hold then released. Requests refused only by the
/// storage-pressure gate park in the planner's deferred queue and are
/// admitted (FIFO) when the gate reopens — their hold starts then.
/// Releasing a flow the planner already evicted (stranded when the
/// primary span died) is a harmless no-op.
void schedule_churn_tick(soak_testbed* tb, sim_time at)
{
    if (at.ns >= tb->cfg.churn_until.ns) return;
    tb->net.sim().schedule_at(at, [tb, at] {
        tb->churn_requests++;
        auto hold_then_release = [tb](control::flow_id fid) {
            tb->net.sim().schedule_in(tb->cfg.churn_hold, [tb, fid] {
                tb->planner.release(fid);
                tb->churn_released++;
            });
        };
        if (auto fid = tb->planner.admit_or_defer({"daq", "wan-primary"},
                                                  tb->cfg.churn_rate,
                                                  hold_then_release))
            hold_then_release(*fid);
        schedule_churn_tick(tb, at + tb->cfg.churn_interval);
    });
}

/// DTN1 occupancy sweep: decays retention, re-evaluates the watermarks
/// (pressure releases between stores only because of this), and prunes
/// expired signal-suppression records.
void schedule_pressure_poll(soak_testbed* tb, sim_time at)
{
    if (at.ns > tb->cfg.end_at.ns) return;
    tb->net.sim().schedule_at(at, [tb, at] {
        tb->dtn1_svc->poll_pressure();
        schedule_pressure_poll(tb, at + tb->cfg.pressure_poll);
    });
}

/// Receiver stream retirement: completed streams idle past the horizon
/// are dropped so per-stream state does not accumulate over a long run.
void schedule_prune(soak_testbed* tb, sim_time at)
{
    if (at.ns > tb->cfg.end_at.ns) return;
    tb->net.sim().schedule_at(at, [tb, at] {
        tb->rx->prune_idle(tb->cfg.prune_idle_after);
        schedule_prune(tb, at + tb->cfg.prune_interval);
    });
}

} // namespace

soak_config soak_smoke_config()
{
    soak_config cfg;
    // Same topology, storm script and control plane; 5 × 4 × 500 =
    // 10 000 messages stretched over the same ~100 ms span so every
    // storm window still lands mid-traffic.
    cfg.messages_per_stream = 500;
    cfg.message_interval = sim_duration{200000}; // 200 us -> ~410 Mbps
    // Rescale the DTN1 watermarks to the smaller footprint (steady
    // occupancy ~1 MB at the 20 ms retention) so pressure still engages
    // and gates the churn...
    cfg.occupancy_high_bytes = 768ull * 1024;
    cfg.occupancy_low_bytes = 256ull * 1024;
    // ...and the burst BERs so the loss triggers still clear threshold
    // (~100 packets per poll, roughly a third corrupted during a burst).
    cfg.burst1_ber = 1e-4;
    cfg.burst2_ber = 1e-4;
    cfg.churn_interval = sim_duration{500000}; // ~180 churn admissions
    // Archive chunks are per-slice datasets; at ~150 records per slice
    // before the DTN2 kill, a 256-record chunk never seals and the
    // crash would lose everything. 32-record chunks keep the revive
    // meaningful at smoke scale.
    cfg.persist_chunk_records = 32;
    return cfg;
}

std::unique_ptr<soak_testbed> make_soak(const soak_config& cfg)
{
    auto tb = std::make_unique<soak_testbed>();
    tb->cfg = cfg;
    tb->net = netsim::network(cfg.seed);
    auto& net = tb->net;
    auto& eng = net.sim();
    const auto& profiles = daq::table1_profiles();

    // --- topology ---
    for (std::size_t i = 0; i < soak_experiments; ++i)
        tb->sensors[i] = &net.add_host(slugs[i]);
    tb->dtn1 = &net.add_host("dtn1");
    tb->dtn2 = &net.add_host("dtn2");
    tb->tofino =
        &net.emplace<pnet::programmable_switch>("tofino", pnet::tofino2_profile());
    tb->rx_host = &net.add_host("rx");
    tb->tofino->set_id_source(&net.ids());

    netsim::link_config clean;
    clean.rate = data_rate::from_gbps(100);
    clean.propagation = sim_duration{1000};

    netsim::link_config wan;
    wan.rate = cfg.wan_rate;
    wan.propagation = cfg.wan_delay;
    wan.queue_capacity_bytes = cfg.wan_queue_bytes;

    for (std::size_t i = 0; i < soak_experiments; ++i)
        net.connect(*tb->sensors[i], *tb->dtn1, clean);
    net.connect(*tb->dtn1, *tb->tofino, clean);
    tb->wan_primary_port = net.connect_simplex(*tb->tofino, *tb->rx_host, wan);
    tb->wan_backup_port = net.connect_simplex(*tb->tofino, *tb->rx_host, wan);
    netsim::link_config wan_return = clean;
    wan_return.propagation = cfg.wan_delay;
    net.connect_simplex(*tb->rx_host, *tb->tofino, wan_return); // NAK return
    const auto [dtn2_feed_port, dtn2_uplink_port] =
        net.connect(*tb->tofino, *tb->dtn2, clean);
    (void)dtn2_uplink_port;

    tb->wan_primary = &tb->tofino->egress(tb->wan_primary_port);
    tb->wan_backup = &tb->tofino->egress(tb->wan_backup_port);
    tb->dtn2_feed = &tb->tofino->egress(dtn2_feed_port);

    net.compute_routes();
    // Pin the admitted path: data leaves the Tofino on the primary span
    // until the control plane says otherwise.
    tb->tofino->add_route(tb->rx_host->address(), tb->wan_primary_port);

    // --- in-network program ---
    // One mode stage per experiment. Each stage is programmed by its own
    // policy engine, so retire_epoch (which removes by epoch number
    // alone) can only ever touch that experiment's rules — five engines
    // minting epochs independently cannot collide.
    for (auto& stage : tb->mode_stages) {
        stage = std::make_shared<pnet::mode_transition_stage>();
        tb->tofino->add_stage(stage);
    }
    // Engine-compiled plans do not speak duplication, so a static,
    // epoch-agnostic rule marks every data packet after its engine stage
    // has sequenced it; the duplication stage then clones it (sequencing
    // intact) into the DTN2 tap.
    auto dup_mark = std::make_shared<pnet::mode_transition_stage>();
    {
        pnet::mode_rule mark;
        mark.match_any_experiment = true;
        mark.set_bits = wire::feature_bit(wire::feature::duplication);
        dup_mark->add_rule(mark);
    }
    tb->tofino->add_stage(dup_mark);
    tb->duplication = std::make_shared<pnet::duplication_stage>();
    for (const auto& p : profiles)
        tb->duplication->add_subscriber(p.experiment, tb->dtn2->address());
    tb->tofino->add_stage(tb->duplication);
    tb->tofino->add_stage(std::make_shared<pnet::age_update_stage>());

    // --- failure-aware capacity plan: five trunks + churn target ---
    auto& planner = tb->planner;
    planner.register_link("daq", data_rate::from_gbps(100));
    planner.register_link("wan-primary", cfg.wan_rate);
    planner.register_link("wan-backup", cfg.wan_rate);
    for (std::size_t i = 0; i < soak_experiments; ++i) {
        tb->trunks[i] =
            planner.admit({"daq", "wan-primary"}, cfg.trunk_rate).value_or(0);
        planner.register_backup_path(tb->trunks[i], {"daq", "wan-backup"});
    }
    planner.set_reroute_handler(
        [tbp = tb.get()](const control::admission&, bool rerouted) {
            // Data-plane reaction, once per rerouted trunk (idempotent):
            // traffic leaves on the backup span from this instant on.
            if (rerouted)
                tbp->tofino->add_route(tbp->rx_host->address(),
                                       tbp->wan_backup_port);
        });

    tb->health = std::make_unique<control::health_monitor>(eng, planner);
    tb->health->watch("wan-primary", *tb->wan_primary);

    // --- five closed-loop policy engines over one shared element ---
    for (std::size_t i = 0; i < soak_experiments; ++i) {
        control::resource_map rmap;
        rmap.add({control::resource_kind::retransmission_buffer,
                  tb->dtn1->address(), "dtn1-buffer", cfg.dtn1_capacity_bytes,
                  cfg.dtn1_retention, "facility"});
        rmap.add({control::resource_kind::programmable_switch,
                  tb->tofino->address(), "tofino", 0, sim_duration::zero(),
                  "facility"});

        control::policy_inputs pin;
        pin.experiment = profiles[i].experiment;
        pin.segments = {
            {control::path_segment::kind::daq, sim_duration{1000},
             data_rate::from_gbps(100), false, 0},
            {control::path_segment::kind::wan, cfg.wan_delay, cfg.wan_rate, true,
             tb->tofino->address()},
        };
        pin.recovery_buffer = tb->dtn1->address();

        control::policy_engine_config pe_cfg;
        pe_cfg.preset = cfg.policy;
        pe_cfg.inputs = pin;
        pe_cfg.poll_interval = cfg.poll_interval;
        pe_cfg.poll_until = cfg.end_at;
        pe_cfg.drain_window = cfg.drain_window;
        pe_cfg.loss_degrade_threshold = cfg.loss_degrade_threshold;
        pe_cfg.restore_after_clean_polls = cfg.restore_after_clean_polls;
        tb->engines[i] =
            std::make_unique<control::policy_engine>(eng, rmap, pe_cfg);
        tb->engines[i]->attach_element(*tb->tofino, tb->mode_stages[i]);
        // Watch both spans: the storm degrades the primary first and the
        // backup (by then the active path) later.
        tb->engines[i]->watch_loss(*tb->wan_primary);
        tb->engines[i]->watch_loss(*tb->wan_backup);
        tb->engines[i]->subscribe_health(*tb->health);
        tb->engines[i]->start(); // epoch 0: this experiment's baseline
    }

    // --- endpoints ---
    // DTN1: the shared on-path buffer/relay for all five experiments,
    // with storage-pressure watermarks gating planner admissions.
    tb->dtn1_stack = std::make_unique<core::stack>(*tb->dtn1, net.ids());
    core::buffer_service_config b1;
    b1.next_hop = tb->rx_host->address();
    b1.buffer.capacity_bytes = cfg.dtn1_capacity_bytes;
    b1.buffer.retention = cfg.dtn1_retention;
    b1.secondary_buffer = tb->dtn2->address();
    b1.occupancy_high_bytes = cfg.occupancy_high_bytes;
    b1.occupancy_low_bytes = cfg.occupancy_low_bytes;
    b1.timing.hold = cfg.pressure_hold;
    tb->dtn1_svc = std::make_unique<core::buffer_service>(*tb->dtn1_stack, b1);
    tb->dtn1_svc->attach_as_sink();
    tb->dtn1_svc->set_pressure_handler(
        [tbp = tb.get()](bool engaged, std::uint64_t) {
            // Storage pressure closes the shared DAQ link for *new*
            // admissions; existing flows keep their budgets. Deferred
            // churn requests drain (FIFO) when this reopens.
            tbp->planner.set_admissible("daq", !engaged);
        });

    // DTN2: duplication-fed tap with a durable store; killed and
    // revived mid-run by the storm.
    tb->dtn2_stack = std::make_unique<core::stack>(*tb->dtn2, net.ids());
    core::buffer_service_config b2;
    b2.tap_only = true;
    tb->dtn2_store = std::make_unique<dtn::durable_store>(cfg.persist_chunk_records);
    b2.persist = tb->dtn2_store.get();
    tb->dtn2_svc = std::make_unique<core::buffer_service>(*tb->dtn2_stack, b2);
    tb->dtn2_svc->attach_as_sink();

    // One receiver terminates all five experiments' slices. The NAK
    // retry base follows the compiled suggestion (identical for all
    // five engines: same path), floored at 4 ms so a retry can never
    // race its own in-flight retransmission into a duplicate.
    tb->rx_stack = std::make_unique<core::stack>(*tb->rx_host, net.ids());
    core::receiver_config r_cfg;
    r_cfg.timing.retry_base = sim_duration{std::max<std::int64_t>(
        tb->engines[0]->current().suggested_nak_retry.ns, 4000000)};
    r_cfg.timing.retry_cap = sim_duration{16000000};
    r_cfg.timing.max_attempts = cfg.max_nak_attempts;
    r_cfg.timing.failover_attempts = cfg.failover_attempts;
    tb->rx = std::make_unique<core::receiver>(*tb->rx_stack, r_cfg);
    tb->rx->set_on_datagram([tbp = tb.get()](const core::delivered_datagram& d) {
        tbp->delivered_by_experiment[wire::experiment_of(d.hdr.experiment)]++;
    });
    tb->rx_stack->set_advert_handler(
        [tbp = tb.get()](const wire::buffer_advert_body& a) {
            if (a.secondary_addr != 0) tbp->rx->set_fallback_buffer(a.secondary_addr);
            tbp->rx->note_buffer_available(a.buffer_addr);
        });

    // Sensors: one sender per experiment, origin mode stamped by that
    // experiment's engine (epoch 0 now; every install re-stamps it).
    for (std::size_t i = 0; i < soak_experiments; ++i) {
        tb->sensor_stacks[i] =
            std::make_unique<core::stack>(*tb->sensors[i], net.ids());
        core::sender_config s_cfg;
        s_cfg.origin_mode = tb->engines[i]->current().origin_mode;
        s_cfg.max_datagram_payload = cfg.message_bytes;
        tb->senders[i] = std::make_unique<core::sender>(
            *tb->sensor_stacks[i], tb->dtn1->address(), s_cfg);
        tb->engines[i]->set_origin_handler(
            [tbp = tb.get(), i](const control::compiled_policy&, wire::mode m) {
                tbp->senders[i]->set_origin_mode(m);
            });
    }

    // --- traffic: experiments × slices emission chains ---
    // The mask and per-experiment overrides shape the mix; everything
    // else (trunks, engines, mode stages) stays five-wide regardless.
    std::size_t stream_idx = 0;
    for (std::size_t i = 0; i < soak_experiments; ++i) {
        if ((cfg.experiment_mask >> i & 1u) == 0) continue;
        const std::uint64_t per = cfg.experiment_messages[i] != 0
            ? cfg.experiment_messages[i]
            : cfg.messages_per_stream;
        for (unsigned s = 0; s < cfg.slices_per_experiment; ++s) {
            const auto stream = wire::make_experiment_id(profiles[i].experiment, s);
            // Stagger stream starts by 250 ns so t=first_message is not
            // a 20-packet collision burst.
            const sim_time start{cfg.first_message.ns
                                 + static_cast<std::int64_t>(stream_idx) * 250};
            schedule_stream_emission(tb.get(), i, stream, start, 0, per);
            ++stream_idx;
        }
    }
    tb->messages_scheduled = cfg.expected_messages();

    eng.schedule_at(sim_time{10000}, [tbp = tb.get()] {
        tbp->dtn1_svc->advertise(tbp->rx_host->address());
    });

    // --- churn, pressure sweeps, stream retirement ---
    schedule_churn_tick(tb.get(), sim_time{1000000});
    schedule_pressure_poll(tb.get(), sim_time{cfg.pressure_poll.ns});
    schedule_prune(tb.get(), cfg.prune_from);

    // --- the storm ---
    tb->faults = std::make_unique<netsim::fault_scheduler>(eng);
    // W1: corruption burst on the primary span; every engine's loss
    // trigger fires on its next poll and degrades to buffered.
    tb->faults->corruption_burst(*tb->wan_primary, cfg.burst1_at,
                                 cfg.burst1_duration, cfg.burst1_ber);
    // DTN2 kill and revive: software dies with the hardware (crash()
    // wipes in-memory state, the durable store loses its unsealed tail),
    // and the revive reloads the archive and re-advertises.
    tb->faults->on_blackout(*tb->dtn2,
                            [tbp = tb.get()] { tbp->dtn2_svc->crash(); });
    tb->faults->on_restore(*tb->dtn2, [tbp = tb.get()] {
        tbp->dtn2_svc->revive(tbp->rx_host->address());
        for (const auto& p : daq::table1_profiles())
            tbp->duplication->add_subscriber(p.experiment, tbp->dtn2->address());
    });
    tb->faults->blackout_node(*tb->dtn2, cfg.dtn2_down_at);
    tb->faults->fail_link_at(*tb->dtn2_feed, cfg.dtn2_down_at);
    eng.schedule_at(cfg.dtn2_down_at, [tbp = tb.get()] {
        for (const auto& p : daq::table1_profiles())
            tbp->duplication->remove_subscriber(p.experiment, tbp->dtn2->address());
    });
    tb->faults->repair_link_at(*tb->dtn2_feed, cfg.dtn2_up_at);
    tb->faults->restore_node(*tb->dtn2, cfg.dtn2_up_at);
    // W2: the primary span fails hard. The health monitor drives the
    // planner: five trunks reroute onto wan-backup (the route flips via
    // the reroute handler), live churn flows without backups strand.
    tb->faults->fail_link_at(*tb->wan_primary, cfg.wan_down_at);
    tb->faults->repair_link_at(*tb->wan_primary, cfg.wan_up_at);
    // W3: corruption burst on the backup span — by now the active path.
    tb->faults->corruption_burst(*tb->wan_backup, cfg.burst2_at,
                                 cfg.burst2_duration, cfg.burst2_ber);

    // --- end-of-window flush + reroute recovery measurement ---
    eng.schedule_at(cfg.flush_at, [tbp = tb.get()] { tbp->dtn1_svc->flush(); });

    tb->recovery = std::make_unique<telemetry::recovery_tracker>(eng, cfg.probe_interval);
    tb->recovery->arm(
        cfg.wan_down_at,
        [tbp = tb.get()] {
            // Whole again after W2: every trunk moved to its backup and
            // no gap is outstanding.
            return tbp->planner.stats().flows_rerouted >= soak_experiments
                && tbp->rx->outstanding_gaps() == 0;
        },
        cfg.end_at);

    return tb;
}

namespace {
/// Summarizes an already-run testbed.
soak_result summarize(soak_testbed& tbr)
{
    auto* tb = &tbr;
    const auto& cfg = tb->cfg;
    soak_result r;
    r.rx = tb->rx->stats();
    r.dtn1 = tb->dtn1_svc->stats();
    r.dtn2 = tb->dtn2_svc->stats();
    r.wan_primary = tb->wan_primary->stats();
    r.wan_backup = tb->wan_backup->stats();
    r.planner = tb->planner.stats();
    r.health = tb->health->stats();
    r.faults = tb->faults->stats();

    r.messages_sent = tb->messages_scheduled;
    r.delivered = r.rx.datagrams;
    r.delivered_by_experiment = tb->delivered_by_experiment;
    r.all_delivered = r.delivered == r.messages_sent && r.rx.duplicates == 0
        && r.rx.given_up == 0 && tb->rx->outstanding_gaps() == 0;
    // Completeness is judged against the configured mix: every enabled
    // experiment delivered its full quota, every disabled one nothing.
    std::size_t enabled = 0;
    bool quotas_met = true;
    for (std::size_t i = 0; i < soak_experiments; ++i) {
        const auto num = daq::table1_profiles()[i].experiment;
        const auto it = r.delivered_by_experiment.find(num);
        const std::uint64_t got =
            it == r.delivered_by_experiment.end() ? 0 : it->second;
        if ((cfg.experiment_mask >> i & 1u) == 0) {
            quotas_met = quotas_met && got == 0;
            continue;
        }
        ++enabled;
        const std::uint64_t per = cfg.experiment_messages[i] != 0
            ? cfg.experiment_messages[i]
            : cfg.messages_per_stream;
        quotas_met = quotas_met
            && got == static_cast<std::uint64_t>(cfg.slices_per_experiment) * per;
    }
    r.all_experiments_complete =
        quotas_met && r.delivered_by_experiment.size() == enabled;

    for (const auto& pe : tb->engines) {
        const auto& s = pe->stats();
        r.reconfigs_committed += s.reconfigs_committed;
        r.loss_triggers += s.loss_triggers;
        r.health_triggers += s.health_triggers;
        r.restores += s.restores;
    }

    r.streams_seen = static_cast<std::uint64_t>(soak_experiments)
        * cfg.slices_per_experiment;
    r.streams_retired = r.rx.streams_retired;
    r.streams_live_at_end = tb->rx->stream_count();
    r.signals_pruned = r.dtn1.signals_pruned;
    r.churn_requests = tb->churn_requests;
    r.churn_released = tb->churn_released;
    r.rerouted_all_trunks = r.planner.flows_rerouted >= soak_experiments;
    r.recovered_after_reroute = tb->recovery->recovered();
    r.time_to_recover =
        tb->recovery->time_to_recover().value_or(sim_duration::zero());

    auto& t = r.report;
    t.set_columns({"metric", "value"});
    auto row = [&](const std::string& name, std::uint64_t v) {
        t.add_row({name, telemetry::fmt_count(v)});
    };
    row("messages_sent", r.messages_sent);
    row("delivered", r.delivered);
    row("all_delivered", r.all_delivered ? 1 : 0);
    row("all_experiments_complete", r.all_experiments_complete ? 1 : 0);
    for (std::size_t i = 0; i < soak_experiments; ++i) {
        const auto num = daq::table1_profiles()[i].experiment;
        auto it = r.delivered_by_experiment.find(num);
        row(std::string("delivered_") + slugs[i],
            it == r.delivered_by_experiment.end() ? 0 : it->second);
    }
    row("duplicates", r.rx.duplicates);
    row("recovered_datagrams", r.rx.recovered);
    row("naks_sent", r.rx.naks_sent);
    row("nak_retries", r.rx.nak_retries);
    row("given_up", r.rx.given_up);
    row("outstanding_gaps", tb->rx->outstanding_gaps());
    row("mode_shifts_seen", r.rx.mode_shifts_seen);
    row("streams_seen", r.streams_seen);
    row("streams_retired", r.streams_retired);
    row("streams_live_at_end", r.streams_live_at_end);
    row("wan_primary_corrupted", r.wan_primary.corrupted);
    row("wan_primary_dropped_down", r.wan_primary.dropped_down);
    row("wan_backup_corrupted", r.wan_backup.corrupted);
    row("wan_backup_tx_packets", r.wan_backup.tx_packets);
    row("dtn1_relayed", r.dtn1.relayed);
    row("dtn1_retransmitted", r.dtn1.retransmitted);
    row("dtn1_unavailable", r.dtn1.unavailable);
    row("pressure_engagements", r.dtn1.pressure_engagements);
    row("pressure_releases", r.dtn1.pressure_releases);
    row("pressure_signals", r.dtn1.pressure_signals);
    row("signals_pruned", r.signals_pruned);
    row("dtn2_stored", r.dtn2.relayed);
    row("dtn2_crashes", r.dtn2.crashes);
    row("dtn2_tail_lost", r.dtn2.tail_lost);
    row("dtn2_recovered_records", r.dtn2.recovered_records);
    row("dtn2_revivals", r.dtn2.revivals);
    row("churn_requests", r.churn_requests);
    row("churn_released", r.churn_released);
    row("flows_rerouted", r.planner.flows_rerouted);
    row("flows_stranded", r.planner.flows_stranded);
    row("admissions_deferred", r.planner.admissions_deferred);
    row("deferred_admitted", r.planner.deferred_admitted);
    row("reconfigs_committed", r.reconfigs_committed);
    row("loss_triggers", r.loss_triggers);
    row("health_triggers", r.health_triggers);
    row("restores", r.restores);
    for (std::size_t i = 0; i < soak_experiments; ++i)
        row(std::string("final_epoch_") + slugs[i], tb->engines[i]->epoch());
    row("element_mode_shifts", tb->tofino->state().counter("mode_shifts"));
    row("element_epochs_retired", tb->tofino->state().counter("epochs_retired"));
    row("link_downs_observed", r.health.downs_observed);
    row("fault_link_downs", r.faults.link_downs);
    row("fault_node_blackouts", r.faults.node_blackouts);
    row("fault_node_restores", r.faults.node_restores);
    row("rerouted_all_trunks", r.rerouted_all_trunks ? 1 : 0);
    row("recovered_after_reroute", r.recovered_after_reroute ? 1 : 0);
    row("time_to_recover_ns",
        static_cast<std::uint64_t>(r.recovered_after_reroute
                                       ? r.time_to_recover.ns
                                       : 0));

    telemetry::metrics_registry reg;
    register_metrics(reg, *tb);
    r.metrics_csv = reg.to_csv();
    return r;
}
} // namespace

// --- soak_driver -----------------------------------------------------------

std::string soak_driver::describe() const
{
    // Counts what the traffic loop schedules: only the experiments the
    // mask enables, each at its own message-count override if it has one.
    return "facility soak: " + std::to_string(std::popcount(cfg_.experiment_mask))
        + " experiments x " + std::to_string(cfg_.slices_per_experiment) + " slices x "
        + std::to_string(cfg_.messages_per_stream) + " messages ("
        + std::to_string(cfg_.expected_messages())
        + " total) under a fault-and-overload storm";
}

run_context soak_driver::build()
{
    tb_ = make_soak(cfg_);
    return run_context(tb_->net);
}

const soak_result& soak_driver::result()
{
    if (!result_) result_ = summarize(*tb_);
    return *result_;
}

telemetry::table soak_driver::report(telemetry::metrics_registry& reg)
{
    register_metrics(reg, *tb_);
    return result().report;
}

driver::acceptance soak_driver::accept()
{
    const auto& r = result();
    return stream_acceptance(r.messages_sent, r.delivered, *tb_->rx);
}

soak_result run_soak_drill(const soak_config& cfg)
{
    soak_driver d(cfg);
    d.run();
    return d.result();
}

} // namespace mmtp::scenario
