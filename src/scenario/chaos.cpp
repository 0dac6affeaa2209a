#include "scenario/chaos.hpp"

#include "daq/message.hpp"

namespace mmtp::scenario {

namespace {
/// The drill's one stream: the ICEBERG experiment, slice 0.
constexpr wire::experiment_id drill_stream =
    wire::make_experiment_id(wire::experiments::iceberg, 0);

/// End-of-window flush: sequence numbers were assigned in-network, so
/// the marker reads the Tofino's own counter. Three copies: the marker
/// crosses the (post-fault) WAN like everything else.
void send_flush(chaos_testbed& tb)
{
    auto& st = tb.tofino->state();
    st.create_register("mode_seq", pnet::mode_transition_stage::seq_register_cells);
    const auto cell =
        st.reg("mode_seq", pnet::mode_transition_stage::seq_cell_of(drill_stream));
    wire::stream_flush_body body;
    body.experiment = drill_stream;
    body.epoch = static_cast<std::uint16_t>(cell >> 48);
    body.next_sequence = cell & 0xffffffffffffull;
    byte_writer w;
    serialize(body, w);
    for (int i = 0; i < 3; ++i) {
        tb.src_stack->send_control(
            tb.rx_host->address(), drill_stream, wire::control_type::stream_flush,
            std::vector<std::uint8_t>(w.view().begin(), w.view().end()));
    }
}
} // namespace

chaos_config kill_revive_config()
{
    chaos_config cfg;
    // Phase A is the classic drill (primary WAN + buf1 die at 2 ms,
    // receiver fails over to buf2). Phase B: buf2 dies, buf1 revives
    // from its archive, and a second wave rides a corruption burst that
    // only the revived buffer can repair.
    cfg.fault2_at = sim_time{25000000};      // 25 ms: blackout buf2
    cfg.revive_at = sim_time{30000000};      // 30 ms: buf1 reloads + re-adverts
    cfg.messages2 = 500;                     // 32..34 ms second wave
    cfg.second_wave_at = sim_time{32000000};
    cfg.burst_at = sim_time{32000000};       // 1 ms of backup-span corruption
    cfg.burst_duration = sim_duration{1000000};
    cfg.burst_ber = 2e-6;
    cfg.flush2_at = sim_time{36000000};
    // failover_attempts stays at the classic 2: phase A must fail over
    // to buf2 (~17 ms) well before buf2 itself dies at 25 ms. A
    // corrupted second-wave retransmission cannot re-fail the stream
    // over to the dead buf2, because the 5 ms NAK retry base puts every
    // second attempt past the 1 ms burst.
    return cfg;
}

std::unique_ptr<chaos_testbed> make_chaos(const chaos_config& cfg)
{
    auto tb = std::make_unique<chaos_testbed>();
    tb->cfg = cfg;
    tb->net = netsim::network(cfg.seed);
    auto& net = tb->net;
    auto& eng = net.sim();

    // --- topology ---
    tb->src = &net.add_host("src");
    tb->tofino =
        &net.emplace<pnet::programmable_switch>("tofino", pnet::tofino2_profile());
    tb->rx_host = &net.add_host("rx");
    tb->buf1 = &net.add_host("buf1");
    tb->buf2 = &net.add_host("buf2");
    tb->tofino->set_id_source(&net.ids());

    netsim::link_config clean;
    clean.rate = data_rate::from_gbps(100);
    clean.propagation = sim_duration{1000};
    clean.burst = cfg.link_burst;

    netsim::link_config wan;
    wan.rate = cfg.wan_rate;
    wan.propagation = cfg.wan_delay;
    wan.queue_capacity_bytes = cfg.wan_queue_bytes;
    wan.burst = cfg.link_burst;

    const auto [src_uplink_port, _s] = net.connect(*tb->src, *tb->tofino, clean);
    tb->wan_primary_port = net.connect_simplex(*tb->tofino, *tb->rx_host, wan);
    tb->wan_backup_port = net.connect_simplex(*tb->tofino, *tb->rx_host, wan);
    const unsigned nak_return_port =
        net.connect_simplex(*tb->rx_host, *tb->tofino, clean); // NAK return path
    const auto [buf1_feed_port, _a] = net.connect(*tb->tofino, *tb->buf1, clean);
    const auto [buf2_feed_port, buf2_uplink_port] = net.connect(*tb->tofino, *tb->buf2, clean);
    (void)_s;
    (void)_a;

    tb->wan_primary = &tb->tofino->egress(tb->wan_primary_port);
    tb->wan_backup = &tb->tofino->egress(tb->wan_backup_port);
    tb->buf1_feed = &tb->tofino->egress(buf1_feed_port);
    tb->buf2_feed = &tb->tofino->egress(buf2_feed_port);

    // --- observability: flight recorder sites + metrics registry ---
    if (cfg.trace) {
        tb->tracer = std::make_unique<trace::flight_recorder>(cfg.trace_capacity);
        tb->tracer_install = std::make_unique<trace::scoped_recorder>(*tb->tracer);
        auto& tr = *tb->tracer;
        tb->src->egress(src_uplink_port).set_trace_site(tr.site("src-daq"));
        tb->wan_primary->set_trace_site(tr.site("wan-primary"));
        tb->wan_backup->set_trace_site(tr.site("wan-backup"));
        tb->rx_host->egress(nak_return_port).set_trace_site(tr.site("nak-return"));
        tb->buf1_feed->set_trace_site(tr.site("buf1-feed"));
        tb->tofino->egress(buf2_feed_port).set_trace_site(tr.site("buf2-feed"));
        tb->buf2->egress(buf2_uplink_port).set_trace_site(tr.site("buf2-uplink"));
        tb->tofino->state().trace_site = tr.site("tofino");
    }

    net.compute_routes();
    // Pin the admitted path: data leaves the Tofino on the primary span
    // until the control plane says otherwise.
    tb->tofino->add_route(tb->rx_host->address(), tb->wan_primary_port);

    // --- in-network program ---
    tb->mode_stage = std::make_shared<pnet::mode_transition_stage>();
    pnet::mode_rule rule;
    rule.match_any_experiment = true;
    rule.set_bits = wire::feature_bit(wire::feature::sequencing)
        | wire::feature_bit(wire::feature::retransmission)
        | wire::feature_bit(wire::feature::duplication);
    rule.buffer_addr = tb->buf1->address();
    tb->mode_stage->add_rule(rule);

    tb->duplication = std::make_shared<pnet::duplication_stage>();
    tb->duplication->add_subscriber(wire::experiments::iceberg, tb->buf1->address());
    tb->duplication->add_subscriber(wire::experiments::iceberg, tb->buf2->address());

    tb->tofino->add_stage(tb->mode_stage);
    tb->tofino->add_stage(tb->duplication);

    // --- endpoints ---
    tb->src_stack = std::make_unique<core::stack>(*tb->src, net.ids());
    core::sender_config s_cfg;
    s_cfg.max_datagram_payload = cfg.message_bytes;
    tb->tx = std::make_unique<core::sender>(*tb->src_stack, tb->rx_host->address(), s_cfg);

    core::buffer_service_config b1;
    b1.tap_only = true;
    b1.secondary_buffer = tb->buf2->address();
    // buf1 writes through to its modeled disk by default; with the
    // kill-and-revive phase disabled the archive is simply never reread
    // (and persist = false skips the store entirely). A revive always
    // forces the store — there is nothing to reload without one.
    if (cfg.persist || cfg.revive_at.ns > 0) {
        daq::archive_limits persist_limits;
        persist_limits.chunk_records = cfg.persist_chunk_records;
        tb->buf1_store = std::make_unique<dtn::durable_store>(persist_limits);
        b1.persist = tb->buf1_store.get();
    }
    tb->buf1_stack = std::make_unique<core::stack>(*tb->buf1, net.ids());
    tb->buf1_svc = std::make_unique<core::buffer_service>(*tb->buf1_stack, b1);
    tb->buf1_svc->attach_as_sink();

    core::buffer_service_config b2;
    b2.tap_only = true;
    tb->buf2_stack = std::make_unique<core::stack>(*tb->buf2, net.ids());
    tb->buf2_svc = std::make_unique<core::buffer_service>(*tb->buf2_stack, b2);
    tb->buf2_svc->attach_as_sink();

    tb->rx_stack = std::make_unique<core::stack>(*tb->rx_host, net.ids());
    core::receiver_config r_cfg;
    r_cfg.timing.retry_base = cfg.nak_retry;
    r_cfg.timing.retry_cap = cfg.nak_retry_cap;
    r_cfg.timing.max_attempts = cfg.max_nak_attempts;
    r_cfg.timing.failover_attempts = cfg.failover_attempts;
    tb->rx = std::make_unique<core::receiver>(*tb->rx_stack, r_cfg);
    // The fallback buffer is *learned*, not configured: buf1's advert
    // names buf2 as the secondary holding the same streams.
    tb->rx_stack->set_advert_handler([tbp = tb.get()](const wire::buffer_advert_body& a) {
        if (a.secondary_addr != 0) tbp->rx->set_fallback_buffer(a.secondary_addr);
        // A (re-)advertisement also announces the buffer is alive:
        // streams that failed over away from it fail back.
        tbp->rx->note_buffer_available(a.buffer_addr);
    });

    if (tb->tracer) {
        tb->tx->set_trace_site(tb->tracer->site("src"));
        tb->rx->set_trace_site(tb->tracer->site("rx"));
        tb->buf1_svc->set_trace_site(tb->tracer->site("buf1"));
        tb->buf2_svc->set_trace_site(tb->tracer->site("buf2"));
    }

    // --- failure-aware control plane ---
    auto& planner = tb->planner;
    planner.register_link("daq", data_rate::from_gbps(100));
    planner.register_link("wan-primary", cfg.wan_rate);
    planner.register_link("wan-backup", cfg.wan_rate);
    tb->flow = planner.admit({"daq", "wan-primary"}, cfg.planned_rate).value_or(0);
    planner.register_backup_path(tb->flow, {"daq", "wan-backup"});
    planner.set_reroute_handler(
        [tbp = tb.get()](const control::admission& flow, bool rerouted) {
            (void)flow;
            // Data-plane reaction: the re-admitted flow's traffic leaves
            // the Tofino on the backup span from this instant on.
            if (rerouted)
                tbp->tofino->add_route(tbp->rx_host->address(), tbp->wan_backup_port);
        });

    tb->health = std::make_unique<control::health_monitor>(eng, planner);
    tb->health->watch("wan-primary", *tb->wan_primary);
    tb->health->watch("buf1-feed", *tb->buf1_feed);
    tb->health->add_listener(
        [tbp = tb.get()](const control::link_id& id, bool up, sim_time) {
            // The buffer feed going dark means clones toward buf1 are
            // wasted egress capacity: prune the subscription.
            if (id == "buf1-feed" && !up)
                tbp->duplication->remove_subscriber(wire::experiments::iceberg,
                                                    tbp->buf1->address());
        });

    // --- metrics registry: every layer reports into one place ---
    telemetry::register_engine_metrics(tb->metrics, eng);
    telemetry::register_link_metrics(tb->metrics, "wan-primary", *tb->wan_primary);
    telemetry::register_link_metrics(tb->metrics, "wan-backup", *tb->wan_backup);
    telemetry::register_link_metrics(tb->metrics, "buf1-feed", *tb->buf1_feed);
    telemetry::register_planner_metrics(tb->metrics, planner,
                                        {"daq", "wan-primary", "wan-backup"});
    telemetry::register_health_metrics(tb->metrics, *tb->health);
    telemetry::register_stack_metrics(tb->metrics, "rx", *tb->rx_stack);
    telemetry::register_sender_metrics(tb->metrics, "src", *tb->tx);
    telemetry::register_receiver_metrics(tb->metrics, "rx", *tb->rx);
    telemetry::register_buffer_metrics(tb->metrics, "buf1", *tb->buf1_svc);
    telemetry::register_buffer_metrics(tb->metrics, "buf2", *tb->buf2_svc);

    // --- traffic, advert, flush ---
    daq::steady_source source(drill_stream, cfg.message_bytes, cfg.message_interval,
                              cfg.first_message, cfg.messages);
    tb->messages_scheduled = tb->tx->drive(source);
    if (cfg.messages2 > 0 && cfg.second_wave_at.ns > 0) {
        daq::steady_source wave2(drill_stream, cfg.message_bytes, cfg.message_interval,
                                 cfg.second_wave_at, cfg.messages2);
        tb->messages_scheduled += tb->tx->drive(wave2);
    }

    eng.schedule_at(sim_time{10000},
                    [tbp = tb.get()] { tbp->buf1_svc->advertise(tbp->rx_host->address()); });

    eng.schedule_at(cfg.flush_at, [tbp = tb.get()] { send_flush(*tbp); });
    if (cfg.flush2_at.ns > 0)
        eng.schedule_at(cfg.flush2_at, [tbp = tb.get()] { send_flush(*tbp); });

    // --- the fault script ---
    // Snapshot first (same instant, scheduled earlier => runs earlier):
    // datagrams delivered from here on were delivered despite the fault.
    eng.schedule_at(cfg.fault_at, [tbp = tb.get()] {
        tbp->datagrams_at_fault = tbp->rx->stats().datagrams;
    });
    tb->faults = std::make_unique<netsim::fault_scheduler>(eng);
    tb->faults->fail_link_at(*tb->wan_primary, cfg.fault_at);
    tb->faults->blackout_node(*tb->buf1, cfg.fault_at);
    // The feed span dies a beat later: until then clones and the first
    // NAK still reach the dead node and are dropped at its ingress.
    tb->faults->fail_link_at(*tb->buf1_feed, cfg.fault_at + cfg.feed_cut_after);

    // --- the kill-and-revive phase (ISSUE 7) ---
    if (cfg.revive_at.ns > 0) {
        // Software dies with the hardware: the blackout becomes a
        // genuine kill (in-memory buffer, counters and repair queue are
        // gone; the durable store drops its unsealed tail), the restore
        // a genuine revive (archive reload + re-advertisement).
        tb->faults->on_blackout(*tb->buf1,
                                [tbp = tb.get()] { tbp->buf1_svc->crash(); });
        tb->faults->on_restore(*tb->buf1, [tbp = tb.get()] {
            tbp->buf1_svc->revive(tbp->rx_host->address());
            // Rejoin the duplication group pruned at the feed cut, so
            // second-wave clones flow into the revived tap.
            tbp->duplication->add_subscriber(wire::experiments::iceberg,
                                             tbp->buf1->address());
        });

        if (cfg.fault2_at.ns > 0) {
            // The secondary dies too: from here on, only the revived
            // primary can answer NAKs.
            tb->faults->blackout_node(*tb->buf2, cfg.fault2_at);
            tb->faults->fail_link_at(*tb->buf2_feed, cfg.fault2_at);
            eng.schedule_at(cfg.fault2_at, [tbp = tb.get()] {
                tbp->duplication->remove_subscriber(wire::experiments::iceberg,
                                                    tbp->buf2->address());
            });
        }

        tb->faults->repair_link_at(*tb->buf1_feed, cfg.revive_at);
        tb->faults->restore_node(*tb->buf1, cfg.revive_at);

        if (cfg.burst_ber > 0 && cfg.burst_duration.ns > 0)
            tb->faults->corruption_burst(*tb->wan_backup, cfg.burst_at,
                                         cfg.burst_duration, cfg.burst_ber);
    }

    // --- recovery measurement ---
    tb->recovery = std::make_unique<telemetry::recovery_tracker>(eng, cfg.probe_interval);
    tb->recovery->arm(
        cfg.fault_at,
        [tbp = tb.get()] {
            // Whole again: the stream failed over to the surviving
            // buffer and every known gap has been filled.
            return tbp->rx->stats().buffer_failovers >= 1
                && tbp->rx->outstanding_gaps() == 0;
        },
        cfg.fault_at + cfg.probe_deadline);

    if (cfg.revive_at.ns > 0 && cfg.fault2_at.ns > 0) {
        tb->recovery2 =
            std::make_unique<telemetry::recovery_tracker>(eng, cfg.probe_interval);
        const std::uint64_t total = cfg.messages + cfg.messages2;
        tb->recovery2->arm(
            cfg.fault2_at,
            [tbp = tb.get(), total] {
                // Whole again, the hard way: the stream failed *back* to
                // the revived primary, both waves arrived in full, and
                // no gap is outstanding.
                return tbp->rx->stats().buffer_failbacks >= 1
                    && tbp->rx->stats().datagrams >= total
                    && tbp->rx->outstanding_gaps() == 0;
            },
            cfg.fault2_at + cfg.probe_deadline);
    }

    return tb;
}

chaos_result summarize_chaos(chaos_testbed& tbr)
{
    auto* tb = &tbr;
    const auto& cfg = tb->cfg;
    chaos_result r;
    r.rx = tb->rx->stats();
    r.buf1 = tb->buf1_svc->stats();
    r.buf2 = tb->buf2_svc->stats();
    r.wan_primary = tb->wan_primary->stats();
    r.wan_backup = tb->wan_backup->stats();
    r.planner = tb->planner.stats();
    r.health = tb->health->stats();
    r.faults = tb->faults->stats();
    r.messages_sent = tb->messages_scheduled;
    r.datagrams_at_fault = tb->datagrams_at_fault;
    r.delivered_despite_failure = r.rx.datagrams - tb->datagrams_at_fault;
    r.stranded_in_primary_queue = tb->wan_primary->queue_depth_packets();
    r.buf1_blackout_dropped = tb->buf1->blackout_dropped();
    r.recovered = tb->recovery->recovered();
    r.time_to_recover = tb->recovery->time_to_recover().value_or(sim_duration::zero());
    r.probes = tb->recovery->probes();
    if (tb->recovery2) {
        r.recovered2 = tb->recovery2->recovered();
        r.time_to_recover2 =
            tb->recovery2->time_to_recover().value_or(sim_duration::zero());
        r.probes2 = tb->recovery2->probes();
    }

    auto& t = r.report;
    t.set_columns({"metric", "value"});
    auto row = [&](const char* name, std::uint64_t v) {
        t.add_row({name, telemetry::fmt_count(v)});
    };
    row("messages_sent", r.messages_sent);
    row("datagrams_delivered", r.rx.datagrams);
    row("datagrams_at_fault", r.datagrams_at_fault);
    row("delivered_despite_failure", r.delivered_despite_failure);
    row("duplicates", r.rx.duplicates);
    row("recovered_datagrams", r.rx.recovered);
    row("naks_sent", r.rx.naks_sent);
    row("nak_retries", r.rx.nak_retries);
    row("buffer_failovers", r.rx.buffer_failovers);
    row("given_up", r.rx.given_up);
    row("stranded_in_primary_queue", r.stranded_in_primary_queue);
    row("wan_primary_dropped_down", r.wan_primary.dropped_down);
    row("wan_backup_tx_packets", r.wan_backup.tx_packets);
    row("buf1_stored", r.buf1.relayed);
    row("buf2_stored", r.buf2.relayed);
    row("buf2_retransmitted", r.buf2.retransmitted);
    row("buf1_blackout_dropped", r.buf1_blackout_dropped);
    row("flows_rerouted", r.planner.flows_rerouted);
    row("flows_stranded", r.planner.flows_stranded);
    row("link_downs_observed", r.health.downs_observed);
    row("fault_link_downs", r.faults.link_downs);
    row("fault_node_blackouts", r.faults.node_blackouts);
    row("recovered", r.recovered ? 1 : 0);
    row("time_to_recover_ns",
        static_cast<std::uint64_t>(r.recovered ? r.time_to_recover.ns : 0));
    row("recovery_probes", r.probes);
    // Persistence / kill-and-revive phase (all zero in the classic drill
    // except buf1_persisted, which write-through always accumulates).
    row("buf1_persisted", r.buf1.persisted);
    row("buf1_persist_rejected", r.buf1.persist_rejected);
    row("buf1_crashes", r.buf1.crashes);
    row("buf1_tail_lost", r.buf1.tail_lost);
    row("buf1_recovered_records", r.buf1.recovered_records);
    row("buf1_revivals", r.buf1.revivals);
    row("buf1_retransmitted", r.buf1.retransmitted);
    row("buffer_failbacks", r.rx.buffer_failbacks);
    row("fault_node_restores", r.faults.node_restores);
    row("recovered2", r.recovered2 ? 1 : 0);
    row("time_to_recover2_ns",
        static_cast<std::uint64_t>(r.recovered2 ? r.time_to_recover2.ns : 0));
    row("recovery2_probes", r.probes2);
    r.csv = t.csv();

    r.metrics_csv = tb->metrics.to_csv();

    // Pick the first sequence the fallback buffer re-sent and render its
    // whole journey — the drill's proof that recovery crossed the backup
    // plane ("this message traversed the backup span after the fault").
    if (tb->tracer) {
        auto& tr = *tb->tracer;
        const auto buf2_site = tr.site("buf2");
        for (const auto& ev : tr.events()) {
            if (ev.kind == trace::hop::mmtp_retransmit && ev.site == buf2_site) {
                r.traced_sequence = ev.arg;
                break;
            }
        }
        if (r.traced_sequence != std::uint64_t(-1)) {
            r.hop_timeline = tr.format_timeline(tr.message_timeline(r.traced_sequence));
            r.traversed_backup =
                tr.traversed(r.traced_sequence, tr.site("wan-backup"), cfg.fault_at.ns);
        }
    }

    // Capture the finished run into an archive blob for replay. Strictly
    // post-run: the engine is idle, so recording cannot perturb the
    // simulation it records.
    if (cfg.record) {
        telemetry::run_recorder rec("chaos", cfg.seed);
        if (tb->tracer) rec.capture_trace(*tb->tracer);
        rec.capture_metrics(tb->metrics);
        rec.capture_report(r.csv);
        r.recording = rec.finalize();
    }
    return r;
}

chaos_result run_chaos_drill(const chaos_config& cfg)
{
    auto tb = make_chaos(cfg);
    tb->net.sim().run();
    return summarize_chaos(*tb);
}

} // namespace mmtp::scenario
