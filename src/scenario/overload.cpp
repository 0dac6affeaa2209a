#include "scenario/overload.hpp"

#include "daq/message.hpp"

namespace mmtp::scenario {

namespace {
/// The drill's one stream: the ICEBERG experiment, slice 0.
constexpr wire::experiment_id drill_stream =
    wire::make_experiment_id(wire::experiments::iceberg, 0);
} // namespace

std::unique_ptr<overload_testbed> make_overload(const overload_config& cfg)
{
    auto tb = std::make_unique<overload_testbed>();
    tb->cfg = cfg;
    tb->net = netsim::network(cfg.seed);
    auto& net = tb->net;
    auto& eng = net.sim();

    // --- topology ---
    tb->src = &net.add_host("src");
    tb->tofino =
        &net.emplace<pnet::programmable_switch>("tofino", pnet::tofino2_profile());
    tb->rx_host = &net.add_host("rx");
    tb->buf = &net.add_host("buf");
    tb->tofino->set_id_source(&net.ids());

    netsim::link_config clean;
    clean.rate = data_rate::from_gbps(100);
    clean.propagation = sim_duration{1000};
    clean.burst = cfg.link_burst;

    netsim::link_config wan;
    wan.rate = cfg.wan_rate;
    wan.propagation = cfg.wan_delay;
    wan.burst = cfg.link_burst;
    // The backpressure stage scales severity over [low watermark, this].
    wan.queue_capacity_bytes = cfg.band_bytes;

    const auto [src_uplink_port, _s] = net.connect(*tb->src, *tb->tofino, clean);
    // The WAN egress runs the MMTP-aware priority queue: deadline traffic
    // and control in band 0 (with deadline-aware shedding), bulk — which
    // includes buf's retransmissions — in band 1, never shed.
    auto pq = std::make_unique<netsim::priority_queue_disc>(
        pnet::timeliness_bands, cfg.band_bytes, pnet::timeliness_band_of,
        pnet::timeliness_slack_of);
    tb->wan_queue = pq.get();
    tb->wan_port = net.connect_simplex(*tb->tofino, *tb->rx_host, wan, std::move(pq));
    const unsigned nak_return_port =
        net.connect_simplex(*tb->rx_host, *tb->tofino, clean); // NAK return path
    const auto [buf_feed_port, buf_uplink_port] = net.connect(*tb->tofino, *tb->buf, clean);
    (void)_s;

    tb->wan = &tb->tofino->egress(tb->wan_port);

    // --- observability: flight recorder sites + metrics registry ---
    if (cfg.trace) {
        tb->tracer = std::make_unique<trace::flight_recorder>(cfg.trace_capacity);
        tb->tracer_install = std::make_unique<trace::scoped_recorder>(*tb->tracer);
        auto& tr = *tb->tracer;
        tb->src->egress(src_uplink_port).set_trace_site(tr.site("src-daq"));
        tb->wan->set_trace_site(tr.site("wan"));
        tb->rx_host->egress(nak_return_port).set_trace_site(tr.site("nak-return"));
        tb->tofino->egress(buf_feed_port).set_trace_site(tr.site("buf-feed"));
        tb->buf->egress(buf_uplink_port).set_trace_site(tr.site("buf-uplink"));
        tb->tofino->state().trace_site = tr.site("tofino");
        // The link only records tail drops itself; shed evictions get
        // their own drop record so a timeline shows *why* a sequence
        // needed recovery.
        tb->wan_queue->set_shed_observer(
            [&eng, site = tr.site("wan")](const netsim::packet& p, unsigned) {
                trace::emit(eng.now(), site, trace::hop::link_drop, p.id, p.wire_size(),
                            trace::reason::deadline_shed);
            });
    }

    net.compute_routes();

    // --- in-network program ---
    // The mode rule requires the backpressure bit, which only the
    // source's origin mode carries: buf's retransmissions keep their
    // plain (deadline-free) mode, ride band 1 and are never shed — a
    // recovered copy must not lose a second race it already lost.
    tb->mode_stage = std::make_shared<pnet::mode_transition_stage>();
    pnet::mode_rule rule;
    rule.match_any_experiment = true;
    rule.require_bits = wire::feature_bit(wire::feature::backpressure);
    rule.set_bits = wire::feature_bit(wire::feature::sequencing)
        | wire::feature_bit(wire::feature::retransmission)
        | wire::feature_bit(wire::feature::timeliness)
        | wire::feature_bit(wire::feature::duplication);
    rule.buffer_addr = tb->buf->address();
    rule.deadline_us = cfg.deadline_us;
    tb->mode_stage->add_rule(rule);

    auto duplication = std::make_shared<pnet::duplication_stage>();
    duplication->add_subscriber(wire::experiments::iceberg, tb->buf->address());

    pnet::backpressure_config bp;
    bp.low_watermark_bytes = cfg.bp_low_bytes;
    bp.high_watermark_bytes = cfg.bp_high_bytes;
    bp.min_interval = cfg.bp_min_interval;
    bp.level_bands = cfg.bp_level_bands;
    tb->bp_stage = std::make_shared<pnet::backpressure_stage>(*tb->tofino, bp);

    tb->tofino->add_stage(tb->mode_stage);
    tb->tofino->add_stage(std::make_shared<pnet::age_update_stage>());
    tb->tofino->add_stage(duplication);
    tb->tofino->add_stage(tb->bp_stage);

    // --- endpoints ---
    tb->src_stack = std::make_unique<core::stack>(*tb->src, net.ids());
    core::sender_config s_cfg;
    s_cfg.origin_mode.set(wire::feature::backpressure);
    s_cfg.max_datagram_payload = cfg.message_bytes;
    s_cfg.pace = cfg.pace;
    s_cfg.min_pace_fraction = cfg.min_pace_fraction;
    s_cfg.timing.hold = cfg.backpressure_hold;
    s_cfg.recovery_step_fraction = cfg.recovery_step_fraction;
    s_cfg.timing.recovery_interval = cfg.recovery_interval;
    tb->tx = std::make_unique<core::sender>(*tb->src_stack, tb->rx_host->address(), s_cfg);

    core::buffer_service_config b;
    b.tap_only = true;
    b.buffer.capacity_bytes = cfg.buffer_capacity_bytes;
    b.buffer.retention = cfg.buffer_retention;
    b.occupancy_high_bytes = cfg.occupancy_high_bytes;
    b.occupancy_low_bytes = cfg.occupancy_low_bytes;
    b.retransmit_pace = cfg.retransmit_pace;
    tb->buf_stack = std::make_unique<core::stack>(*tb->buf, net.ids());
    tb->buf_svc = std::make_unique<core::buffer_service>(*tb->buf_stack, b);
    tb->buf_svc->attach_as_sink();

    tb->rx_stack = std::make_unique<core::stack>(*tb->rx_host, net.ids());
    core::receiver_config r_cfg;
    r_cfg.timing.retry_base = cfg.nak_retry;
    r_cfg.timing.retry_cap = cfg.nak_retry_cap;
    r_cfg.timing.max_attempts = cfg.max_nak_attempts;
    tb->rx = std::make_unique<core::receiver>(*tb->rx_stack, r_cfg);

    if (tb->tracer) {
        tb->tx->set_trace_site(tb->tracer->site("src"));
        tb->rx->set_trace_site(tb->tracer->site("rx"));
        tb->buf_svc->set_trace_site(tb->tracer->site("buf"));
        tb->src_stack->set_trace_site(tb->tracer->site("src"));
        tb->rx_stack->set_trace_site(tb->tracer->site("rx"));
        tb->buf_stack->set_trace_site(tb->tracer->site("buf"));
    }

    // --- overload-aware control plane ---
    auto& planner = tb->planner;
    planner.register_link("daq", data_rate::from_gbps(100));
    planner.register_link("wan", cfg.wan_rate);
    planner.register_link("dtn-storage", data_rate::from_gbps(40));
    tb->flow = planner.admit({"daq", "wan", "dtn-storage"}, cfg.planned_rate).value_or(0);

    // Storage watermarks gate the planner: while buf's occupancy is
    // between the high and low marks no *new* flow may book the DTN.
    tb->buf_svc->set_pressure_handler(
        [tbp = tb.get()](bool engaged, std::uint64_t /*bytes_used*/) {
            tbp->planner.set_admissible("dtn-storage", !engaged);
        });

    // A second flow asks for storage mid-overload: deferred while the
    // gate is closed, admitted automatically when retention decay
    // releases the pressure.
    eng.schedule_at(cfg.second_flow_at, [tbp = tb.get(), &eng] {
        const auto id = tbp->planner.admit_or_defer(
            {"daq", "dtn-storage"}, tbp->cfg.second_flow_rate,
            [tbp, &eng](control::flow_id) { tbp->second_flow_admitted_at = eng.now(); });
        if (id) tbp->second_flow_admitted_at = eng.now();
    });

    // Retention decay only shows at the next store; poll so pressure can
    // release after the load stops (bounded by poll_until).
    tb->pressure_poll = [tbp = tb.get(), &eng] {
        tbp->buf_svc->poll_pressure();
        if (eng.now().ns >= tbp->cfg.poll_until.ns) return;
        eng.schedule_in(tbp->cfg.pressure_poll, [tbp] { tbp->pressure_poll(); });
    };
    eng.schedule_at(cfg.first_message, [tbp = tb.get()] { tbp->pressure_poll(); });

    // --- metrics registry: every layer reports into one place ---
    telemetry::register_engine_metrics(tb->metrics, eng);
    telemetry::register_link_metrics(tb->metrics, "wan", *tb->wan);
    telemetry::register_priority_queue_metrics(tb->metrics, "wan", *tb->wan_queue);
    telemetry::register_planner_metrics(tb->metrics, planner,
                                        {"daq", "wan", "dtn-storage"});
    telemetry::register_stack_metrics(tb->metrics, "src", *tb->src_stack);
    telemetry::register_stack_metrics(tb->metrics, "rx", *tb->rx_stack);
    telemetry::register_sender_metrics(tb->metrics, "src", *tb->tx);
    telemetry::register_receiver_metrics(tb->metrics, "rx", *tb->rx);
    telemetry::register_buffer_metrics(tb->metrics, "buf", *tb->buf_svc);

    // --- traffic and end-of-stream flush ---
    daq::steady_source source(drill_stream, cfg.message_bytes, cfg.message_interval,
                              cfg.first_message, cfg.messages);
    tb->messages_scheduled = tb->tx->drive(source);

    // The sender drains late (AIMD holds it below the offered rate), so
    // the flush marker waits for the drain instead of a fixed instant:
    // sequence numbers were assigned in-network, so the marker reads the
    // Tofino's own counter. Three copies cross the WAN like everything
    // else.
    tb->flush_watch = [tbp = tb.get(), &eng] {
        if (tbp->flush_sent) return;
        if (tbp->tx->stats().datagrams < tbp->messages_scheduled) {
            eng.schedule_in(tbp->cfg.flush_check, [tbp] { tbp->flush_watch(); });
            return;
        }
        tbp->flush_sent = true;
        auto& st = tbp->tofino->state();
        st.create_register("mode_seq", pnet::mode_transition_stage::seq_register_cells);
        const auto cell = st.reg(
            "mode_seq", pnet::mode_transition_stage::seq_cell_of(drill_stream));
        wire::stream_flush_body body;
        body.experiment = drill_stream;
        body.epoch = static_cast<std::uint16_t>(cell >> 48);
        body.next_sequence = cell & 0xffffffffffffull;
        byte_writer w;
        serialize(body, w);
        for (int i = 0; i < 3; ++i) {
            tbp->src_stack->send_control(tbp->rx_host->address(), drill_stream,
                                         wire::control_type::stream_flush,
                                         std::vector<std::uint8_t>(w.view().begin(),
                                                                   w.view().end()));
        }
    };
    const sim_time load_end{cfg.first_message.ns
                            + static_cast<std::int64_t>(cfg.messages)
                                * cfg.message_interval.ns};
    eng.schedule_at(load_end, [tbp = tb.get()] { tbp->flush_watch(); });

    // --- recovery measurement ---
    // Whole again: the sender drained and recovered its pace, the flush
    // went out, and every gap the receiver knows about has been filled.
    tb->recovery = std::make_unique<telemetry::recovery_tracker>(eng, cfg.probe_interval);
    tb->recovery->arm(
        load_end,
        [tbp = tb.get()] {
            return tbp->flush_sent
                && tbp->tx->stats().datagrams >= tbp->messages_scheduled
                && !tbp->tx->suppressed() && tbp->rx->outstanding_gaps() == 0;
        },
        load_end + cfg.probe_deadline);

    return tb;
}

overload_result summarize_overload(overload_testbed& tbr)
{
    auto* tb = &tbr;
    overload_result r;
    r.tx = tb->tx->stats();
    r.rx = tb->rx->stats();
    r.buf = tb->buf_svc->stats();
    r.wan = tb->wan->stats();
    r.wan_queue = tb->wan_queue->stats();
    r.planner = tb->planner.stats();
    r.messages_sent = tb->messages_scheduled;
    r.band0_dropped = tb->wan_queue->band_dropped(0);
    r.band0_shed = tb->wan_queue->band_shed(0);
    r.band1_dropped = tb->wan_queue->band_dropped(1);
    const auto& st = tb->tofino->state();
    r.bp_engagements = st.counter("backpressure_engagements");
    r.bp_escalations = st.counter("backpressure_escalations");
    r.bp_suppressed = st.counter("backpressure_suppressed");
    r.bp_signals = st.counter("backpressure_signals");
    // Every shed/dropped band-0 packet was a deadline original (control
    // is never shed and would be the only other band-0 occupant); its
    // recovered copy carries no deadline, so the sum never counts a
    // message twice.
    r.missed_deadline = r.rx.aged_on_arrival + r.band0_shed + r.band0_dropped;
    r.miss_ppm =
        r.messages_sent ? (r.missed_deadline * 1000000ull) / r.messages_sent : 0;
    r.final_pace_bps = tb->tx->effective_pace().bits_per_sec;
    r.pace_recovered = !tb->tx->suppressed();
    r.pressure_engagements = r.buf.pressure_engagements;
    r.pressure_releases = r.buf.pressure_releases;
    r.second_flow_deferred = r.planner.admissions_deferred > 0;
    r.second_flow_admitted = tb->second_flow_admitted_at.ns != 0;
    r.second_flow_admitted_at = tb->second_flow_admitted_at;
    r.recovered = tb->recovery->recovered();
    r.time_to_recover = tb->recovery->time_to_recover().value_or(sim_duration::zero());
    r.probes = tb->recovery->probes();

    auto& t = r.report;
    t.set_columns({"metric", "value"});
    auto row = [&](const char* name, std::uint64_t v) {
        t.add_row({name, telemetry::fmt_count(v)});
    };
    row("messages_sent", r.messages_sent);
    row("datagrams_delivered", r.rx.datagrams);
    row("duplicates", r.rx.duplicates);
    row("recovered_datagrams", r.rx.recovered);
    row("naks_sent", r.rx.naks_sent);
    row("nak_retries", r.rx.nak_retries);
    row("given_up", r.rx.given_up);
    row("aged_on_arrival", r.rx.aged_on_arrival);
    row("band0_shed", r.band0_shed);
    row("band0_dropped", r.band0_dropped);
    row("band1_dropped", r.band1_dropped);
    row("missed_deadline", r.missed_deadline);
    row("miss_ppm", r.miss_ppm);
    row("bp_engagements", r.bp_engagements);
    row("bp_escalations", r.bp_escalations);
    row("bp_signals", r.bp_signals);
    row("bp_suppressed", r.bp_suppressed);
    row("sender_signals_honored", r.tx.backpressure_signals);
    row("sender_bp_decreases", r.tx.bp_decreases);
    row("sender_bp_floor_hits", r.tx.bp_floor_hits);
    row("sender_recovery_steps", r.tx.bp_recovery_steps);
    row("sender_recoveries", r.tx.bp_recoveries);
    row("sender_suppressed_ns", r.tx.suppressed_ns);
    row("final_pace_bps", r.final_pace_bps);
    row("pace_recovered", r.pace_recovered ? 1 : 0);
    row("buf_stored", r.buf.relayed);
    row("buf_retransmitted", r.buf.retransmitted);
    row("buf_unavailable", r.buf.unavailable);
    row("buf_retransmit_dedup", r.buf.retransmit_dedup);
    row("buf_retransmit_queue_peak", r.buf.retransmit_queue_peak);
    row("pressure_engagements", r.pressure_engagements);
    row("pressure_releases", r.pressure_releases);
    row("pressure_signals", r.buf.pressure_signals);
    row("second_flow_deferred", r.second_flow_deferred ? 1 : 0);
    row("second_flow_admitted", r.second_flow_admitted ? 1 : 0);
    row("second_flow_admitted_at_ns",
        static_cast<std::uint64_t>(r.second_flow_admitted_at.ns));
    row("planner_admissions_denied_pressure", r.planner.admissions_denied_pressure);
    row("recovered", r.recovered ? 1 : 0);
    row("time_to_recover_ns",
        static_cast<std::uint64_t>(r.recovered ? r.time_to_recover.ns : 0));
    row("recovery_probes", r.probes);
    r.csv = t.csv();

    r.metrics_csv = tb->metrics.to_csv();

    // Tell the first shed packet's story: its eviction at the WAN egress,
    // the NAK, and the recovered copy arriving from buf.
    if (tb->tracer) {
        auto& tr = *tb->tracer;
        const auto wan_site = tr.site("wan");
        std::uint64_t shed_pid = 0;
        for (const auto& ev : tr.events()) {
            if (ev.kind == trace::hop::link_drop && ev.site == wan_site
                && ev.why == trace::reason::deadline_shed) {
                shed_pid = ev.packet_id;
                break;
            }
        }
        if (shed_pid != 0) {
            for (const auto& ev : tr.events()) {
                if (ev.kind == trace::hop::sw_seq_insert && ev.packet_id == shed_pid) {
                    r.traced_sequence = ev.arg;
                    break;
                }
            }
        }
        if (r.traced_sequence != std::uint64_t(-1))
            r.hop_timeline = tr.format_timeline(tr.message_timeline(r.traced_sequence));
    }
    return r;
}

overload_result run_overload_drill(const overload_config& cfg)
{
    auto tb = make_overload(cfg);
    tb->net.sim().run();
    return summarize_overload(*tb);
}

} // namespace mmtp::scenario
