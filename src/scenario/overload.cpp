#include "scenario/overload.hpp"

#include "daq/message.hpp"

namespace mmtp::scenario {

namespace {
/// The drill's one stream: the ICEBERG experiment, slice 0.
constexpr wire::experiment_id drill_stream =
    wire::make_experiment_id(wire::experiments::iceberg, 0);

// The drill's fixed operating point; overload_config holds what programs
// vary.
/// WAN span: the bottleneck the drill overloads.
constexpr data_rate wan_rate = data_rate::from_gbps(10);
constexpr sim_duration wan_delay{1000000}; // 1 ms one way
/// Per-band byte capacity of the WAN's priority egress queue (also the
/// capacity the backpressure stage scales severity against).
constexpr std::uint64_t band_bytes = 2ull * 1024 * 1024;
/// Fixed-size messages offered at ~2× the WAN rate.
constexpr std::uint32_t message_bytes = 8192;
constexpr sim_duration message_interval{3300}; // ~19.9 Gbps offered
constexpr sim_time first_message{100000};      // 100 us
/// Timeliness budget stamped by the Tofino's mode rule.
constexpr std::uint32_t deadline_us = 5000;
/// The sender's AIMD schedule around overload_pace.
constexpr double min_pace_fraction = 0.25;
constexpr sim_duration backpressure_hold{2000000}; // 2 ms
constexpr double recovery_step_fraction = 0.2;
constexpr sim_duration recovery_interval{500000}; // 500 us
/// buf's storage and its occupancy watermarks (clones of every original
/// land here; retention decay eventually releases pressure). Retention
/// must outlive the whole recovery tail (gaps behind the load window
/// retry on the NAK schedule below), and it also sets when occupancy
/// decays below the low watermark.
constexpr std::uint64_t buffer_capacity_bytes = 64ull * 1024 * 1024;
constexpr sim_duration buffer_retention{80000000}; // 80 ms
constexpr std::uint64_t occupancy_high_bytes = 8ull * 1024 * 1024;
constexpr std::uint64_t occupancy_low_bytes = 4ull * 1024 * 1024;
/// Repair traffic is paced below the WAN rate so recovery cannot
/// re-overload the segment it is repairing.
constexpr data_rate retransmit_pace = data_rate::from_gbps(8);
/// Cadence of buf's retention sweep / watermark re-check, and when to
/// stop polling (bounds the run).
constexpr sim_duration pressure_poll_interval{1000000}; // 1 ms
constexpr sim_time poll_until{150000000};               // 150 ms
/// The second flow's rate (it asks at overload_second_flow_at).
constexpr data_rate second_flow_rate = data_rate::from_gbps(1);
/// Receiver recovery. Retransmissions ride the WAN's bulk band *behind*
/// the deadline traffic, so a gap is often unfillable until the load
/// window drains — the retry base must be generous or every retry just
/// duplicates a retransmission already parked in band 1. The retry cap
/// is timing_profile's 40 ms.
constexpr sim_duration nak_retry{20000000}; // 20 ms
constexpr std::uint32_t max_nak_attempts = 8;
/// End-of-stream detection: once the sender has drained, a flush marker
/// (re-checked at this cadence) reveals any tail loss.
constexpr sim_duration flush_check{1000000}; // 1 ms
/// Recovery probing cadence (the horizon is overload_probe_deadline).
constexpr sim_duration probe_interval{500000}; // 500 us
/// Rate the primary flow is admitted at.
constexpr data_rate planned_rate = data_rate::from_gbps(8);
/// Flight-recorder ring capacity in records.
constexpr std::size_t trace_capacity = 1u << 18;

/// The drill's one metrics list: every layer reports into one place.
void register_metrics(telemetry::metrics_registry& reg, overload_testbed& tb)
{
    telemetry::register_engine_metrics(reg, tb.net.sim());
    telemetry::register_link_metrics(reg, "wan", *tb.wan);
    telemetry::register_priority_queue_metrics(reg, "wan", *tb.wan_queue);
    telemetry::register_planner_metrics(reg, tb.planner, {"daq", "wan", "dtn-storage"});
    telemetry::register_element_metrics(reg, "tofino", *tb.tofino);
    telemetry::register_stack_metrics(reg, "src", *tb.src_stack);
    telemetry::register_stack_metrics(reg, "rx", *tb.rx_stack);
    telemetry::register_sender_metrics(reg, "src", *tb.tx);
    telemetry::register_receiver_metrics(reg, "rx", *tb.rx);
    telemetry::register_buffer_metrics(reg, "buf", *tb.buf_svc);
}
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

    netsim::link_config wan;
    wan.rate = wan_rate;
    wan.propagation = wan_delay;
    // The backpressure stage scales severity over [low watermark, this].
    wan.queue_capacity_bytes = band_bytes;

    const auto [src_uplink_port, _s] = net.connect(*tb->src, *tb->tofino, clean);
    // The WAN egress runs the MMTP-aware priority queue: deadline traffic
    // and control in band 0 (with deadline-aware shedding), bulk — which
    // includes buf's retransmissions — in band 1, never shed.
    auto pq = std::make_unique<netsim::priority_queue_disc>(
        pnet::timeliness_bands, band_bytes, pnet::timeliness_band_of,
        pnet::timeliness_slack_of);
    tb->wan_queue = pq.get();
    tb->wan_port = net.connect_simplex(*tb->tofino, *tb->rx_host, wan, std::move(pq));
    const unsigned nak_return_port =
        net.connect_simplex(*tb->rx_host, *tb->tofino, clean); // NAK return path
    const auto [buf_feed_port, buf_uplink_port] = net.connect(*tb->tofino, *tb->buf, clean);
    (void)_s;

    tb->wan = &tb->tofino->egress(tb->wan_port);

    // --- observability: flight recorder sites ---
    if (cfg.trace) {
        tb->tracer = std::make_unique<trace::flight_recorder>(trace_capacity);
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
    rule.deadline_us = deadline_us;
    tb->mode_stage->add_rule(rule);

    auto duplication = std::make_shared<pnet::duplication_stage>();
    duplication->add_subscriber(wire::experiments::iceberg, tb->buf->address());

    // backpressure_config's defaults: engage at 1 MiB, release below
    // 512 KiB, at most one signal per source per 100 us, 8 level bands.
    tb->bp_stage = std::make_shared<pnet::backpressure_stage>(*tb->tofino);

    tb->tofino->add_stage(tb->mode_stage);
    tb->tofino->add_stage(std::make_shared<pnet::age_update_stage>());
    tb->tofino->add_stage(duplication);
    tb->tofino->add_stage(tb->bp_stage);

    // --- endpoints ---
    tb->src_stack = std::make_unique<core::stack>(*tb->src, net.ids());
    core::sender_config s_cfg;
    s_cfg.origin_mode.set(wire::feature::backpressure);
    s_cfg.max_datagram_payload = message_bytes;
    s_cfg.pace = overload_pace;
    s_cfg.min_pace_fraction = min_pace_fraction;
    s_cfg.timing.hold = backpressure_hold;
    s_cfg.recovery_step_fraction = recovery_step_fraction;
    s_cfg.timing.recovery_interval = recovery_interval;
    tb->tx = std::make_unique<core::sender>(*tb->src_stack, tb->rx_host->address(), s_cfg);

    core::buffer_service_config b;
    b.tap_only = true;
    b.buffer.capacity_bytes = buffer_capacity_bytes;
    b.buffer.retention = buffer_retention;
    b.occupancy_high_bytes = occupancy_high_bytes;
    b.occupancy_low_bytes = occupancy_low_bytes;
    b.retransmit_pace = retransmit_pace;
    tb->buf_stack = std::make_unique<core::stack>(*tb->buf, net.ids());
    tb->buf_svc = std::make_unique<core::buffer_service>(*tb->buf_stack, b);
    tb->buf_svc->attach_as_sink();

    tb->rx_stack = std::make_unique<core::stack>(*tb->rx_host, net.ids());
    core::receiver_config r_cfg;
    r_cfg.timing.retry_base = nak_retry;
    r_cfg.timing.max_attempts = max_nak_attempts;
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
    planner.register_link("wan", wan_rate);
    planner.register_link("dtn-storage", data_rate::from_gbps(40));
    tb->flow = planner.admit({"daq", "wan", "dtn-storage"}, planned_rate).value_or(0);

    // Storage watermarks gate the planner: while buf's occupancy is
    // between the high and low marks no *new* flow may book the DTN.
    tb->buf_svc->set_pressure_handler(
        [tbp = tb.get()](bool engaged, std::uint64_t /*bytes_used*/) {
            tbp->planner.set_admissible("dtn-storage", !engaged);
        });

    // A second flow asks for storage mid-overload: deferred while the
    // gate is closed, admitted automatically when retention decay
    // releases the pressure.
    eng.schedule_at(overload_second_flow_at, [tbp = tb.get(), &eng] {
        const auto id = tbp->planner.admit_or_defer(
            {"daq", "dtn-storage"}, second_flow_rate,
            [tbp, &eng](control::flow_id) { tbp->second_flow_admitted_at = eng.now(); });
        if (id) tbp->second_flow_admitted_at = eng.now();
    });

    // Retention decay only shows at the next store; poll so pressure can
    // release after the load stops (bounded by poll_until).
    tb->pressure_poll = [tbp = tb.get(), &eng] {
        tbp->buf_svc->poll_pressure();
        if (eng.now().ns >= poll_until.ns) return;
        eng.schedule_in(pressure_poll_interval, [tbp] { tbp->pressure_poll(); });
    };
    eng.schedule_at(first_message, [tbp = tb.get()] { tbp->pressure_poll(); });

    // --- traffic and end-of-stream flush ---
    daq::steady_source source(drill_stream, message_bytes, message_interval,
                              first_message, cfg.messages);
    tb->messages_scheduled = tb->tx->drive(source);

    // The sender drains late (AIMD holds it below the offered rate), so
    // the flush marker waits for the drain instead of a fixed instant:
    // sequence numbers were assigned in-network, so the marker reads the
    // Tofino's own counter. Three copies cross the WAN like everything
    // else.
    tb->flush_watch = [tbp = tb.get(), &eng] {
        if (tbp->flush_sent) return;
        if (tbp->tx->stats().datagrams < tbp->messages_scheduled) {
            eng.schedule_in(flush_check, [tbp] { tbp->flush_watch(); });
            return;
        }
        tbp->flush_sent = true;
        send_switch_flush(*tbp->tofino, *tbp->src_stack, tbp->rx_host->address(),
                          drill_stream);
    };
    const sim_time load_end{first_message.ns
                            + static_cast<std::int64_t>(cfg.messages)
                                * message_interval.ns};
    eng.schedule_at(load_end, [tbp = tb.get()] { tbp->flush_watch(); });

    // --- recovery measurement ---
    // Whole again: the sender drained and recovered its pace, the flush
    // went out, and every gap the receiver knows about has been filled.
    tb->recovery = std::make_unique<telemetry::recovery_tracker>(eng, probe_interval);
    tb->recovery->arm(
        load_end,
        [tbp = tb.get()] {
            return tbp->flush_sent
                && tbp->tx->stats().datagrams >= tbp->messages_scheduled
                && !tbp->tx->suppressed() && tbp->rx->outstanding_gaps() == 0;
        },
        load_end + overload_probe_deadline);

    return tb;
}

namespace {
/// Summarizes an already-run testbed.
overload_result summarize(overload_testbed& tbr)
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

    telemetry::metrics_registry reg;
    register_metrics(reg, *tb);
    r.metrics_csv = reg.to_csv();

    // Tell the first shed packet's story: its eviction at the WAN egress,
    // the NAK, and the recovered copy arriving from buf.
    if (tb->tracer) {
        auto& tr = *tb->tracer;
        const auto wan_site = tr.site("wan");
        const auto* shed = tr.find_first([&](const trace::record& e) {
            return e.kind == trace::hop::link_drop && e.site == wan_site
                && e.why == trace::reason::deadline_shed;
        });
        if (shed && shed->packet_id != 0) {
            if (const auto* ev = tr.find_first([&](const trace::record& e) {
                    return e.kind == trace::hop::sw_seq_insert && e.packet_id == shed->packet_id;
                }))
                r.traced_sequence = ev->arg;
        }
        if (r.traced_sequence != std::uint64_t(-1))
            r.hop_timeline = tr.format_timeline(tr.message_timeline(r.traced_sequence));
    }
    return r;
}

} // namespace

// --- overload_driver -------------------------------------------------------

std::string overload_driver::describe() const
{
    // Offered Gbps in tenths, integer-only (bits per ns == Gbps).
    const std::uint64_t offered_dgbps =
        (80ull * message_bytes) / static_cast<std::uint64_t>(message_interval.ns);
    return "overload drill: " + std::to_string(cfg_.messages) + " messages at "
        + std::to_string(offered_dgbps / 10) + "."
        + std::to_string(offered_dgbps % 10) + " Gbps offered over a "
        + std::to_string(wan_rate.bits_per_sec / 1000000000) + " Gbps WAN";
}

run_context overload_driver::build()
{
    tb_ = make_overload(cfg_);
    return run_context(tb_->net);
}

const overload_result& overload_driver::result()
{
    if (!result_) result_ = summarize(*tb_);
    return *result_;
}

telemetry::table overload_driver::report(telemetry::metrics_registry& reg)
{
    register_metrics(reg, *tb_);
    return result().report;
}

driver::acceptance overload_driver::accept()
{
    const auto& r = result();
    return stream_acceptance(r.messages_sent, r.rx.datagrams, *tb_->rx);
}

overload_result run_overload_drill(const overload_config& cfg)
{
    overload_driver d(cfg);
    d.run();
    return d.result();
}

} // namespace mmtp::scenario
