#include "scenario/shapeshift.hpp"

#include "daq/message.hpp"

namespace mmtp::scenario {

namespace {
/// The drill's one stream: the ICEBERG experiment, slice 0.
constexpr wire::experiment_id drill_stream =
    wire::make_experiment_id(wire::experiments::iceberg, 0);

// The drill's fixed operating point; shapeshift_config holds what
// programs vary.
/// WAN span: the segment the drill degrades.
constexpr data_rate wan_rate = data_rate::from_gbps(10);
constexpr sim_duration wan_delay{1000000}; // 1 ms one way
constexpr std::uint64_t wan_queue_bytes = 8ull * 1024 * 1024;
constexpr std::uint32_t message_bytes = 4096;
/// The closed loop's signal sampling cadence.
constexpr sim_duration poll_interval{500000}; // 500 us
/// Flight-recorder ring capacity in records.
constexpr std::size_t trace_capacity = 1u << 17;

/// The drill's one metrics list.
void register_metrics(telemetry::metrics_registry& reg, shapeshift_testbed& tb)
{
    telemetry::register_engine_metrics(reg, tb.net.sim());
    telemetry::register_link_metrics(reg, "wan", *tb.wan);
    telemetry::register_policy_engine_metrics(reg, *tb.policy_ctl);
    telemetry::register_element_metrics(reg, "tofino", *tb.tofino);
    telemetry::register_stack_metrics(reg, "sensor", *tb.sensor_stack);
    telemetry::register_stack_metrics(reg, "rx", *tb.rx_stack);
    telemetry::register_sender_metrics(reg, "sensor", *tb.tx);
    telemetry::register_receiver_metrics(reg, "rx", *tb.rx);
    telemetry::register_buffer_metrics(reg, "dtn1", *tb.dtn1_svc);
}
} // namespace

std::unique_ptr<shapeshift_testbed> make_shapeshift(const shapeshift_config& cfg)
{
    auto tb = std::make_unique<shapeshift_testbed>();
    tb->cfg = cfg;
    tb->net = netsim::network(cfg.seed);
    auto& net = tb->net;
    auto& eng = net.sim();

    // --- topology ---
    tb->sensor = &net.add_host("sensor");
    tb->dtn1 = &net.add_host("dtn1");
    tb->tofino =
        &net.emplace<pnet::programmable_switch>("tofino", pnet::tofino2_profile());
    tb->rx_host = &net.add_host("rx");
    tb->tofino->set_id_source(&net.ids());

    netsim::link_config clean;
    clean.rate = data_rate::from_gbps(100);
    clean.propagation = sim_duration{1000};

    netsim::link_config wan;
    wan.rate = wan_rate;
    wan.propagation = wan_delay;
    wan.queue_capacity_bytes = wan_queue_bytes;

    net.connect(*tb->sensor, *tb->dtn1, clean);
    net.connect(*tb->dtn1, *tb->tofino, clean);
    const unsigned wan_port = net.connect_simplex(*tb->tofino, *tb->rx_host, wan);
    netsim::link_config wan_back = clean;
    wan_back.propagation = wan_delay;
    net.connect_simplex(*tb->rx_host, *tb->tofino, wan_back); // NAK return path
    tb->wan = &tb->tofino->egress(wan_port);

    net.compute_routes();

    // --- observability ---
    if (cfg.trace) {
        tb->tracer = std::make_unique<trace::flight_recorder>(trace_capacity);
        tb->tracer_install = std::make_unique<trace::scoped_recorder>(*tb->tracer);
        tb->wan->set_trace_site(tb->tracer->site("wan"));
        tb->tofino->state().trace_site = tb->tracer->site("tofino");
    }

    // --- in-network program ---
    tb->mode_stage = std::make_shared<pnet::mode_transition_stage>();
    tb->tofino->add_stage(tb->mode_stage);
    tb->tofino->add_stage(std::make_shared<pnet::age_update_stage>());

    // --- closed-loop control plane ---
    control::resource_map rmap;
    rmap.add({control::resource_kind::retransmission_buffer, tb->dtn1->address(),
              "dtn1-buffer", 512ull * 1024 * 1024, sim_duration{5000000000}, "daq-site"});
    rmap.add({control::resource_kind::programmable_switch, tb->tofino->address(),
              "tofino", 0, sim_duration::zero(), "daq-site"});

    control::policy_inputs pin;
    pin.experiment = wire::experiments::iceberg;
    pin.segments = {
        {control::path_segment::kind::daq, sim_duration{1000}, data_rate::from_gbps(100),
         false, 0},
        {control::path_segment::kind::wan, wan_delay, wan_rate, true,
         tb->tofino->address()},
    };
    pin.recovery_buffer = tb->dtn1->address();

    control::policy_engine_config pe_cfg;
    pe_cfg.preset = cfg.policy;
    pe_cfg.inputs = pin;
    pe_cfg.poll_interval = poll_interval;
    pe_cfg.poll_until = cfg.poll_until;
    tb->policy_ctl = std::make_unique<control::policy_engine>(eng, rmap, pe_cfg);
    tb->policy_ctl->attach_element(*tb->tofino, tb->mode_stage);
    tb->policy_ctl->watch_loss(*tb->wan);
    if (tb->tracer) tb->policy_ctl->set_trace_site(tb->tracer->site("ctl"));
    tb->policy_ctl->start(); // epoch 0: the baseline plan goes live
    const auto& plan = tb->policy_ctl->current();

    // --- endpoints ---
    tb->sensor_stack = std::make_unique<core::stack>(*tb->sensor, net.ids());
    core::sender_config s_cfg;
    s_cfg.origin_mode = plan.origin_mode; // mode 0, epoch 0
    s_cfg.max_datagram_payload = message_bytes;
    tb->tx = std::make_unique<core::sender>(*tb->sensor_stack, tb->dtn1->address(), s_cfg);

    tb->dtn1_stack = std::make_unique<core::stack>(*tb->dtn1, net.ids());
    core::buffer_service_config b_cfg;
    b_cfg.next_hop = tb->rx_host->address();
    b_cfg.deadline_us = plan.deadline_us;
    tb->dtn1_svc = std::make_unique<core::buffer_service>(*tb->dtn1_stack, b_cfg);
    tb->dtn1_svc->attach_as_sink();

    tb->rx_stack = std::make_unique<core::stack>(*tb->rx_host, net.ids());
    core::receiver_config r_cfg;
    r_cfg.timing.retry_base = plan.suggested_nak_retry;
    tb->rx = std::make_unique<core::receiver>(*tb->rx_stack, r_cfg);
    tb->rx->set_on_datagram([tbp = tb.get()](const core::delivered_datagram& d) {
        tbp->delivered_by_epoch[d.hdr.m.cfg_id]++;
    });

    // From now on, every install re-stamps the sender's origin mode with
    // the new epoch — new datagrams shift, in-flight ones finish under
    // the old epoch's rules (make before break).
    tb->policy_ctl->set_origin_handler(
        [tbp = tb.get()](const control::compiled_policy&, wire::mode origin) {
            tbp->tx->set_origin_mode(origin);
        });

    // --- the mid-run degradation ---
    tb->faults = std::make_unique<netsim::fault_scheduler>(eng);
    tb->faults->corruption_burst(*tb->wan, cfg.burst_at, cfg.burst_duration,
                                 cfg.burst_ber);

    // --- traffic and end-of-window flush ---
    daq::steady_source source(drill_stream, message_bytes, cfg.message_interval,
                              shapeshift_first_message, cfg.messages);
    tb->messages_scheduled = tb->tx->drive(source);
    eng.schedule_at(cfg.flush_at, [tbp = tb.get()] { tbp->dtn1_svc->flush(); });

    return tb;
}

namespace {
/// Summarizes an already-run testbed.
shapeshift_result summarize(shapeshift_testbed& tbr)
{
    auto* tb = &tbr;
    shapeshift_result r;
    r.tx = tb->tx->stats();
    r.rx = tb->rx->stats();
    r.buf = tb->dtn1_svc->stats();
    r.wan = tb->wan->stats();
    r.ctl = tb->policy_ctl->stats();
    r.messages_sent = tb->messages_scheduled;
    r.delivered = r.rx.datagrams;
    r.all_delivered = r.delivered == r.messages_sent && r.rx.given_up == 0
        && tb->rx->outstanding_gaps() == 0;
    const auto& st = tb->tofino->state();
    r.mode_shifts = st.counter("mode_shifts");
    r.epochs_retired = st.counter("epochs_retired");
    r.final_epoch = tb->policy_ctl->epoch();
    r.final_posture = control::posture_name(tb->policy_ctl->current_posture());
    r.rx_mode_shifts_seen = r.rx.mode_shifts_seen;
    r.rx_last_epoch = tb->rx->last_policy_epoch(drill_stream);
    r.delivered_by_epoch = tb->delivered_by_epoch;

    auto& t = r.report;
    t.set_columns({"metric", "value"});
    auto row = [&](const std::string& name, std::uint64_t v) {
        t.add_row({name, telemetry::fmt_count(v)});
    };
    row("messages_sent", r.messages_sent);
    row("delivered", r.delivered);
    row("all_delivered", r.all_delivered ? 1 : 0);
    row("duplicates", r.rx.duplicates);
    row("recovered_datagrams", r.rx.recovered);
    row("naks_sent", r.rx.naks_sent);
    row("given_up", r.rx.given_up);
    row("aged_on_arrival", r.rx.aged_on_arrival);
    row("wan_corrupted", r.wan.corrupted);
    row("reconfigs_planned", r.ctl.reconfigs_planned);
    row("reconfigs_installed", r.ctl.reconfigs_installed);
    row("reconfigs_committed", r.ctl.reconfigs_committed);
    row("reconfigs_aborted", r.ctl.reconfigs_aborted);
    row("loss_triggers", r.ctl.loss_triggers);
    row("restores", r.ctl.restores);
    row("polls", r.ctl.polls);
    row("element_mode_shifts", r.mode_shifts);
    row("element_epochs_retired", r.epochs_retired);
    row("final_epoch", r.final_epoch);
    t.add_row({"final_posture", r.final_posture});
    row("sender_origin_mode_updates", r.tx.origin_mode_updates);
    row("rx_mode_shifts_seen", r.rx_mode_shifts_seen);
    row("rx_last_epoch", r.rx_last_epoch);
    for (const auto& [epoch, count] : r.delivered_by_epoch)
        row("delivered_epoch_" + std::to_string(unsigned(epoch)), count);

    telemetry::metrics_registry reg;
    register_metrics(reg, *tb);
    r.metrics_csv = reg.to_csv();

    // The reconfiguration story, span by span.
    if (tb->tracer) {
        std::vector<trace::record> spans;
        tb->tracer->for_each([&](const trace::record& ev) {
            switch (ev.kind) {
            case trace::hop::ctl_reconfig_planned:
            case trace::hop::ctl_reconfig_installed:
            case trace::hop::ctl_reconfig_committed:
            case trace::hop::ctl_reconfig_aborted: spans.push_back(ev); break;
            default: break;
            }
        });
        r.reconfig_timeline = tb->tracer->format_timeline(spans);
    }
    return r;
}

} // namespace

// --- shapeshift_driver -----------------------------------------------------

std::string shapeshift_driver::describe() const
{
    return "shapeshift drill: " + std::to_string(cfg_.messages) + " messages of "
        + std::to_string(message_bytes) + " B, WAN corruption burst at "
        + std::to_string(cfg_.burst_at.ns / 1000000) + " ms answered by a runtime "
        + "mode shift";
}

run_context shapeshift_driver::build()
{
    tb_ = make_shapeshift(cfg_);
    return run_context(tb_->net);
}

const shapeshift_result& shapeshift_driver::result()
{
    if (!result_) result_ = summarize(*tb_);
    return *result_;
}

telemetry::table shapeshift_driver::report(telemetry::metrics_registry& reg)
{
    register_metrics(reg, *tb_);
    return result().report;
}

driver::acceptance shapeshift_driver::accept()
{
    const auto& r = result();
    return stream_acceptance(r.messages_sent, r.delivered, *tb_->rx);
}

shapeshift_result run_shapeshift_drill(const shapeshift_config& cfg)
{
    shapeshift_driver d(cfg);
    d.run();
    return d.result();
}

} // namespace mmtp::scenario
