#include "scenario/pilot.hpp"

#include "daq/trigger.hpp"

namespace mmtp::scenario {

std::unique_ptr<pilot_testbed> make_pilot(const pilot_config& cfg)
{
    auto tb = std::make_unique<pilot_testbed>();
    tb->cfg = cfg;
    tb->net = netsim::network(cfg.seed);
    auto& net = tb->net;

    // --- nodes (Fig. 4) ---
    tb->sensor = &net.add_host("sensor");
    tb->daq_switch =
        &net.emplace<pnet::programmable_switch>("daq-switch", pnet::tofino2_profile());
    tb->dtn1 = &net.add_host("dtn1");
    tb->tofino2 =
        &net.emplace<pnet::programmable_switch>("tofino2", pnet::tofino2_profile());
    tb->alveo_rx =
        &net.emplace<pnet::programmable_switch>("alveo-u55c", pnet::alveo_profile());
    tb->dtn2 = &net.add_host("dtn2");

    tb->daq_switch->set_id_source(&net.ids());
    tb->tofino2->set_id_source(&net.ids());
    tb->alveo_rx->set_id_source(&net.ids());

    // --- links ---
    netsim::link_config daq_link;
    daq_link.rate = cfg.daq_rate;
    daq_link.propagation = sim_duration{500}; // sub-µs inside the rack

    netsim::link_config clean_100g;
    clean_100g.rate = cfg.wan_rate;
    clean_100g.propagation = sim_duration{1000};
    clean_100g.queue_capacity_bytes = cfg.wan_queue_bytes;

    netsim::link_config wan_link = clean_100g;
    wan_link.propagation = cfg.wan_delay;
    wan_link.drop_probability = cfg.wan_loss;

    // sensor → DAQ switch → DTN1 (duplex so control can flow back)
    const auto [sensor_to_sw, _a] = net.connect(*tb->sensor, *tb->daq_switch, daq_link);
    (void)sensor_to_sw;
    const auto [sw_to_dtn1, _b] = net.connect(*tb->daq_switch, *tb->dtn1, daq_link);
    tb->daq_switch->set_l2_uplink(sw_to_dtn1);
    (void)_a;
    (void)_b;

    // DTN1 → Tofino2: clean 100G
    net.connect(*tb->dtn1, *tb->tofino2, clean_100g);
    // Tofino2 → Alveo: the lossy/delayed "WAN" span, optionally with a
    // deadline-aware priority egress queue at the Tofino2.
    if (cfg.priority_queues) {
        auto q = std::make_unique<netsim::priority_queue_disc>(
            pnet::timeliness_bands, cfg.wan_queue_bytes,
            [](const netsim::packet& p) { return pnet::timeliness_band_of(p); });
        net.connect_simplex(*tb->tofino2, *tb->alveo_rx, wan_link, std::move(q));
    } else {
        net.connect_simplex(*tb->tofino2, *tb->alveo_rx, wan_link);
    }
    // reverse path for NAKs/notifications (clean: control is tiny)
    netsim::link_config wan_back = clean_100g;
    wan_back.propagation = cfg.wan_delay;
    net.connect_simplex(*tb->alveo_rx, *tb->tofino2, wan_back);
    // Alveo → DTN2
    net.connect(*tb->alveo_rx, *tb->dtn2, clean_100g);

    net.compute_routes();

    // --- control plane: mode policy ---
    control::policy_inputs pin;
    pin.experiment = wire::experiments::iceberg;
    pin.segments = {
        {control::path_segment::kind::daq, sim_duration{1000}, cfg.daq_rate, false, 0},
        {control::path_segment::kind::wan, cfg.wan_delay, cfg.wan_rate, cfg.wan_loss > 0,
         tb->tofino2->address()},
        {control::path_segment::kind::campus, sim_duration{1000}, cfg.wan_rate, false,
         tb->alveo_rx->address()},
    };
    pin.recovery_buffer = tb->dtn1->address();
    pin.notify_addr = cfg.notifications ? tb->dtn1->address() : 0;

    // --- in-network programs ---
    tb->mode_stage = std::make_shared<pnet::mode_transition_stage>();
    tb->tofino_age = std::make_shared<pnet::age_update_stage>(cfg.notifications);
    tb->alveo_age = std::make_shared<pnet::age_update_stage>(cfg.notifications);
    tb->duplication = std::make_shared<pnet::duplication_stage>();

    tb->dup_mode_stage = std::make_shared<pnet::mode_transition_stage>();
    // Campus-boundary table (strip recovery, keep timeliness) runs on
    // the Alveo in front of DTN2.
    tb->campus_stage = std::make_shared<pnet::mode_transition_stage>();

    tb->tofino2->add_stage(tb->mode_stage);
    tb->tofino2->add_stage(tb->tofino_age);
    tb->tofino2->add_stage(tb->dup_mode_stage);
    tb->tofino2->add_stage(tb->duplication);
    tb->alveo_rx->add_stage(tb->alveo_age);
    tb->alveo_rx->add_stage(tb->campus_stage);

    // The pilot's one-shot setup is the policy engine's static preset:
    // compile once, install the rules on the attached boundary elements,
    // never reconfigure (§5.3 "pre-supposes knowledge of the network").
    control::policy_engine_config pe_cfg;
    pe_cfg.preset = control::mode_preset::static_preset;
    pe_cfg.inputs = pin;
    pe_cfg.deadline_override_us = cfg.deadline_us;
    tb->policy_ctl = std::make_unique<control::policy_engine>(net.sim(), pe_cfg);
    if (!cfg.sequence_at_dtn)
        tb->policy_ctl->attach_element(*tb->tofino2, tb->mode_stage);
    tb->policy_ctl->attach_element(*tb->alveo_rx, tb->campus_stage);
    tb->policy_ctl->start();
    tb->policy = tb->policy_ctl->current();

    // --- endpoints ---
    tb->sensor_stack = std::make_unique<core::stack>(*static_cast<netsim::host*>(tb->sensor),
                                                     net.ids());
    core::sender_config s_cfg;
    s_cfg.origin_mode = tb->policy.origin_mode; // mode 0
    tb->sensor_tx = std::make_unique<core::sender>(*tb->sensor_stack,
                                                   core::sender::l2_egress{0}, s_cfg);

    tb->dtn1_stack = std::make_unique<core::stack>(*tb->dtn1, net.ids());
    core::buffer_service_config b_cfg;
    b_cfg.next_hop = tb->dtn2->address();
    b_cfg.assign_sequence_locally = cfg.sequence_at_dtn;
    b_cfg.deadline_us = tb->policy.deadline_us;
    b_cfg.notify_addr = pin.notify_addr;
    tb->dtn1_svc = std::make_unique<core::buffer_service>(*tb->dtn1_stack, b_cfg);
    tb->dtn1_svc->attach_as_sink();
    tb->dtn1_stack->set_deadline_handler(
        [tbp = tb.get()](const wire::deadline_exceeded_body&) {
            tbp->deadline_notifications++;
        });

    tb->dtn2_stack = std::make_unique<core::stack>(*tb->dtn2, net.ids());
    core::receiver_config r_cfg;
    r_cfg.timing.retry_base = tb->policy.suggested_nak_retry;
    tb->dtn2_rx = std::make_unique<core::receiver>(*tb->dtn2_stack, r_cfg);

    return tb;
}

// --- pilot_driver ----------------------------------------------------------

pilot_driver::pilot_driver(options opt) : opt_(std::move(opt)) {}

std::string pilot_driver::describe() const
{
    // Integer-only formatting: std::to_string(double) renders through
    // sprintf("%f"), whose decimal point is locale-dependent — the
    // determinism audit pins every banner to pure integer math.
    const auto loss_bp =
        static_cast<std::uint64_t>(opt_.pilot.wan_loss * 10000.0 + 0.5);
    return "pilot study (Fig. 4): " + std::to_string(opt_.records)
        + " ICEBERG trigger records, " + std::to_string(loss_bp / 100) + "."
        + std::to_string(loss_bp % 100 / 10) + std::to_string(loss_bp % 10)
        + "% WAN loss, " + std::to_string(opt_.pilot.wan_delay.ns / 1000000)
        + " ms WAN delay";
}

run_context pilot_driver::build()
{
    tb_ = make_pilot(opt_.pilot);
    daq::iceberg_stream::config icfg;
    icfg.record_limit = opt_.records;
    icfg.frames_per_record = opt_.frames_per_record;
    daq::iceberg_stream source(tb_->net.fork_rng(), icfg);
    records_driven_ = tb_->sensor_tx->drive(source);
    return run_context(tb_->net);
}

telemetry::table pilot_driver::report(telemetry::metrics_registry& reg)
{
    telemetry::register_engine_metrics(reg, tb_->net.sim());
    telemetry::register_stack_metrics(reg, "sensor", *tb_->sensor_stack);
    telemetry::register_stack_metrics(reg, "dtn1", *tb_->dtn1_stack);
    telemetry::register_stack_metrics(reg, "dtn2", *tb_->dtn2_stack);
    telemetry::register_sender_metrics(reg, "sensor", *tb_->sensor_tx);
    telemetry::register_receiver_metrics(reg, "dtn2", *tb_->dtn2_rx);
    telemetry::register_buffer_metrics(reg, "dtn1", *tb_->dtn1_svc);
    telemetry::register_element_metrics(reg, "tofino2", *tb_->tofino2);
    telemetry::register_element_metrics(reg, "alveo", *tb_->alveo_rx);

    telemetry::table t("pilot study");
    t.set_columns({"metric", "value"});
    auto row = [&](const char* name, std::uint64_t v) {
        t.add_row({name, telemetry::fmt_count(v)});
    };
    row("records_driven", records_driven_);
    row("dtn1_relayed", tb_->dtn1_svc->stats().relayed);
    row("mode_transitions", tb_->tofino2->state().counter("mode_transitions"));
    row("nak_requests_served", tb_->dtn1_svc->stats().nak_requests);
    row("retransmitted", tb_->dtn1_svc->stats().retransmitted);
    row("delivered", tb_->dtn2_rx->stats().datagrams);
    row("recovered", tb_->dtn2_rx->stats().recovered);
    row("duplicates", tb_->dtn2_rx->stats().duplicates);
    row("given_up", tb_->dtn2_rx->stats().given_up);
    row("aged_on_arrival", tb_->dtn2_rx->stats().aged_on_arrival);
    row("deadline_notifications", tb_->deadline_notifications);
    return t;
}

driver::acceptance pilot_driver::accept()
{
    return stream_acceptance(records_driven_, tb_->dtn2_rx->stats().datagrams,
                             *tb_->dtn2_rx);
}

} // namespace mmtp::scenario
