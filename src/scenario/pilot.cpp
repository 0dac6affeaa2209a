#include "scenario/pilot.hpp"

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
    daq_link.burst = cfg.link_burst;

    netsim::link_config clean_100g;
    clean_100g.rate = cfg.wan_rate;
    clean_100g.propagation = sim_duration{1000};
    clean_100g.queue_capacity_bytes = cfg.wan_queue_bytes;
    clean_100g.burst = cfg.link_burst;

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

    // --- control plane: resources + mode policy ---
    control::resource_map rmap;
    rmap.add({control::resource_kind::retransmission_buffer, tb->dtn1->address(),
              "dtn1-buffer", 512ull * 1024 * 1024, sim_duration{5000000000}, "daq-site"});
    rmap.add({control::resource_kind::programmable_switch, tb->tofino2->address(),
              "tofino2", 0, sim_duration::zero(), "daq-site"});
    rmap.add({control::resource_kind::fpga_nic, tb->alveo_rx->address(), "alveo-u55c", 0,
              sim_duration::zero(), "receiving-site"});

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
    pnet::age_config age_cfg;
    age_cfg.emit_notifications = cfg.notifications;
    tb->tofino_age = std::make_shared<pnet::age_update_stage>(age_cfg);
    tb->alveo_age = std::make_shared<pnet::age_update_stage>(age_cfg);
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
    tb->policy_ctl = std::make_unique<control::policy_engine>(net.sim(), rmap, pe_cfg);
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

} // namespace mmtp::scenario
