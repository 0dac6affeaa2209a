// quickstart — the smallest end-to-end MMTP program.
//
// Builds a three-node path (sensor → programmable switch → analysis
// host), lets the control plane compile a mode policy, installs the
// resulting rule on the switch, and streams 1000 detector messages
// across a lossy link. The receiver recovers every loss by NAKing the
// upstream buffer. Run it; it prints what happened at each layer.
//
//   $ ./quickstart
#include "control/policy.hpp"
#include "daq/trigger.hpp"
#include "mmtp/buffer_service.hpp"
#include "mmtp/receiver.hpp"
#include "mmtp/sender.hpp"
#include "netsim/network.hpp"
#include "pnet/stages.hpp"
#include "telemetry/report.hpp"

#include <cstdio>

using namespace mmtp;
using namespace mmtp::literals;

int main()
{
    // 1. Topology: sensor -> DTN (buffer) -> switch -> lossy WAN -> analysis
    netsim::network net(/*seed=*/7);
    auto& sensor = net.add_host("sensor");
    auto& dtn = net.add_host("dtn");
    auto& sw = net.emplace<pnet::programmable_switch>("switch");
    auto& analysis = net.add_host("analysis");
    sw.set_id_source(&net.ids());

    netsim::link_config lan;
    lan.rate = data_rate::from_gbps(100);
    net.connect(sensor, dtn, lan);
    net.connect(dtn, sw, lan);

    netsim::link_config wan = lan;
    wan.propagation = 5_ms;
    wan.drop_probability = 0.02; // 2% loss to make recovery visible
    net.connect_simplex(sw, analysis, wan);
    netsim::link_config wan_back = lan;
    wan_back.propagation = 5_ms;
    net.connect_simplex(analysis, sw, wan_back);
    net.compute_routes();

    // 2. Control plane: describe the path, compile the mode policy.
    control::resource_map rmap;
    rmap.add({control::resource_kind::retransmission_buffer, dtn.address(),
              "dtn-buffer", 512 * 1024 * 1024, 5_s, "example"});
    control::policy_inputs pin;
    pin.experiment = wire::experiments::iceberg;
    pin.segments = {
        {control::path_segment::kind::daq, 1_us, data_rate::from_gbps(100), false, 0},
        {control::path_segment::kind::wan, 5_ms, data_rate::from_gbps(100), true,
         sw.address()},
    };
    pin.recovery_buffer = dtn.address();
    pin.notify_addr = dtn.address();
    const auto policy = control::compile_modes(pin, rmap);
    std::printf("policy: deadline=%u us, nak_retry=%.1f ms, %zu transition(s)\n",
                policy.deadline_us, policy.suggested_nak_retry.millis(),
                policy.transitions.size());

    // 3. Install the in-network programs on the switch.
    auto modes = std::make_shared<pnet::mode_transition_stage>();
    for (const auto& t : policy.transitions)
        if (t.element == sw.address()) modes->add_rule(t.rule);
    sw.add_stage(modes);
    sw.add_stage(std::make_shared<pnet::age_update_stage>());

    // 4. Endpoints: sensor sends mode 0; DTN buffers+relays; analysis
    //    receives and NAKs the DTN on loss.
    core::stack sensor_stack(sensor, net.ids());
    core::sender tx(sensor_stack, dtn.address(), {.origin_mode = policy.origin_mode});

    core::stack dtn_stack(dtn, net.ids());
    core::buffer_service buffer(dtn_stack, {.next_hop = analysis.address()});
    buffer.attach_as_sink();

    core::stack rx_stack(analysis, net.ids());
    core::receiver rx(rx_stack, {.timing = {.retry_base = policy.suggested_nak_retry}});

    // 5. Drive a synthetic LArTPC stream and run the simulation.
    daq::iceberg_stream::config icfg;
    icfg.record_limit = 1000;
    daq::iceberg_stream source(net.fork_rng(), icfg);
    tx.drive(source);
    net.sim().run();

    // 6. Report.
    telemetry::table t("quickstart: 1000 records across a 2%-loss WAN");
    t.set_columns({"stage", "metric", "value"});
    t.add_row({"sensor", "messages sent", telemetry::fmt_count(tx.stats().messages)});
    t.add_row({"dtn", "datagrams relayed+buffered",
               telemetry::fmt_count(buffer.stats().relayed)});
    t.add_row({"switch", "mode transitions",
               telemetry::fmt_count(sw.state().counter("mode_transitions"))});
    t.add_row({"analysis", "datagrams delivered",
               telemetry::fmt_count(rx.stats().datagrams)});
    t.add_row({"analysis", "recovered via NAK to DTN",
               telemetry::fmt_count(rx.stats().recovered)});
    t.add_row({"analysis", "NAKs sent", telemetry::fmt_count(rx.stats().naks_sent)});
    t.add_row({"analysis", "unrecoverable", telemetry::fmt_count(rx.stats().given_up)});
    t.add_row({"analysis", "p50 age",
               telemetry::fmt_duration_us(
                   static_cast<double>(rx.stats().age_us.percentile(50)))});
    t.print();

    const bool ok = rx.stats().datagrams == 1000 && rx.stats().given_up == 0;
    std::printf("\n%s\n", ok ? "OK: every record delivered exactly once."
                             : "FAILED: records missing!");
    return ok ? 0 : 1;
}
