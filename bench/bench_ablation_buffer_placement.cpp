// A1 — ablation: where should the retransmission buffer live?
//
// §5.1: "if another retransmission buffer becomes available, we would
// then avoid the need to retransmit from the source, to reduce
// flow-completion time because of the shorter RTT". We build a chain of
// programmable elements (source DTN → s1 → s2 → s3 → receiver, 15 ms per
// hop, loss on the last hop) with a buffer host hanging off each element,
// fed by in-network stream duplication. For each run the receiver's NAKs
// are pointed at one buffer depth; the measured recovery latency and
// window FCT show the cost of distance to the recovery point.
#include "mmtp/buffer_service.hpp"
#include "mmtp/receiver.hpp"
#include "mmtp/sender.hpp"
#include "netsim/network.hpp"
#include "pnet/stages.hpp"
#include "telemetry/report.hpp"

#include <cstdio>

using namespace mmtp;
using namespace mmtp::literals;

namespace {

struct result {
    double recovery_p50_ms{0};
    double fct_ms{0};
    std::uint64_t delivered{0};
    std::uint64_t given_up{0};
    std::uint64_t served_by_buffer{0};
};

/// `buffer_pick`: 0 = the source DTN itself (recover across the whole
/// path), 1..3 = the buffer host at switch s1..s3 (s3 = WAN edge).
result run(unsigned buffer_pick, std::uint64_t records)
{
    const auto hop = 15_ms;
    netsim::network net(55);

    auto& source = net.add_host("source-dtn");
    auto& receiver_host = net.add_host("receiver");
    std::vector<pnet::programmable_switch*> switches;
    std::vector<netsim::host*> buffer_hosts;
    for (unsigned i = 0; i < 3; ++i) {
        switches.push_back(
            &net.emplace<pnet::programmable_switch>("s" + std::to_string(i + 1)));
        switches.back()->set_id_source(&net.ids());
        buffer_hosts.push_back(&net.add_host("buf" + std::to_string(i + 1)));
    }

    netsim::link_config hop_link;
    hop_link.rate = data_rate::from_gbps(100);
    hop_link.propagation = hop;
    netsim::link_config local;
    local.rate = data_rate::from_gbps(100);
    local.propagation = 10_us;

    net.connect(source, *switches[0], hop_link);
    net.connect(*switches[0], *switches[1], hop_link);
    net.connect(*switches[1], *switches[2], hop_link);
    netsim::link_config lossy = hop_link;
    lossy.drop_probability = 0.01;
    net.connect_simplex(*switches[2], receiver_host, lossy);
    net.connect_simplex(receiver_host, *switches[2], hop_link);
    for (unsigned i = 0; i < 3; ++i) net.connect(*switches[i], *buffer_hosts[i], local);
    net.compute_routes();

    // the chosen buffer's address rides in the retransmission field
    const wire::ipv4_addr chosen = buffer_pick == 0
        ? source.address()
        : buffer_hosts[buffer_pick - 1]->address();

    // duplication feeds every in-network buffer tap (they all store; only
    // the chosen one is NAKed — "availability" is what we ablate)
    for (unsigned i = 0; i < 3; ++i) {
        auto dup = std::make_shared<pnet::duplication_stage>();
        dup->add_subscriber(wire::experiments::iceberg, buffer_hosts[i]->address());
        switches[i]->add_stage(dup);
    }

    // source: buffer + sequencing + the chosen recovery address
    core::stack src_stack(source, net.ids());
    core::buffer_service_config scfg;
    scfg.next_hop = receiver_host.address();
    scfg.assign_sequence_locally = true;
    scfg.buffer_addr_override = chosen;
    core::buffer_service src_svc(src_stack, scfg);
    src_svc.attach_as_sink();

    // in-network buffer taps
    std::vector<std::unique_ptr<core::stack>> tap_stacks;
    std::vector<std::unique_ptr<core::buffer_service>> taps;
    for (unsigned i = 0; i < 3; ++i) {
        tap_stacks.push_back(std::make_unique<core::stack>(*buffer_hosts[i], net.ids()));
        core::buffer_service_config tcfg;
        tcfg.tap_only = true;
        taps.push_back(std::make_unique<core::buffer_service>(*tap_stacks[i], tcfg));
        taps.back()->attach_as_sink();
    }

    core::stack rx_stack(receiver_host, net.ids());
    core::receiver_config rcfg;
    rcfg.timing.retry_base =
        sim_duration{2 * static_cast<std::int64_t>(4 - buffer_pick) * hop.ns + 2000000};
    core::receiver rx(rx_stack, rcfg);
    sim_time done = sim_time::never();
    rx.set_on_datagram([&](const core::delivered_datagram&) {
        if (rx.stats().datagrams + 1 >= records && done.is_never())
            done = net.sim().now();
    });

    // feed the source DTN: duplication needs the bit set in flight, so
    // inject datagrams already marked duplication-eligible
    daq::steady_source gen(wire::make_experiment_id(wire::experiments::iceberg, 0),
                           5632, 2_us, sim_time{0}, records);
    while (auto tm = gen.next()) {
        net.sim().schedule_at(tm->at, [&, msg = tm->msg] {
            core::delivered_datagram d;
            d.hdr.experiment = msg.experiment;
            d.hdr.m.set(wire::feature::timestamped).set(wire::feature::duplication);
            d.hdr.timestamp_ns = msg.timestamp_ns;
            d.total_payload_bytes = msg.size_bytes;
            src_svc.relay(d);
        });
    }
    net.sim().run();

    result r;
    r.recovery_p50_ms =
        static_cast<double>(rx.stats().recovery_latency_us.percentile(50)) / 1000.0;
    r.fct_ms = done.is_never() ? -1 : sim_duration{done.ns}.millis();
    r.delivered = rx.stats().datagrams;
    r.given_up = rx.stats().given_up;
    r.served_by_buffer = buffer_pick == 0 ? src_svc.stats().retransmitted
                                          : taps[buffer_pick - 1]->stats().retransmitted;
    return r;
}

} // namespace

int main()
{
    const std::uint64_t records = 5000;
    std::printf("A1: buffer placement ablation — 4x15 ms chain, 1%% loss on the last "
                "hop, %llu records\n",
                static_cast<unsigned long long>(records));
    telemetry::table t("recovery cost vs buffer placement");
    t.set_columns({"NAKs served by", "hops from receiver", "p50 recovery",
                   "window FCT", "delivered", "unrecoverable", "rtx served"});
    const char* names[4] = {"source DTN", "buffer at s1", "buffer at s2",
                            "buffer at s3 (edge)"};
    double prev = 1e18;
    bool monotone = true;
    for (unsigned pick : {0u, 1u, 2u, 3u}) {
        const auto r = run(pick, records);
        if (r.recovery_p50_ms > prev + 0.5) monotone = false;
        prev = r.recovery_p50_ms;
        t.add_row({names[pick], telemetry::fmt_count(4 - pick),
                   telemetry::fmt_duration_us(r.recovery_p50_ms * 1000.0),
                   telemetry::fmt_duration_us(r.fct_ms * 1000.0),
                   telemetry::fmt_count(r.delivered), telemetry::fmt_count(r.given_up),
                   telemetry::fmt_count(r.served_by_buffer)});
    }
    t.print();
    t.write_csv("bench_a1.csv");
    std::printf("\nshape check: %s\n",
                monotone ? "recovery latency falls as the buffer moves toward the "
                           "receiver — §5.1's argument for opportunistic buffers."
                         : "recovery latency not monotone; inspect rows.");
    return 0;
}
