// Burst-vs-single-packet determinism: the burst pipeline is a pure
// mechanical transform (fewer engine events, same virtual-time work), so
// a same-seed run must produce byte-identical telemetry at any burst
// size. These tests drive a noisy, congested host → switch → host chain
// at burst {1, 8, 32} and compare the full metrics CSV (links + switch;
// engine event counts are excluded — they change by design), the sink's
// delivery order, and every per-packet flight-recorder timeline.
#include "common/trace.hpp"
#include "netsim/link.hpp"
#include "netsim/network.hpp"
#include "pnet/element.hpp"
#include "pnet/stages.hpp"
#include "telemetry/metrics.hpp"
#include "wire/build.hpp"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

using namespace mmtp;
using namespace mmtp::netsim;
using namespace mmtp::pnet;
using namespace mmtp::literals;

namespace {

wire::header seq_header(std::uint64_t seq)
{
    wire::header h;
    h.experiment = wire::make_experiment_id(6, 0);
    h.m.set(wire::feature::sequencing);
    h.sequencing = wire::sequencing_field{seq, 0};
    return h;
}

/// Drip-feeds packets onto the first link at a fixed virtual spacing.
/// At burst == 1 each packet gets its own injection event (the classic
/// path); at burst > 1 one event hands over `burst` pre-stamped packets.
/// Packet k enters the link at (k+1)·spacing either way.
struct feeder {
    network* net;
    node* src;
    wire::ipv4_addr from, to;
    unsigned burst;
    std::uint64_t total;
    sim_duration spacing;
    std::uint64_t sent{0};

    void fire()
    {
        const sim_time now = net->sim().now();
        auto& out = src->egress(0);
        unsigned b = 0;
        for (; b < burst && sent < total; ++b, ++sent) {
            packet p;
            p.id = net->ids().next();
            // Varying payloads vary the serialization time, so bursts
            // interleave queueing and cut-through commitments.
            const std::uint64_t payload = 64 + (sent % 7) * 128;
            wire::build_mmtp_over_ipv4(p.headers, 0x02, from, to, seq_header(sent), payload);
            p.virtual_payload = payload;
            const sim_time at = now + sim_duration{static_cast<std::int64_t>(b) * spacing.ns};
            if (burst > 1)
                out.send_at(at, std::move(p));
            else
                out.send(std::move(p));
        }
        if (sent < total)
            net->sim().schedule_in(sim_duration{static_cast<std::int64_t>(b) * spacing.ns},
                                   [this] { fire(); });
    }
};

std::string fingerprint_records(const trace::flight_recorder& rec,
                                std::uint64_t max_packet_id)
{
    // Raw ring order differs at burst > 1 (stage-major emission); the
    // invariant is each packet's own timeline. Rebuild per-id, in id
    // order, so the rendering is canonical.
    std::string out;
    char line[160];
    for (std::uint64_t id = 1; id <= max_packet_id; ++id) {
        for (const auto& r : rec.packet_events(id)) {
            std::snprintf(line, sizeof line,
                          "id=%" PRIu64 " t=%" PRId64 " site=%s hop=%d why=%d arg=%" PRIu64 "\n",
                          r.packet_id, r.at_ns, rec.site_name(r.site).c_str(),
                          static_cast<int>(r.kind), static_cast<int>(r.why), r.arg);
            out += line;
        }
    }
    return out;
}

/// One full run at the given burst size; returns every byte of telemetry
/// the run produced (metrics CSV + delivery order + trace timelines).
std::string run_chain(unsigned burst)
{
    network net(1234);
    auto& a = net.add_host("a");
    auto& sw = net.emplace<programmable_switch>("sw");
    auto& b = net.add_host("b");
    sw.set_id_source(&net.ids());

    link_config noisy; // 10G / 1 us defaults: spacing below saturates it
    noisy.burst = burst;
    noisy.drop_probability = 0.02;
    noisy.bit_error_rate = 1e-7;
    const auto [a_out, _r1] = net.connect(a, sw, noisy);
    link_config clean;
    clean.burst = burst;
    const auto [sw_out, _r2] = net.connect(sw, b, clean);
    net.compute_routes();
    // A real (if idle) stage so bursts run the stage-major pipeline loop.
    sw.add_stage(std::make_shared<duplication_stage>());

    trace::flight_recorder rec;
    trace::scoped_recorder install(rec);
    a.egress(a_out).set_trace_site(rec.site("a-sw"));
    sw.egress(sw_out).set_trace_site(rec.site("sw-b"));

    std::string delivery; // arrival order + payload fingerprint at the sink
    b.set_protocol_handler(wire::ipproto_mmtp,
                           [&](packet&& p, const wire::ipv4_header&, std::size_t) {
                               char line[64];
                               std::snprintf(line, sizeof line, "%" PRIu64 ":%" PRIu64 "\n",
                                             p.id, p.wire_size());
                               delivery += line;
                           });

    feeder f{&net, &a, a.address(), b.address(), burst, 400, 100_ns};
    net.sim().schedule_in(f.spacing, [&f] { f.fire(); });
    net.sim().run();

    telemetry::metrics_registry reg;
    telemetry::register_link_metrics(reg, "a-sw", a.egress(a_out));
    telemetry::register_link_metrics(reg, "sw-b", sw.egress(sw_out));
    telemetry::register_element_metrics(reg, "sw", sw);

    return reg.to_csv() + "--- delivery ---\n" + delivery + "--- traces ---\n"
        + fingerprint_records(rec, net.ids().next());
}

} // namespace

TEST(burst_determinism, metrics_identical_across_burst_sizes)
{
    const std::string at1 = run_chain(1);
    const std::string at8 = run_chain(8);
    const std::string at32 = run_chain(32);

    // Sanity: the run actually moved traffic into the telemetry.
    EXPECT_NE(at1.find("link_tx_packets"), std::string::npos);
    // The delivery section must not be empty (sink saw packets).
    EXPECT_EQ(at1.find("--- delivery ---\n--- traces ---"), std::string::npos);
    EXPECT_EQ(at1, at8);
    EXPECT_EQ(at8, at32);
}

// The burst fast path must also agree with itself under zero noise and
// no congestion (pure cut-through: every packet commits with zero wait).
TEST(burst_determinism, cut_through_identical_across_burst_sizes)
{
    auto quiet = [](unsigned burst) {
        network net(99);
        auto& a = net.add_host("a");
        auto& sw = net.emplace<programmable_switch>("sw");
        auto& b = net.add_host("b");
        sw.set_id_source(&net.ids());
        link_config fast;
        fast.rate = data_rate::from_gbps(100);
        fast.burst = burst;
        const auto [a_out, _r1] = net.connect(a, sw, fast);
        const auto [sw_out, _r2] = net.connect(sw, b, fast);
        net.compute_routes();

        std::string delivery;
        b.set_protocol_handler(wire::ipproto_mmtp,
                               [&](packet&& p, const wire::ipv4_header&, std::size_t) {
                                   char line[64];
                                   std::snprintf(line, sizeof line, "%" PRIu64 "\n", p.id);
                                   delivery += line;
                               });

        feeder f{&net, &a, a.address(), b.address(), burst, 100, sim_duration{2000}};
        net.sim().schedule_in(f.spacing, [&f] { f.fire(); });
        net.sim().run();

        telemetry::metrics_registry reg;
        telemetry::register_link_metrics(reg, "a-sw", a.egress(a_out));
        telemetry::register_link_metrics(reg, "sw-b", sw.egress(sw_out));
        telemetry::register_element_metrics(reg, "sw", sw);
        return reg.to_csv() + delivery;
    };

    const std::string at1 = quiet(1);
    EXPECT_NE(at1.find("link_tx_packets"), std::string::npos);
    EXPECT_EQ(at1, quiet(8));
    EXPECT_EQ(at1, quiet(32));
}
