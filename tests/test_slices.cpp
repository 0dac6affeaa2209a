// Req 8 / Req 10 tests: instrument partitioning and integration.
// Slices of one experiment are independent streams end to end — separate
// sequence spaces, separate loss recovery, separate delivery accounting —
// and several experiments can share one path and one buffer service
// without interfering.
#include "mmtp/buffer_service.hpp"
#include "mmtp/receiver.hpp"
#include "mmtp/sender.hpp"
#include "netsim/network.hpp"

#include <gtest/gtest.h>

using namespace mmtp;
using namespace mmtp::core;
using namespace mmtp::netsim;
using namespace mmtp::literals;

namespace {

struct sliced_rig {
    network net;
    host* src;
    host* dst;
    std::unique_ptr<stack> s_src;
    std::unique_ptr<stack> s_dst;
    std::unique_ptr<buffer_service> svc;
    std::unique_ptr<receiver> rx;

    explicit sliced_rig(double loss, std::uint64_t seed = 77) : net(seed)
    {
        src = &net.add_host("src");
        dst = &net.add_host("dst");
        link_config fwd;
        fwd.rate = data_rate::from_gbps(10);
        fwd.propagation = 500_us;
        fwd.drop_probability = loss;
        net.connect_simplex(*src, *dst, fwd);
        link_config back = fwd;
        back.drop_probability = 0.0;
        net.connect_simplex(*dst, *src, back);
        net.compute_routes();
        s_src = std::make_unique<stack>(*src, net.ids());
        s_dst = std::make_unique<stack>(*dst, net.ids());
        buffer_service_config bcfg;
        bcfg.next_hop = dst->address();
        bcfg.assign_sequence_locally = true;
        svc = std::make_unique<buffer_service>(*s_src, bcfg);
        receiver_config rcfg;
        rcfg.timing.retry_base = 3_ms;
        rx = std::make_unique<receiver>(*s_dst, rcfg);
    }

    void feed(wire::experiment_id id, std::uint64_t n)
    {
        for (std::uint64_t i = 0; i < n; ++i) {
            delivered_datagram d;
            d.hdr.experiment = id;
            d.hdr.m.set(wire::feature::timestamped);
            d.hdr.timestamp_ns = static_cast<std::uint64_t>(net.sim().now().ns);
            d.total_payload_bytes = 1000;
            svc->relay(d);
        }
    }
};

} // namespace

TEST(slices, tail_loss_recovered_via_stream_flush)
{
    // a 30% lossy link makes tail loss near-certain across 20 streams'
    // final datagrams; without flush these would be silently missing.
    sliced_rig rig(0.30, 123);
    for (std::uint32_t slice = 0; slice < 20; ++slice)
        rig.feed(wire::make_experiment_id(wire::experiments::dune, slice), 10);
    rig.svc->flush();
    rig.net.sim().run();
    EXPECT_EQ(rig.rx->stats().datagrams, 200u);
    EXPECT_EQ(rig.rx->stats().given_up, 0u);
    EXPECT_GT(rig.rx->stats().recovered, 20u);
}

TEST(slices, all_slices_delivered_with_per_slice_accounting)
{
    sliced_rig rig(0.0);
    std::map<std::uint32_t, std::uint64_t> per_slice;
    rig.rx->set_on_datagram([&](const delivered_datagram& d) {
        per_slice[wire::slice_of(d.hdr.experiment)]++;
    });
    for (std::uint32_t slice = 0; slice < 4; ++slice)
        rig.feed(wire::make_experiment_id(wire::experiments::dune, slice),
                 100 + slice * 10);
    rig.net.sim().run();
    for (std::uint32_t slice = 0; slice < 4; ++slice)
        EXPECT_EQ(per_slice[slice], 100 + slice * 10) << "slice " << slice;
}

TEST(slices, loss_recovery_works_across_interleaved_slices)
{
    sliced_rig rig(0.05);
    for (std::uint64_t round = 0; round < 200; ++round) {
        for (std::uint32_t slice = 0; slice < 4; ++slice)
            rig.feed(wire::make_experiment_id(wire::experiments::dune, slice), 1);
    }
    rig.svc->flush(); // end-of-window markers reveal any tail loss
    rig.net.sim().run();
    EXPECT_EQ(rig.rx->stats().datagrams, 800u);
    EXPECT_EQ(rig.rx->stats().given_up, 0u);
    EXPECT_GT(rig.rx->stats().recovered, 0u);
}

TEST(slices, multiple_experiments_share_buffer_without_interference)
{
    sliced_rig rig(0.03);
    std::map<std::uint32_t, std::uint64_t> per_experiment;
    rig.rx->set_on_datagram([&](const delivered_datagram& d) {
        per_experiment[wire::experiment_of(d.hdr.experiment)]++;
    });
    rig.feed(wire::make_experiment_id(wire::experiments::dune, 0), 300);
    rig.feed(wire::make_experiment_id(wire::experiments::vera_rubin, 0), 300);
    rig.feed(wire::make_experiment_id(wire::experiments::mu2e, 0), 300);
    rig.svc->flush();
    rig.net.sim().run();
    EXPECT_EQ(per_experiment[wire::experiments::dune], 300u);
    EXPECT_EQ(per_experiment[wire::experiments::vera_rubin], 300u);
    EXPECT_EQ(per_experiment[wire::experiments::mu2e], 300u);
    EXPECT_EQ(rig.rx->stats().given_up, 0u);
}

TEST(slices, sender_stamps_slice_from_message)
{
    // the slice travels in the experiment-id field from the sensor
    network net(5);
    auto& a = net.add_host("a");
    auto& b = net.add_host("b");
    net.connect(a, b, link_config{});
    net.compute_routes();
    stack sa(a, net.ids());
    stack sb(b, net.ids());
    std::vector<std::uint32_t> slices_seen;
    sb.set_data_sink([&](delivered_datagram&& d) {
        slices_seen.push_back(wire::slice_of(d.hdr.experiment));
    });
    sender_config cfg;
    sender tx(sa, b.address(), cfg);
    for (std::uint32_t slice : {7u, 3u, 7u}) {
        daq::daq_message m;
        m.experiment = wire::make_experiment_id(wire::experiments::dune, slice);
        m.size_bytes = 100;
        tx.send_message(m);
    }
    net.sim().run();
    EXPECT_EQ(slices_seen, (std::vector<std::uint32_t>{7, 3, 7}));
}
