// Fault-injection tests: link up/down semantics (in-flight vs queued),
// dropped_down accounting, corruption bursts, node blackouts, flap-storm
// determinism, the failure-aware control plane (health monitor +
// capacity planner reroutes), receiver NAK backoff and buffer failover,
// and the sender's epoch-bumping reroute.
#include "control/health_monitor.hpp"
#include "control/planner.hpp"
#include "mmtp/buffer_service.hpp"
#include "mmtp/receiver.hpp"
#include "mmtp/sender.hpp"
#include "netsim/fault.hpp"
#include "netsim/network.hpp"
#include "pnet/stages.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

using namespace mmtp;
using namespace mmtp::core;
using namespace mmtp::netsim;
using namespace mmtp::literals;

namespace {

packet make_pkt(std::uint64_t id, std::uint64_t size)
{
    packet p;
    p.id = id;
    p.virtual_payload = size;
    return p;
}

class counting_sink final : public node {
public:
    using node::node;
    void receive(packet&&, unsigned) override { arrivals++; }
    std::uint64_t arrivals{0};
};

class corruption_sink final : public node {
public:
    using node::node;
    void receive(packet&& p, unsigned) override
    {
        arrivals++;
        if (p.corrupted) corrupted++;
    }
    std::uint64_t arrivals{0};
    std::uint64_t corrupted{0};
};

} // namespace

// ------------------------------------------------- link down semantics

// A packet already in the serializer when the link fails is on the wire:
// it completes and is delivered. Packets queued behind it stall until
// repair, then resume — nothing is silently lost from the queue.
TEST(fault_link, down_mid_serialization_delivers_in_flight_stalls_queued)
{
    network net(5);
    auto& sink = net.emplace<counting_sink>("sink");
    auto& src = net.add_host("src");
    link_config cfg;
    cfg.rate = data_rate::from_gbps(10); // 1000 B = 800 ns serialization
    cfg.propagation = sim_duration{100};
    const auto port = net.connect_simplex(src, sink, cfg);
    auto& l = src.egress(port);

    fault_scheduler faults(net.sim());
    for (int i = 0; i < 3; ++i) l.send(make_pkt(i + 1, 1000));
    faults.fail_link_at(l, sim_time{400}); // mid-first-packet

    net.sim().run_until(sim_time{1000000});
    EXPECT_FALSE(l.up());
    EXPECT_EQ(sink.arrivals, 1u); // the in-flight packet landed
    EXPECT_EQ(l.queue_depth_packets(), 2u);
    EXPECT_EQ(l.stats().dropped_down, 0u); // queued before the failure

    faults.repair_link_at(l, sim_time{2000000});
    net.sim().run();
    EXPECT_TRUE(l.up());
    EXPECT_EQ(sink.arrivals, 3u); // queue drained after repair
    EXPECT_EQ(l.stats().tx_packets, 3u);
    EXPECT_EQ(faults.stats().link_downs, 1u);
    EXPECT_EQ(faults.stats().link_ups, 1u);
}

TEST(fault_link, send_while_down_is_counted_dropped_down)
{
    network net(5);
    auto& sink = net.emplace<counting_sink>("sink");
    auto& src = net.add_host("src");
    const auto port = net.connect_simplex(src, sink, link_config{});
    auto& l = src.egress(port);

    l.set_up(false);
    for (int i = 0; i < 4; ++i) l.send(make_pkt(i + 1, 500));
    net.sim().run();
    EXPECT_EQ(sink.arrivals, 0u);
    EXPECT_EQ(l.stats().dropped_down, 4u);
    EXPECT_EQ(l.stats().dropped_down_bytes, 2000u);
    EXPECT_EQ(l.queue_depth_packets(), 0u); // refused before the queue

    l.set_up(true);
    l.send(make_pkt(9, 500));
    net.sim().run();
    EXPECT_EQ(sink.arrivals, 1u);
}

TEST(fault_link, corruption_burst_overrides_then_restores_ber)
{
    network net(17);
    auto& sink = net.emplace<corruption_sink>("sink");
    auto& src = net.add_host("src");
    link_config cfg;
    cfg.rate = data_rate::from_gbps(10);
    cfg.propagation = sim_duration{100};
    const auto port = net.connect_simplex(src, sink, cfg);
    auto& l = src.egress(port);

    fault_scheduler faults(net.sim());
    // BER high enough that every 1000 B packet inside the window is
    // corrupted (per-packet prob = min(1, ber * bits) = 1).
    faults.corruption_burst(l, sim_time{100000}, sim_duration{100000}, 1.0);

    // One packet before, several inside, one after the window.
    auto send_at = [&](std::int64_t at_ns, std::uint64_t id) {
        net.sim().schedule_at(sim_time{at_ns}, [&l, id] { l.send(make_pkt(id, 1000)); });
    };
    send_at(10000, 1);
    for (std::int64_t i = 0; i < 5; ++i) send_at(120000 + i * 2000, 10 + i);
    send_at(300000, 2);
    net.sim().run();

    EXPECT_EQ(sink.arrivals, 7u);
    EXPECT_EQ(sink.corrupted, 5u); // exactly the burst-window packets
    EXPECT_EQ(l.config().bit_error_rate, 0.0); // restored
    EXPECT_EQ(faults.stats().corruption_bursts, 1u);
}

// ------------------------------------------------------- node blackout

// Blackout gates ingress only: arriving packets are dropped and counted,
// while packets already queued on the node's own egress links keep
// draining (a powered-off host's last DMA burst is already in the NIC).
TEST(fault_node, blackout_drops_ingress_but_egress_drains)
{
    network net(9);
    auto& mid = net.emplace<counting_sink>("mid");
    auto& far = net.emplace<counting_sink>("far");
    auto& src = net.add_host("src");
    link_config slow;
    slow.rate = data_rate{8ull * 1000 * 1000}; // 1 ms per 1000 B packet
    const auto to_mid = net.connect_simplex(src, mid, link_config{});
    const auto to_far = net.connect_simplex(mid, far, slow);

    // Queue three packets on mid's egress, then power mid off while they
    // are still draining; also keep sending toward mid while it is dark.
    for (int i = 0; i < 3; ++i) mid.egress(to_far).send(make_pkt(i + 1, 1000));
    fault_scheduler faults(net.sim());
    faults.blackout_window(mid, sim_time{500000}, sim_duration{5000000});
    for (int i = 0; i < 4; ++i) {
        net.sim().schedule_at(sim_time{1000000 + i * 100000}, [&src, to_mid, i] {
            src.egress(to_mid).send(make_pkt(100 + i, 1000));
        });
    }
    net.sim().run();

    EXPECT_EQ(far.arrivals, 3u);          // egress kept draining
    EXPECT_EQ(mid.blackout_dropped(), 4u); // ingress gated
    EXPECT_EQ(mid.arrivals, 0u);
    EXPECT_EQ(faults.stats().node_blackouts, 1u);
    EXPECT_EQ(faults.stats().node_restores, 1u);

    // Restored: ingress works again.
    src.egress(to_mid).send(make_pkt(200, 1000));
    net.sim().run();
    EXPECT_EQ(mid.arrivals, 1u);
    EXPECT_EQ(mid.blackout_dropped(), 4u);
}

// -------------------------------------------------- flap determinism

namespace {

/// One seeded run of a flap storm + corruption burst over a lossy link;
/// returns every externally observable number.
auto run_flap_storm(std::uint64_t seed)
{
    network net(seed);
    auto& sink = net.emplace<corruption_sink>("sink");
    auto& src = net.add_host("src");
    link_config cfg;
    cfg.rate = data_rate::from_gbps(10);
    cfg.propagation = 2_us;
    cfg.drop_probability = 0.1;
    const auto port = net.connect_simplex(src, sink, cfg);
    auto& l = src.egress(port);

    fault_scheduler faults(net.sim());
    faults.flap_link(l, sim_time{100000}, sim_duration{150000}, sim_duration{250000}, 4);
    faults.corruption_burst(l, sim_time{700000}, sim_duration{200000}, 1e-5);

    for (std::int64_t i = 0; i < 2000; ++i) {
        net.sim().schedule_at(sim_time{i * 1000},
                              [&l, i] { l.send(make_pkt(i + 1, 1000)); });
    }
    net.sim().run();

    const auto& ls = l.stats();
    const auto& qs = l.queue_statistics();
    return std::make_tuple(sink.arrivals, sink.corrupted, ls.tx_packets, ls.tx_bytes,
                           ls.dropped_random, ls.dropped_down, ls.dropped_down_bytes,
                           ls.corrupted, ls.busy.ns, qs.enqueued, qs.dequeued,
                           qs.dropped, net.sim().now().ns);
}

} // namespace

// Two identical seeded runs of a flap storm must agree on every counter
// and on the final simulation clock — faults are engine events, so a
// fault scenario is exactly as reproducible as a fault-free one.
TEST(fault_determinism, flap_storm_identical_across_runs)
{
    const auto a = run_flap_storm(1234);
    const auto b = run_flap_storm(1234);
    EXPECT_EQ(a, b);

    // Sanity: the storm actually bit — both drop classes occurred.
    EXPECT_GT(std::get<5>(a), 0u); // dropped_down
    EXPECT_GT(std::get<4>(a), 0u); // dropped_random
    EXPECT_GT(std::get<0>(a), 0u); // and traffic still got through
}

// --------------------------------------------- failure-aware planner

TEST(fault_planner, reroute_releases_and_readmits_budgets_exactly)
{
    control::capacity_planner p;
    p.register_link("daq", data_rate::from_gbps(100));
    p.register_link("wan-a", data_rate::from_gbps(10));
    p.register_link("wan-b", data_rate::from_gbps(10));

    const auto rate = data_rate::from_gbps(8);
    const auto flow = p.admit({"daq", "wan-a"}, rate);
    ASSERT_TRUE(flow.has_value());
    ASSERT_TRUE(p.register_backup_path(*flow, {"daq", "wan-b"}));
    EXPECT_EQ(p.committed("wan-a").bits_per_sec, rate.bits_per_sec);
    EXPECT_EQ(p.committed("wan-b").bits_per_sec, 0u);

    std::vector<std::pair<control::flow_id, bool>> events;
    p.set_reroute_handler([&](const control::admission& f, bool ok) {
        events.push_back({f.id, ok});
    });

    p.handle_link_down("wan-a");
    // Old path fully released, backup path fully committed — exactly once.
    EXPECT_EQ(p.committed("wan-a").bits_per_sec, 0u);
    EXPECT_EQ(p.committed("wan-b").bits_per_sec, rate.bits_per_sec);
    EXPECT_EQ(p.committed("daq").bits_per_sec, rate.bits_per_sec);
    EXPECT_EQ(p.available("wan-a").bits_per_sec, 0u); // down => nothing admittable
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0], (std::pair<control::flow_id, bool>{*flow, true}));
    ASSERT_NE(p.flow(*flow), nullptr);
    EXPECT_EQ(p.flow(*flow)->path, (std::vector<control::link_id>{"daq", "wan-b"}));
    EXPECT_EQ(p.stats().flows_rerouted, 1u);
    EXPECT_EQ(p.stats().flows_stranded, 0u);

    // Repair reopens the budget but does not move the flow back.
    p.handle_link_up("wan-a");
    EXPECT_GT(p.available("wan-a").bits_per_sec, 0u);
    EXPECT_EQ(p.flow(*flow)->path, (std::vector<control::link_id>{"daq", "wan-b"}));
    EXPECT_EQ(p.stats().link_repairs, 1u);

    // Admission control stayed intact throughout: no phantom commitments.
    p.release(*flow);
    EXPECT_EQ(p.committed("daq").bits_per_sec, 0u);
    EXPECT_EQ(p.committed("wan-b").bits_per_sec, 0u);
}

TEST(fault_planner, flow_strands_when_backup_has_no_room)
{
    control::capacity_planner p;
    p.register_link("wan-a", data_rate::from_gbps(10));
    p.register_link("wan-b", data_rate::from_gbps(10));

    // Fill the backup so the rerouted flow cannot fit.
    const auto squatter = p.admit({"wan-b"}, data_rate::from_gbps(6));
    ASSERT_TRUE(squatter.has_value());
    const auto victim = p.admit({"wan-a"}, data_rate::from_gbps(8));
    ASSERT_TRUE(victim.has_value());
    ASSERT_TRUE(p.register_backup_path(*victim, {"wan-b"}));

    std::vector<bool> outcomes;
    p.set_reroute_handler(
        [&](const control::admission&, bool ok) { outcomes.push_back(ok); });
    p.handle_link_down("wan-a");

    // Admission control held: the flow was evicted, not overbooked.
    EXPECT_EQ(outcomes, (std::vector<bool>{false}));
    EXPECT_EQ(p.flow(*victim), nullptr);
    EXPECT_EQ(p.committed("wan-a").bits_per_sec, 0u);
    EXPECT_EQ(p.committed("wan-b").bits_per_sec, data_rate::from_gbps(6).bits_per_sec);
    EXPECT_EQ(p.stats().flows_stranded, 1u);

    // And a down link rejects fresh admissions outright.
    EXPECT_FALSE(p.admit({"wan-a"}, data_rate::from_gbps(1)).has_value());
}

// ------------------------------------------------------ health monitor

TEST(fault_health, transitions_drive_planner_then_listeners)
{
    network net(3);
    auto& sink = net.emplace<counting_sink>("sink");
    auto& src = net.add_host("src");
    const auto port = net.connect_simplex(src, sink, link_config{});
    auto& l = src.egress(port);

    control::capacity_planner planner;
    planner.register_link("wan", data_rate::from_gbps(10));
    ASSERT_TRUE(planner.admit({"wan"}, data_rate::from_gbps(4)).has_value());

    control::health_monitor hm(net.sim(), planner);
    hm.watch("wan", l);

    std::vector<std::uint64_t> available_at_listener;
    hm.add_listener([&](const control::link_id& id, bool up, sim_time) {
        EXPECT_EQ(id, "wan");
        (void)up;
        // Listeners run after the planner: budgets already reflect the event.
        available_at_listener.push_back(planner.available("wan").bits_per_sec);
    });

    fault_scheduler faults(net.sim());
    faults.fail_link_at(l, sim_time{1000});
    faults.repair_link_at(l, sim_time{5000});
    net.sim().run();

    ASSERT_EQ(hm.history().size(), 2u);
    EXPECT_FALSE(hm.history()[0].up);
    EXPECT_EQ(hm.history()[0].at.ns, 1000);
    EXPECT_TRUE(hm.history()[1].up);
    EXPECT_EQ(hm.history()[1].at.ns, 5000);
    EXPECT_EQ(hm.stats().downs_observed, 1u);
    EXPECT_EQ(hm.stats().ups_observed, 1u);
    ASSERT_EQ(available_at_listener.size(), 2u);
    EXPECT_EQ(available_at_listener[0], 0u); // down: budget gone
    EXPECT_GT(available_at_listener[1], 0u); // repaired: budget back
}

// --------------------------------------------------- receiver backoff

// The n-th NAK retry waits base * 2^(n-1), capped: with base 3 ms and a
// 10 ms cap the gap between NAKs must run 3, 6, 10, 10 ms. The times are
// read off the buffer-side stack, so this also pins the check scheduler
// (wake-ups land exactly when a gap becomes due).
TEST(fault_receiver, nak_retries_back_off_exponentially_to_cap)
{
    network net(31);
    auto& src = net.add_host("src");
    auto& dst = net.add_host("dst");
    net.connect(src, dst, link_config{});
    net.compute_routes();
    stack s_src(src, net.ids());
    stack s_dst(dst, net.ids());

    std::vector<sim_time> nak_times;
    s_src.set_nak_handler([&](const wire::nak_body&, wire::experiment_id, wire::ipv4_addr) {
        nak_times.push_back(net.sim().now()); // observe, never answer
    });

    receiver_config rcfg;
    rcfg.timing.retry_base = 3_ms;
    rcfg.timing.retry_cap = 10_ms;
    rcfg.timing.max_attempts = 5;
    rcfg.timing.failover_attempts = 0; // no fallback in this rig
    receiver rx(s_dst, rcfg);

    // Sequences 0..9 with 5 missing; the buffer address points at src.
    for (std::uint64_t seq = 0; seq < 10; ++seq) {
        if (seq == 5) continue;
        wire::header h;
        h.experiment = wire::make_experiment_id(wire::experiments::iceberg, 0);
        h.m.set(wire::feature::sequencing).set(wire::feature::retransmission);
        h.sequencing = wire::sequencing_field{seq, 0};
        h.retransmission = wire::retransmission_field{src.address()};
        s_src.send_datagram(dst.address(), h, {}, 100);
    }
    net.sim().run();

    ASSERT_EQ(nak_times.size(), 5u); // max_nak_attempts, then give up
    const auto d1 = (nak_times[1] - nak_times[0]).ns;
    const auto d2 = (nak_times[2] - nak_times[1]).ns;
    const auto d3 = (nak_times[3] - nak_times[2]).ns;
    const auto d4 = (nak_times[4] - nak_times[3]).ns;
    EXPECT_EQ(d1, 3000000);  // base
    EXPECT_EQ(d2, 6000000);  // base * 2
    EXPECT_EQ(d3, 10000000); // base * 4 = 12 ms, capped at 10
    EXPECT_EQ(d4, 10000000); // stays at the cap
    EXPECT_EQ(rx.stats().nak_retries, 4u);
    EXPECT_EQ(rx.stats().given_up, 1u);
    EXPECT_EQ(rx.stats().buffer_failovers, 0u);
    EXPECT_EQ(rx.outstanding_gaps(), 0u); // abandoned gap was resolved
}

// ---------------------------------------------------- buffer failover

// The primary buffer suffers a blackout; after failover_attempts
// unanswered NAKs the stream retargets the fallback buffer (learned from
// the primary's advert) and recovers everything — given_up stays 0.
TEST(fault_receiver, nak_failover_to_secondary_buffer_after_blackout)
{
    network net(77);
    auto& primary = net.add_host("primary");
    auto& dst = net.add_host("dst");
    auto& secondary = net.add_host("secondary");
    link_config lossy;
    lossy.rate = data_rate::from_gbps(10);
    lossy.propagation = 500_us;
    lossy.drop_probability = 0.05;
    net.connect_simplex(primary, dst, lossy);
    link_config back = lossy;
    back.drop_probability = 0.0;
    net.connect_simplex(dst, primary, back);
    net.connect(dst, secondary, link_config{});
    net.compute_routes();

    stack s_primary(primary, net.ids());
    stack s_dst(dst, net.ids());
    stack s_secondary(secondary, net.ids());

    buffer_service_config pcfg;
    pcfg.next_hop = dst.address();
    pcfg.assign_sequence_locally = true;
    pcfg.secondary_buffer = secondary.address();
    buffer_service primary_svc(s_primary, pcfg);

    buffer_service_config scfg;
    scfg.tap_only = true;
    buffer_service secondary_svc(s_secondary, scfg);

    receiver_config rcfg;
    rcfg.timing.retry_base = 3_ms;
    rcfg.timing.max_attempts = 6;
    rcfg.timing.failover_attempts = 2;
    receiver rx(s_dst, rcfg);
    // The fallback address is learned from the primary's own advert.
    s_dst.set_advert_handler([&](const wire::buffer_advert_body& a) {
        if (a.secondary_addr != 0) rx.set_fallback_buffer(a.secondary_addr);
    });
    primary_svc.advertise(dst.address());

    // Feed both buffers the same stream; the primary relays it (lossily)
    // toward dst, the secondary only stores.
    constexpr std::uint64_t n = 400;
    for (std::uint64_t i = 0; i < n; ++i) {
        delivered_datagram d;
        d.hdr.experiment = wire::make_experiment_id(wire::experiments::iceberg, 0);
        d.hdr.m.set(wire::feature::timestamped);
        d.hdr.timestamp_ns = 0;
        d.total_payload_bytes = 1000;
        primary_svc.relay(d);
        secondary_svc.relay(d);
    }

    // Power the primary off before any NAK can reach it. Its egress
    // queue keeps draining (blackout gates ingress only), so the data
    // burst itself still crosses the lossy link.
    fault_scheduler faults(net.sim());
    faults.blackout_node(primary, sim_time{1000});
    net.sim().run();

    EXPECT_EQ(rx.fallback_buffer(), secondary.address());
    EXPECT_EQ(rx.stats().buffer_failovers, 1u);
    EXPECT_GT(rx.stats().nak_retries, 0u);
    EXPECT_EQ(rx.stats().given_up, 0u);
    EXPECT_EQ(rx.stats().datagrams, n); // everything delivered exactly once
    EXPECT_EQ(rx.outstanding_gaps(), 0u);
    EXPECT_GT(secondary_svc.stats().retransmitted, 0u);
    EXPECT_GT(primary.blackout_dropped(), 0u); // the ignored NAKs
    EXPECT_EQ(primary_svc.stats().nak_requests, 0u);
}

// ----------------------------------------------------- sender reroute

TEST(fault_sender, reroute_redirects_and_bumps_epoch)
{
    network net(13);
    auto& a = net.add_host("a");
    auto& b = net.add_host("b");
    auto& c = net.add_host("c");
    net.connect(a, b, link_config{});
    net.connect(a, c, link_config{});
    net.compute_routes();
    stack sa(a, net.ids());
    stack sb(b, net.ids());
    stack sc(c, net.ids());

    std::vector<std::uint16_t> b_epochs, c_epochs;
    sb.set_data_sink([&](delivered_datagram&& d) {
        ASSERT_TRUE(d.hdr.sequencing.has_value());
        b_epochs.push_back(d.hdr.sequencing->epoch);
    });
    sc.set_data_sink([&](delivered_datagram&& d) {
        ASSERT_TRUE(d.hdr.sequencing.has_value());
        c_epochs.push_back(d.hdr.sequencing->epoch);
    });

    sender_config cfg;
    cfg.origin_mode.set(wire::feature::sequencing);
    sender tx(sa, b.address(), cfg);

    daq::daq_message m;
    m.experiment = wire::make_experiment_id(wire::experiments::dune, 0);
    m.size_bytes = 500;
    tx.send_message(m);
    net.sim().run();

    tx.reroute(c.address()); // control plane moved the flow
    tx.send_message(m);
    net.sim().run();

    EXPECT_EQ(tx.stats().reroutes, 1u);
    EXPECT_EQ(tx.epoch(), 1u);
    EXPECT_EQ(b_epochs, (std::vector<std::uint16_t>{0})); // pre-reroute
    EXPECT_EQ(c_epochs, (std::vector<std::uint16_t>{1})); // post-reroute
}

// -------------------------------------------------- hook re-entrancy

// A lifecycle hook may clear its own node's hooks or register new ones
// while dispatch is walking the hook list — a restore hook re-arming the
// next storm window, a teardown hook removing itself. Dispatch iterating
// the live vector invalidated under either mutation; the contract is
// snapshot semantics: everything registered when the event fired runs
// exactly once, additions wait for the next event, removals do not abort
// the current round.
TEST(fault_hooks, mid_fire_clear_and_register_are_safe)
{
    network net(1);
    auto& n = net.add_host("dtn");
    fault_scheduler faults(net.sim());

    int first = 0, second = 0, late = 0;
    faults.on_blackout(n, [&] {
        first++;
        faults.clear_hooks(n); // drops BOTH registered blackout hooks mid-fire
    });
    faults.on_blackout(n, [&] {
        second++; // removal must not abort the round
        faults.on_blackout(n, [&] { late++; });
    });

    faults.blackout_node(n, sim_time{1000});
    faults.restore_node(n, sim_time{2000});
    net.sim().run();
    EXPECT_EQ(first, 1);
    EXPECT_EQ(second, 1);
    EXPECT_EQ(late, 0); // registered mid-fire: waits for the next blackout

    faults.blackout_node(n, sim_time{3000});
    net.sim().run();
    EXPECT_EQ(first, 1); // cleared: the original hooks never fire again
    EXPECT_EQ(second, 1);
    EXPECT_EQ(late, 1);
}

// A restore hook that clears a *different* node's hooks while that node
// has pending events must not disturb the current dispatch either.
TEST(fault_hooks, hook_may_clear_another_nodes_hooks)
{
    network net(2);
    auto& a = net.add_host("a");
    auto& b = net.add_host("b");
    fault_scheduler faults(net.sim());

    int a_fired = 0, b_fired = 0;
    faults.on_blackout(a, [&] {
        a_fired++;
        faults.clear_hooks(b);
    });
    faults.on_blackout(b, [&] { b_fired++; });

    // a blacks out first and disarms b's hooks before b's own blackout.
    faults.blackout_node(a, sim_time{1000});
    faults.blackout_node(b, sim_time{2000});
    net.sim().run();
    EXPECT_EQ(a_fired, 1);
    EXPECT_EQ(b_fired, 0);
    EXPECT_EQ(faults.stats().node_blackouts, 2u); // the event still fired
}

// ------------------------------------------------ duplication pruning

TEST(fault_duplication, remove_subscriber_stops_cloning)
{
    pnet::duplication_stage dup;
    dup.add_subscriber(7, 0x0a000001);
    dup.add_subscriber(7, 0x0a000002);
    EXPECT_EQ(dup.subscriber_count(7), 2u);

    EXPECT_TRUE(dup.remove_subscriber(7, 0x0a000001));
    EXPECT_EQ(dup.subscriber_count(7), 1u);
    EXPECT_FALSE(dup.remove_subscriber(7, 0x0a000001)); // already gone
    EXPECT_FALSE(dup.remove_subscriber(8, 0x0a000002)); // unknown stream
    EXPECT_TRUE(dup.remove_subscriber(7, 0x0a000002));
    EXPECT_EQ(dup.subscriber_count(7), 0u);
}
