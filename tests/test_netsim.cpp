// Unit tests for src/netsim: engine ordering, link timing/loss, the
// classic link path's reserved keys, queue disciplines, host demux and
// network routing.
#include "common/trace.hpp"
#include "netsim/engine.hpp"
#include "netsim/host.hpp"
#include "netsim/link.hpp"
#include "netsim/network.hpp"
#include "netsim/queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

using namespace mmtp;
using namespace mmtp::netsim;
using namespace mmtp::literals;

// ----------------------------------------------------------------- engine

TEST(engine, executes_in_time_order)
{
    engine e;
    std::vector<int> order;
    e.schedule_at(sim_time{300}, [&] { order.push_back(3); });
    e.schedule_at(sim_time{100}, [&] { order.push_back(1); });
    e.schedule_at(sim_time{200}, [&] { order.push_back(2); });
    e.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(e.now().ns, 300);
}

TEST(engine, same_time_fifo_order)
{
    engine e;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        e.schedule_at(sim_time{50}, [&order, i] { order.push_back(i); });
    e.run();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(engine, schedule_in_relative)
{
    engine e;
    sim_time seen{};
    e.schedule_in(5_us, [&] { seen = e.now(); });
    e.run();
    EXPECT_EQ(seen.ns, 5000);
}

TEST(engine, nested_scheduling)
{
    engine e;
    int hits = 0;
    std::function<void()> chain = [&] {
        if (++hits < 5) e.schedule_in(1_us, chain);
    };
    e.schedule_in(1_us, chain);
    e.run();
    EXPECT_EQ(hits, 5);
    EXPECT_EQ(e.now().ns, 5000);
}

TEST(engine, run_until_stops)
{
    engine e;
    int hits = 0;
    e.schedule_at(sim_time{100}, [&] { hits++; });
    e.schedule_at(sim_time{200}, [&] { hits++; });
    e.run_until(sim_time{150});
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(e.now().ns, 150);
    EXPECT_EQ(e.pending(), 1u);
    e.run();
    EXPECT_EQ(hits, 2);
}

TEST(engine, past_schedule_clamped_to_now)
{
    engine e;
    e.schedule_at(sim_time{100}, [&] {
        bool ran = false;
        e.schedule_at(sim_time{50}, [&ran] { ran = true; });
        // runs at now(), not in the past
    });
    e.run();
    EXPECT_EQ(e.now().ns, 100);
}

// reached(at, seq) tells whether dispatch has passed a key that was
// reserved and never scheduled.
TEST(engine, dispatch_position_orders_reserved_keys)
{
    engine e;
    const std::uint64_t before = e.reserve_seq(1);
    bool inside = false;
    e.schedule_at(sim_time{100}, [&] {
        inside = true;
        EXPECT_TRUE(e.reached(sim_time{100}, before));
        EXPECT_TRUE(e.reached(sim_time{99}, ~0ull));
        EXPECT_FALSE(e.reached(sim_time{101}, 0));
    });
    const std::uint64_t after = e.reserve_seq(1);
    e.schedule_at(sim_time{300}, [] {});
    EXPECT_FALSE(e.reached(sim_time{100}, before)); // set-up: nothing popped

    ASSERT_TRUE(e.step());
    EXPECT_TRUE(inside);
    // Between steps the position is the last key popped.
    EXPECT_TRUE(e.reached(sim_time{100}, before));
    EXPECT_FALSE(e.reached(sim_time{100}, after));

    // run_until(until) passes every key <= until, reserved ones included.
    e.run_until(sim_time{100});
    EXPECT_TRUE(e.reached(sim_time{100}, after));
    EXPECT_FALSE(e.reached(sim_time{101}, 0));
    e.run_until(sim_time{200});
    EXPECT_TRUE(e.reached(sim_time{200}, ~0ull));
    EXPECT_FALSE(e.reached(sim_time{300}, 0));
}

// ----------------------------------------------------------------- queues

static packet make_pkt(std::uint64_t id, std::uint64_t size)
{
    packet p;
    p.id = id;
    p.virtual_payload = size;
    return p;
}

TEST(drop_tail_queue, fifo_order_and_capacity)
{
    drop_tail_queue q(1000);
    EXPECT_TRUE(q.enqueue(make_pkt(1, 400)));
    EXPECT_TRUE(q.enqueue(make_pkt(2, 400)));
    EXPECT_FALSE(q.enqueue(make_pkt(3, 400))); // over capacity
    EXPECT_EQ(q.stats().dropped, 1u);
    EXPECT_EQ(q.byte_depth(), 800u);
    auto a = q.dequeue();
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->id, 1u);
    EXPECT_TRUE(q.enqueue(make_pkt(4, 400))); // room again
    EXPECT_EQ(q.dequeue()->id, 2u);
    EXPECT_EQ(q.dequeue()->id, 4u);
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(priority_queue_disc, strict_priority)
{
    // classify odd ids into band 0, even into band 1
    priority_queue_disc q(2, 10000, [](const packet& p) {
        return p.id % 2 == 1 ? 0u : 1u;
    });
    q.enqueue(make_pkt(2, 100));
    q.enqueue(make_pkt(4, 100));
    q.enqueue(make_pkt(1, 100));
    q.enqueue(make_pkt(3, 100));
    EXPECT_EQ(q.dequeue()->id, 1u);
    EXPECT_EQ(q.dequeue()->id, 3u);
    EXPECT_EQ(q.dequeue()->id, 2u);
    EXPECT_EQ(q.dequeue()->id, 4u);
}

TEST(priority_queue_disc, per_band_capacity)
{
    priority_queue_disc q(2, 150, [](const packet& p) { return p.id % 2 == 1 ? 0u : 1u; });
    EXPECT_TRUE(q.enqueue(make_pkt(1, 100)));
    EXPECT_FALSE(q.enqueue(make_pkt(3, 100))); // band 0 full
    EXPECT_TRUE(q.enqueue(make_pkt(2, 100)));  // band 1 has its own budget
    EXPECT_EQ(q.band_depth_bytes(0), 100u);
    EXPECT_EQ(q.band_depth_bytes(1), 100u);
}

// ----------------------------------------------------- link + host timing

namespace {

/// Minimal sink node that records arrivals.
class sink_node final : public node {
public:
    using node::node;
    void receive(packet&& p, unsigned) override
    {
        arrivals.push_back({eng_.now(), p.id, p.corrupted});
    }
    struct arrival {
        sim_time at;
        std::uint64_t id;
        bool corrupted;
    };
    std::vector<arrival> arrivals;
};

} // namespace

TEST(link, serialization_plus_propagation_timing)
{
    network net(1);
    auto& sink = net.emplace<sink_node>("sink");
    auto& src = net.add_host("src");
    link_config cfg;
    cfg.rate = data_rate::from_gbps(10); // 0.8 ns per byte
    cfg.propagation = 2_us;
    const auto port = net.connect_simplex(src, sink, cfg);

    packet p = make_pkt(7, 1250); // 1 us serialization at 10 Gbps
    src.egress(port).send(std::move(p));
    net.sim().run();
    ASSERT_EQ(sink.arrivals.size(), 1u);
    EXPECT_EQ(sink.arrivals[0].at.ns, 1000 + 2000);
}

TEST(link, back_to_back_packets_serialize_sequentially)
{
    network net(1);
    auto& sink = net.emplace<sink_node>("sink");
    auto& src = net.add_host("src");
    link_config cfg;
    cfg.rate = data_rate::from_gbps(10);
    cfg.propagation = sim_duration::zero();
    const auto port = net.connect_simplex(src, sink, cfg);

    src.egress(port).send(make_pkt(1, 1250));
    src.egress(port).send(make_pkt(2, 1250));
    net.sim().run();
    ASSERT_EQ(sink.arrivals.size(), 2u);
    EXPECT_EQ(sink.arrivals[0].at.ns, 1000);
    EXPECT_EQ(sink.arrivals[1].at.ns, 2000); // waited for the first
}

TEST(link, mtu_enforced)
{
    network net(1);
    auto& sink = net.emplace<sink_node>("sink");
    auto& src = net.add_host("src");
    const auto port = net.connect_simplex(src, sink, link_config{});
    src.egress(port).send(make_pkt(1, link_mtu + 1));
    src.egress(port).send(make_pkt(2, link_mtu)); // the boundary passes
    net.sim().run();
    ASSERT_EQ(sink.arrivals.size(), 1u);
    EXPECT_EQ(src.egress(port).stats().dropped_oversize, 1u);
}

TEST(link, random_drop_rate_approximate)
{
    network net(99);
    auto& sink = net.emplace<sink_node>("sink");
    auto& src = net.add_host("src");
    link_config cfg;
    cfg.rate = data_rate::from_gbps(100);
    cfg.drop_probability = 0.2;
    cfg.queue_capacity_bytes = 1ull << 30;
    const auto port = net.connect_simplex(src, sink, cfg);
    const int n = 5000;
    for (int i = 0; i < n; ++i) src.egress(port).send(make_pkt(i, 100));
    net.sim().run();
    const double delivered = static_cast<double>(sink.arrivals.size()) / n;
    EXPECT_NEAR(delivered, 0.8, 0.03);
}

TEST(link, corruption_marks_but_delivers)
{
    network net(5);
    auto& sink = net.emplace<sink_node>("sink");
    auto& src = net.add_host("src");
    link_config cfg;
    cfg.bit_error_rate = 1e-5; // 8000-bit packet -> ~8% corruption
    cfg.queue_capacity_bytes = 1ull << 30;
    const auto port = net.connect_simplex(src, sink, cfg);
    const int n = 3000;
    for (int i = 0; i < n; ++i) src.egress(port).send(make_pkt(i, 1000));
    net.sim().run();
    EXPECT_EQ(sink.arrivals.size(), static_cast<std::size_t>(n)); // all delivered
    std::size_t corrupted = 0;
    for (const auto& a : sink.arrivals)
        if (a.corrupted) corrupted++;
    EXPECT_NEAR(static_cast<double>(corrupted) / n, 0.077, 0.03);
}

// --------------------------------------- classic link path: reserved keys
//
// A classic link keeps its serializer's horizon as the key its free event
// would have had, and its arrivals in an in-flight FIFO whose head alone
// has an engine key. These tests pin the timelines the per-packet events
// produced, derived by hand from the (time, seq) order.

namespace {

/// The link's trace records as "at kind [id]" joined by "; ", e.g.
/// "0 enq 1; 0 deq 1; 500 down; 1500 up; 1500 deq 2".
std::string link_timeline(const trace::flight_recorder& rec)
{
    std::string out;
    for (const auto& r : rec.events()) {
        const char* kind = nullptr;
        switch (r.kind) {
        case trace::hop::link_enqueue: kind = "enq"; break;
        case trace::hop::link_dequeue: kind = "deq"; break;
        case trace::hop::link_down: kind = "down"; break;
        case trace::hop::link_up: kind = "up"; break;
        default: continue;
        }
        if (!out.empty()) out += "; ";
        out += std::to_string(r.at_ns);
        out += ' ';
        out += kind;
        if (r.packet_id != 0) {
            out += ' ';
            out += std::to_string(r.packet_id);
        }
    }
    return out;
}

/// One 10 Gbps link src -> sink: a 1250-byte packet serializes in 1 us.
struct one_link {
    explicit one_link(sim_duration propagation, double drop_probability = 0.0)
    {
        link_config cfg;
        cfg.rate = data_rate::from_gbps(10);
        cfg.propagation = propagation;
        cfg.drop_probability = drop_probability;
        port = net.connect_simplex(src, sink, cfg);
    }
    netsim::link& egress() { return src.egress(port); }
    engine& sim() { return net.sim(); }
    void send(std::uint64_t id) { egress().send(make_pkt(id, 1250)); }
    std::uint64_t events(task_class c)
    {
        return sim().profile().executed_by_class[static_cast<std::size_t>(c)];
    }
    /// Arrivals as "at id" joined by "; ".
    std::string arrivals() const
    {
        std::string out;
        for (const auto& a : sink.arrivals) {
            if (!out.empty()) out += "; ";
            out += std::to_string(a.at.ns);
            out += ' ';
            out += std::to_string(a.id);
        }
        return out;
    }

    network net{1};
    sink_node& sink = net.emplace<sink_node>("sink");
    host& src = net.add_host("src");
    unsigned port{0};
};

} // namespace

// p1 leaves at t=0, so the serializer's horizon is t=1000 under the seq
// its free event would have taken. A send at exactly t=1000 queues when
// its event's key sorts before the horizon and cuts through after it.
TEST(link, send_at_the_horizon_queues_or_cuts_through_by_key_order)
{
    {
        // Scheduled before p1's transmit: both senders' keys sort before
        // the horizon, so p2 and p3 queue and p2 leaves at the kick.
        one_link t(500_ns);
        trace::flight_recorder rec;
        trace::scoped_recorder in(rec);
        t.sim().schedule_at(sim_time{1000}, [&] { t.send(2); });
        t.sim().schedule_at(sim_time{1000}, [&] { t.send(3); });
        t.send(1);
        t.sim().run();
        EXPECT_EQ(link_timeline(rec),
                  "0 enq 1; 0 deq 1; 1000 enq 2; 1000 enq 3; 1000 deq 2; 2000 deq 3");
        EXPECT_EQ(t.arrivals(), "1500 1; 2500 2; 3500 3");
        EXPECT_EQ(t.events(task_class::link_tx), 2u); // kicks at 1000 and 2000
        EXPECT_EQ(t.egress().queue_statistics().peak_bytes, 2500u);
    }
    {
        // Scheduled after p1's transmit: the sender's key sorts after the
        // horizon, so p2 cuts through and only p3 waits for a kick.
        one_link t(500_ns);
        trace::flight_recorder rec;
        trace::scoped_recorder in(rec);
        t.send(1);
        t.sim().schedule_at(sim_time{1000}, [&] {
            t.send(2);
            t.send(3);
        });
        t.sim().run();
        EXPECT_EQ(link_timeline(rec),
                  "0 enq 1; 0 deq 1; 1000 enq 2; 1000 deq 2; 1000 enq 3; 2000 deq 3");
        EXPECT_EQ(t.arrivals(), "1500 1; 2500 2; 3500 3");
        EXPECT_EQ(t.events(task_class::link_tx), 1u); // the kick at 2000
        EXPECT_EQ(t.egress().queue_statistics().peak_bytes, 1250u);
    }
}

// Outside dispatch a send sees the serializer busy exactly when its free
// event would not have run yet: before every key run_until() stopped
// past, after the last key step() popped, or, once run() drains, before
// every key <= now().
TEST(link, sends_from_outside_dispatch_see_where_the_engine_stopped)
{
    struct probe {
        sim_time stop;
        std::size_t queued;
        const char* trace;
        const char* arrivals;
        std::uint64_t kicks;
    };
    const probe probes[] = {
        // Stopped before the horizon: p2 queues and leaves at the kick.
        {sim_time{999}, 1, "0 enq 1; 0 deq 1; 999 enq 2; 1000 deq 2", "1500 1; 2500 2", 1},
        // Stopped at it: every key <= 1000 has run, so p2 cuts through.
        {sim_time{1000}, 0, "0 enq 1; 0 deq 1; 1000 enq 2; 1000 deq 2", "1500 1; 2500 2", 0},
        // Stopped past it, before p1 arrives.
        {sim_time{1200}, 0, "0 enq 1; 0 deq 1; 1200 enq 2; 1200 deq 2", "1500 1; 2700 2", 0},
    };
    for (const auto& p : probes) {
        SCOPED_TRACE(p.stop.ns);
        one_link t(500_ns);
        trace::flight_recorder rec;
        trace::scoped_recorder in(rec);
        t.send(1);
        t.sim().run_until(p.stop);
        t.send(2);
        EXPECT_EQ(t.egress().queue_depth_packets(), p.queued);
        t.sim().run();
        EXPECT_EQ(link_timeline(rec), p.trace);
        EXPECT_EQ(t.arrivals(), p.arrivals);
        EXPECT_EQ(t.events(task_class::link_tx), p.kicks);
    }
    {
        // step() pops a t=1000 event whose key sorts before the horizon:
        // the free event would still be pending, so p2 queues.
        one_link t(500_ns);
        trace::flight_recorder rec;
        trace::scoped_recorder in(rec);
        t.sim().schedule_at(sim_time{1000}, [] {});
        t.send(1);
        ASSERT_TRUE(t.sim().step());
        ASSERT_EQ(t.sim().now().ns, 1000);
        t.send(2);
        EXPECT_EQ(t.egress().queue_depth_packets(), 1u);
        t.sim().run();
        EXPECT_EQ(link_timeline(rec), "0 enq 1; 0 deq 1; 1000 enq 2; 1000 deq 2");
        EXPECT_EQ(t.arrivals(), "1500 1; 2500 2");
        EXPECT_EQ(t.events(task_class::link_tx), 1u);
    }
    {
        // Zero propagation: p1's arrival shares its time with the horizon
        // and sorts before it. After run() drains, p2 cuts through.
        one_link t(0_ns);
        trace::flight_recorder rec;
        trace::scoped_recorder in(rec);
        t.send(1);
        t.sim().run();
        ASSERT_EQ(t.sim().now().ns, 1000);
        t.send(2);
        EXPECT_EQ(t.egress().queue_depth_packets(), 0u);
        t.sim().run();
        EXPECT_EQ(link_timeline(rec), "0 enq 1; 0 deq 1; 1000 enq 2; 1000 deq 2");
        EXPECT_EQ(t.arrivals(), "1000 1; 2000 2");
        EXPECT_EQ(t.events(task_class::link_tx), 0u);
    }
    {
        // A reserved key never moves now(). p1 is lost on the wire, so no
        // event reaches its horizon at 1000 and run() leaves now() at 0,
        // where the free event used to move it to 1000. p2, sent from
        // outside, waits for the kick at the horizon: it still leaves at
        // 1000, but it is admitted at 0, not 1000.
        one_link t(500_ns, 1.0);
        trace::flight_recorder rec;
        trace::scoped_recorder in(rec);
        t.send(1);
        t.sim().run();
        EXPECT_EQ(t.sim().now().ns, 0);
        t.send(2);
        EXPECT_EQ(t.egress().queue_depth_packets(), 1u);
        t.sim().run();
        EXPECT_EQ(t.sim().now().ns, 1000);
        EXPECT_EQ(link_timeline(rec), "0 enq 1; 0 deq 1; 0 enq 2; 1000 deq 2");
        EXPECT_EQ(t.arrivals(), "");
        EXPECT_EQ(t.egress().stats().dropped_random, 2u);
    }
}

// p2 and p3 wait behind p1 while the link goes down and comes back up.
// p1 is on the wire and arrives. A kick that finds the link down does
// nothing; repair starts the serializer at once when it is free, and
// leaves it to the pending kick when it is not.
TEST(link, down_and_up_while_packets_wait_behind_the_horizon)
{
    struct flap {
        sim_time down, up;
        const char* trace;
        const char* arrivals;
    };
    const flap flaps[] = {
        // Down across the horizon: the kick at 1000 finds the link down.
        {sim_time{500}, sim_time{1500},
         "0 enq 1; 0 deq 1; 0 enq 2; 0 enq 3; 500 down; 1500 up; 1500 deq 2; 2500 deq 3",
         "1500 1; 3000 2; 4000 3"},
        // Up again before the horizon: the pending kick starts p2.
        {sim_time{200}, sim_time{700},
         "0 enq 1; 0 deq 1; 0 enq 2; 0 enq 3; 200 down; 700 up; 1000 deq 2; 2000 deq 3",
         "1500 1; 2500 2; 3500 3"},
        // Up at the horizon from an event whose key sorts before it.
        {sim_time{200}, sim_time{1000},
         "0 enq 1; 0 deq 1; 0 enq 2; 0 enq 3; 200 down; 1000 up; 1000 deq 2; 2000 deq 3",
         "1500 1; 2500 2; 3500 3"},
    };
    for (const auto& f : flaps) {
        SCOPED_TRACE(f.up.ns);
        one_link t(500_ns);
        trace::flight_recorder rec;
        trace::scoped_recorder in(rec);
        netsim::link& l = t.egress();
        t.sim().schedule_at(f.down, [&] { l.set_up(false); });
        t.sim().schedule_at(f.up, [&] { l.set_up(true); });
        t.send(1);
        t.send(2);
        t.send(3);
        t.sim().run();
        EXPECT_EQ(link_timeline(rec), f.trace);
        EXPECT_EQ(t.arrivals(), f.arrivals);
        EXPECT_EQ(t.events(task_class::link_tx), 2u);
        EXPECT_EQ(l.stats().tx_packets, 3u);
        EXPECT_TRUE(l.up());
    }
}

// A 1 ms link carrying 100 back-to-back packets holds one arrival key for
// all of them. Each arrival keeps the key it had as its own event: a
// same-instant event scheduled before the packet's transmit runs before
// the arrival, and one scheduled after the transmit runs after it.
TEST(link, long_link_holds_one_arrival_key_and_keeps_same_instant_order)
{
    one_link t(1_ms);
    engine& e = t.sim();
    // p_k leaves at (k-1) us and arrives at 1 ms + k us; p50 at 1,050 us.
    const sim_time p50_arrival{1'050'000};
    std::size_t seen_before = 0, seen_after = 0;
    e.schedule_at(p50_arrival, [&] { seen_before = t.sink.arrivals.size(); });
    e.schedule_at(sim_time{60'000}, [&] { // p50 left at 49 us
        e.schedule_at(p50_arrival, [&] { seen_after = t.sink.arrivals.size(); });
    });
    for (std::uint64_t id = 1; id <= 100; ++id) t.send(id);

    std::size_t peak = 0;
    sim_time next;
    while (e.next_event_at(next) && next.ns <= 100'000) {
        e.step();
        peak = std::max(peak, e.pending());
    }
    ASSERT_EQ(t.egress().stats().tx_packets, 100u);
    ASSERT_TRUE(t.sink.arrivals.empty());
    // All 100 packets in flight: one arrival key, plus the two markers.
    EXPECT_EQ(e.pending(), 3u);
    // Sending: the arrival head, the kick and both markers.
    EXPECT_EQ(peak, 4u);

    while (e.step()) peak = std::max(peak, e.pending());
    ASSERT_EQ(t.sink.arrivals.size(), 100u);
    for (std::uint64_t k = 1; k <= 100; ++k) {
        EXPECT_EQ(t.sink.arrivals[k - 1].id, k);
        EXPECT_EQ(t.sink.arrivals[k - 1].at.ns, 1'000'000 + static_cast<std::int64_t>(k) * 1000);
    }
    EXPECT_EQ(seen_before, 49u);
    EXPECT_EQ(seen_after, 50u);
    EXPECT_EQ(t.events(task_class::link_arrival), 100u);
    EXPECT_EQ(t.events(task_class::link_tx), 99u); // one kick per queued packet
    EXPECT_EQ(peak, 4u);
}

// ------------------------------------------------------- host + routing

TEST(host, corrupted_packets_dropped_at_host)
{
    network net(1);
    auto& a = net.add_host("a");
    auto& b = net.add_host("b");
    net.connect(a, b, link_config{});
    net.compute_routes();

    packet p = a.make_ipv4_packet(200, b.address());
    p.corrupted = true;
    // deliver directly (bypassing the link's corruption process)
    b.receive(std::move(p), 0);
    EXPECT_EQ(b.drops().corrupted, 1u);
}

TEST(host, protocol_demux_and_not_mine)
{
    network net(1);
    auto& a = net.add_host("a");
    auto& b = net.add_host("b");
    net.connect(a, b, link_config{});
    net.compute_routes();

    int got = 0;
    b.set_protocol_handler(111, [&](packet&&, const wire::ipv4_header& ip, std::size_t) {
        got++;
        EXPECT_EQ(ip.protocol, 111);
    });

    auto p = a.make_ipv4_packet(111, b.address());
    a.send_ipv4(std::move(p), b.address());
    // a packet not addressed to b
    auto p2 = a.make_ipv4_packet(111, 0x01020304);
    a.send_ipv4(std::move(p2), b.address()); // force out same port
    net.sim().run();
    EXPECT_EQ(got, 1);
    EXPECT_EQ(b.drops().not_mine, 1u);

    // unclaimed protocol
    auto p3 = a.make_ipv4_packet(222, b.address());
    a.send_ipv4(std::move(p3), b.address());
    net.sim().run();
    EXPECT_EQ(b.drops().unclaimed, 1u);
}

TEST(host, unroutable_counted)
{
    network net(1);
    auto& a = net.add_host("a");
    auto p = a.make_ipv4_packet(6, 0x0a0000ff);
    a.send_ipv4(std::move(p), 0x0a0000ff);
    EXPECT_EQ(a.drops().unroutable, 1u);
}

TEST(network, shortest_path_routing_across_chain)
{
    network net(1);
    auto& a = net.add_host("a");
    auto& m1 = net.emplace<sink_node>("m1"); // not used for forwarding here
    (void)m1;
    auto& b = net.add_host("b");
    auto& c = net.add_host("c");
    net.connect(a, b, link_config{});
    net.connect(b, c, link_config{});
    net.compute_routes();

    // a reaches c via b (port toward b)
    EXPECT_NE(a.route(c.address()), no_port);
    EXPECT_EQ(a.route(c.address()), a.route(b.address()));
    EXPECT_EQ(a.route(0xdeadbeef), no_port);
}

TEST(network, addresses_unique_and_resolvable)
{
    network net(1);
    auto& a = net.add_host("a");
    auto& b = net.add_host("b");
    EXPECT_NE(a.address(), b.address());
    EXPECT_EQ(net.find("a"), &a);
    EXPECT_EQ(net.find_addr(b.address()), &b);
    EXPECT_EQ(net.find("zzz"), nullptr);
}
