// The sharded simulation engine: the scheduler seam, the barrier-
// synchronous control plane, epoch-boundary edge cases (zero-latency
// cuts rejected, mailbox ties broken by (arrival, shard, seq)), and
// whole-drill determinism at shards ∈ {1, 2, 4} — threaded or inline.
#include "netsim/network.hpp"
#include "netsim/shard.hpp"
#include "scenario/chaos.hpp"
#include "scenario/dsl.hpp"
#include "scenario/soak.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

using namespace mmtp;
using namespace mmtp::netsim;

namespace {

/// Records every delivery (time, packet id, ingress port) in order.
class sink_node : public node {
public:
    using node::node;

    struct arrival {
        std::int64_t at_ns;
        std::uint64_t id;
        unsigned port;
    };
    std::vector<arrival> arrivals;

    void receive(packet&& p, unsigned ingress_port) override
    {
        arrivals.push_back({sim().now().ns, p.id, ingress_port});
    }
};

packet make_packet(std::uint64_t id)
{
    packet p;
    p.id = id;
    return p;
}

} // namespace

// ------------------------------------------------- the scheduler seam

// Every component now schedules through scheduler&; the concrete engine
// must behave identically through the virtual seam.
TEST(scheduler_seam, engine_through_base_reference)
{
    engine eng;
    scheduler& sched = eng;

    std::vector<int> order;
    sched.schedule_at(sim_time{200}, [&] { order.push_back(2); });
    sched.schedule_at(sim_time{100}, [&] {
        order.push_back(1);
        // now() through the seam tracks the running event's time.
        EXPECT_EQ(sched.now().ns, 100);
    });
    sched.schedule_in(sim_duration{300}, task_class::control,
                      [&] { order.push_back(3); });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    // The task-class tag survived the type-erased hand-off.
    EXPECT_EQ(eng.profile().executed_by_class[static_cast<std::size_t>(
                  task_class::control)],
              1u);
}

TEST(scheduler_seam, cancellable_timers_through_base_reference)
{
    engine eng;
    scheduler& sched = eng;
    bool fired = false;
    auto h = sched.schedule_cancellable_in(sim_duration{500}, task_class::timer,
                                           [&] { fired = true; });
    EXPECT_TRUE(h.active());
    EXPECT_TRUE(sched.cancel(h));
    eng.run();
    EXPECT_FALSE(fired);
    // A stale handle cancels as a no-op.
    EXPECT_FALSE(sched.cancel(h));
}

// ------------------------------------------ the barrier control plane

TEST(barrier_scheduler, runs_tasks_in_time_then_schedule_order)
{
    barrier_scheduler ctl;
    std::vector<int> order;
    std::vector<std::int64_t> times;
    auto log = [&](int tag) {
        return [&, tag] {
            order.push_back(tag);
            times.push_back(ctl.now().ns);
        };
    };
    ctl.schedule_at(sim_time{300}, log(3));
    ctl.schedule_at(sim_time{100}, log(1));
    ctl.schedule_at(sim_time{100}, log(2)); // same instant: schedule order
    ctl.schedule_at(sim_time{900}, log(4));

    sim_time at;
    ASSERT_TRUE(ctl.peek(at));
    EXPECT_EQ(at.ns, 100);
    // Only tasks at <= limit run; now() is pinned to each task's time.
    EXPECT_EQ(ctl.run_due(sim_time{300}), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(times, (std::vector<std::int64_t>{100, 100, 300}));
    EXPECT_FALSE(ctl.empty());
    EXPECT_EQ(ctl.run_due(sim_time{1000}), 1u);
    EXPECT_TRUE(ctl.empty());
}

TEST(barrier_scheduler, cancellation_is_generation_checked)
{
    barrier_scheduler ctl;
    bool fired = false;
    auto h = ctl.schedule_cancellable_in(sim_duration{100}, task_class::timer,
                                         [&] { fired = true; });
    EXPECT_TRUE(ctl.cancel(h));
    EXPECT_FALSE(ctl.cancel(h)); // stale
    EXPECT_EQ(ctl.run_due(sim_time{1000}), 0u);
    EXPECT_FALSE(fired);
    EXPECT_TRUE(ctl.empty());
}

// A reserved number orders its task exactly as the engine's does: after
// tasks scheduled before the reservation, before those scheduled after.
TEST(barrier_scheduler, reserved_seq_keeps_its_insertion_position)
{
    barrier_scheduler ctl;
    std::vector<int> order;
    ctl.schedule_at(sim_time{100}, [&] { order.push_back(0); });
    const std::uint64_t seq = ctl.reserve_seq(1);
    ctl.schedule_at(sim_time{100}, [&] { order.push_back(2); });
    ctl.schedule_reserved(sim_time{100}, seq, task_class::control,
                          [&] { order.push_back(1); });
    EXPECT_EQ(ctl.run_due(sim_time{100}), 3u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// -------------------------------------------- epoch-boundary edge cases

// A cut link's propagation delay is the conservative lookahead; zero
// would let one shard inject events into another's running epoch.
TEST(shard_partition, zero_latency_cut_links_are_rejected)
{
    network net(1, /*shards=*/2);
    auto& a = net.add_host("a");
    net.set_domain(1);
    auto& b = net.add_host("b");

    link_config zero_prop;
    zero_prop.propagation = sim_duration{0};
    EXPECT_THROW(net.connect_simplex(a, b, zero_prop), std::invalid_argument);

    // The same config is fine within one shard...
    net.set_domain(0);
    auto& c = net.add_host("c");
    EXPECT_NO_THROW(net.connect_simplex(a, c, zero_prop));
    // ...and across the cut once it carries real delay.
    link_config with_prop;
    with_prop.propagation = sim_duration{1000};
    EXPECT_NO_THROW(net.connect_simplex(a, b, with_prop));
    EXPECT_EQ(net.coordinator().lookahead().ns, 1000);
}

// Mail staged by different shards for the same destination must be
// inserted in (arrival time, source shard, mailbox seq) order — the
// tie-break that makes sharded runs thread-interleaving-proof.
TEST(shard_mailboxes, ties_break_by_arrival_then_shard_then_seq)
{
    shard_coordinator coord(3);
    sink_node sink(coord.shard(0), "sink", 0x0a000001u, 0x02ull);

    // Stage deliberately out of order: a later shard first, then an
    // earlier shard twice at the same instant, then an earlier time.
    coord.post_arrival(2, 0, sim_time{100}, make_packet(21), sink, 4);
    coord.post_arrival(1, 0, sim_time{100}, make_packet(11), sink, 5);
    coord.post_arrival(1, 0, sim_time{100}, make_packet(12), sink, 6);
    coord.post_arrival(1, 0, sim_time{50}, make_packet(13), sink, 7);
    coord.run();

    ASSERT_EQ(sink.arrivals.size(), 4u);
    EXPECT_EQ(sink.arrivals[0].id, 13u); // earliest arrival first
    EXPECT_EQ(sink.arrivals[1].id, 11u); // then shard 1 before shard 2...
    EXPECT_EQ(sink.arrivals[2].id, 12u); // ...in mailbox-seq order
    EXPECT_EQ(sink.arrivals[3].id, 21u);
    EXPECT_EQ(sink.arrivals[0].at_ns, 50);
    EXPECT_EQ(sink.arrivals[3].at_ns, 100);
    EXPECT_EQ(coord.scaling().cross_shard_messages, 4u);
}

// Without cut links the lookahead is unbounded: the whole run is one
// epoch, which is also the single-shard degenerate case.
TEST(shard_epochs, no_cut_links_means_one_epoch)
{
    shard_coordinator coord(2);
    int fired = 0;
    coord.shard(0).schedule_at(sim_time{100}, [&] { fired++; });
    coord.shard(1).schedule_at(sim_time{200}, [&] { fired++; });
    coord.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(coord.scaling().epochs, 1u);
}

TEST(shard_epochs, cut_lookahead_bounds_epochs)
{
    scenario::chaos_config cfg;
    cfg.shards = 3;
    auto tb = scenario::make_chaos(cfg);
    tb->net.coordinator().run();
    const auto& sc = tb->net.coordinator().scaling();
    // The drill spans ~10 ms of virtual time with a 1 us lookahead:
    // conservative epochs must have advanced in many small steps, and
    // traffic crossed the cuts.
    EXPECT_GT(sc.epochs, 100u);
    EXPECT_GT(sc.cross_shard_messages, 0u);
}

// --------------------------------------------------- drill determinism

TEST(shard_determinism, chaos_identical_at_1_2_and_4_shards)
{
    for (unsigned shards : {1u, 2u, 4u}) {
        scenario::chaos_config cfg = scenario::kill_revive_config();
        cfg.shards = shards;
        const auto a = scenario::run_chaos_drill(cfg);
        const auto b = scenario::run_chaos_drill(cfg);
        EXPECT_EQ(a.csv, b.csv) << "shards=" << shards;
        EXPECT_EQ(a.metrics_csv, b.metrics_csv) << "shards=" << shards;
        // Sharding must not change what the drill proves, only where it
        // runs: the full kill-and-revive story stays green.
        EXPECT_TRUE(a.recovered) << "shards=" << shards;
        EXPECT_TRUE(a.recovered2) << "shards=" << shards;
        EXPECT_EQ(a.rx.given_up, 0u) << "shards=" << shards;
    }
}

TEST(shard_determinism, soak_identical_at_1_2_and_4_shards)
{
    for (unsigned shards : {1u, 2u, 4u}) {
        scenario::soak_config cfg = scenario::soak_smoke_config();
        cfg.shards = shards;
        const auto a = scenario::run_soak_drill(cfg);
        const auto b = scenario::run_soak_drill(cfg);
        EXPECT_EQ(a.csv, b.csv) << "shards=" << shards;
        EXPECT_EQ(a.metrics_csv, b.metrics_csv) << "shards=" << shards;
        EXPECT_TRUE(a.all_delivered) << "shards=" << shards;
        EXPECT_TRUE(a.all_experiments_complete) << "shards=" << shards;
    }
}

// The epoch algorithm and its results are identical whether shards run
// on worker threads or inline on the coordinator thread.
TEST(shard_determinism, threaded_and_inline_runs_are_identical)
{
    auto run_mode = [](bool threads) {
        scenario::chaos_config cfg = scenario::kill_revive_config();
        cfg.shards = 3;
        auto tb = scenario::make_chaos(cfg);
        tb->net.coordinator().set_threading(threads);
        tb->net.coordinator().run();
        auto r = scenario::summarize_chaos(*tb);
        return r.csv + r.metrics_csv + r.hop_timeline;
    };
    EXPECT_EQ(run_mode(false), run_mode(true));
}

// ------------------------------------------------- the DSL shards knob

TEST(shard_dsl, engine_section_sets_shards_everywhere)
{
    const auto out = scenario::parse_scenario("[scenario]\n"
                                              "topology = soak\n"
                                              "\n"
                                              "[engine]\n"
                                              "shards = 4\n");
    ASSERT_TRUE(out) << out.error.to_string();
    EXPECT_EQ(out.spec->shards(), 4u);
    EXPECT_EQ(out.spec->soak.shards, 4u);
}

TEST(shard_dsl, out_of_range_shards_fail_with_line_number)
{
    const auto out = scenario::parse_scenario("[scenario]\n"
                                              "topology = chaos\n"
                                              "[engine]\n"
                                              "shards = 65\n");
    EXPECT_FALSE(out);
    EXPECT_EQ(out.error.line, 4u);
    EXPECT_NE(out.error.message.find("shards"), std::string::npos);

    const auto zero = scenario::parse_scenario("[scenario]\n"
                                               "topology = chaos\n"
                                               "[engine]\n"
                                               "shards = 0\n");
    EXPECT_FALSE(zero);
    EXPECT_EQ(zero.error.line, 4u);
}

TEST(shard_dsl, render_parse_render_fixed_point_keeps_shards)
{
    scenario::scenario_spec spec;
    spec.topology = "chaos";
    spec.set_shards(2);
    const auto text = scenario::render_scenario(spec);
    EXPECT_NE(text.find("[engine]"), std::string::npos);
    EXPECT_NE(text.find("shards = 2"), std::string::npos);
    const auto parsed = scenario::parse_scenario(text);
    ASSERT_TRUE(parsed) << parsed.error.to_string();
    EXPECT_EQ(parsed.spec->shards(), 2u);
    EXPECT_EQ(scenario::render_scenario(*parsed.spec), text);
}
