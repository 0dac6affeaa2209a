// Regression tests pinned to the zero-copy engine rework: deterministic
// event ordering across the heap/slab replacement, timer cancellation
// (handles, stats, reaping), per-band queue drop accounting, and link
// stats reconciliation after the tx/loss split.
// These lock in observable behaviour the rest of the repo (and every
// seeded integration run) depends on.
#include "common/inline_task.hpp"
#include "netsim/engine.hpp"
#include "netsim/fault.hpp"
#include "netsim/network.hpp"
#include "netsim/queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

using namespace mmtp;
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

/// Minimal sink node that counts arrivals.
class counting_sink final : public node {
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

// -------------------------------------------------- engine determinism

// Events scheduled for the same instant must run in insertion order even
// when interleaved with earlier/later timestamps. This pins the (time,
// seq) contract the d-ary heap must honour despite not being a stable
// structure on its own.
TEST(engine_determinism, same_timestamp_keeps_insertion_order)
{
    engine e;
    std::vector<int> order;
    // Interleave three timestamps so heap sifts cross same-time groups.
    for (int i = 0; i < 32; ++i) {
        e.schedule_at(sim_time{200}, [&order, i] { order.push_back(200 + i); });
        e.schedule_at(sim_time{100}, [&order, i] { order.push_back(100 + i); });
        e.schedule_at(sim_time{300}, [&order, i] { order.push_back(300 + i); });
    }
    e.run();
    ASSERT_EQ(order.size(), 96u);
    for (int i = 0; i < 32; ++i) {
        EXPECT_EQ(order[i], 100 + i);
        EXPECT_EQ(order[32 + i], 200 + i);
        EXPECT_EQ(order[64 + i], 300 + i);
    }
}

// A callback that schedules at the current instant runs after everything
// already queued for that instant (its seq is larger), in this same run.
TEST(engine_determinism, reentrant_same_time_runs_last)
{
    engine e;
    std::vector<int> order;
    e.schedule_at(sim_time{10}, [&] {
        order.push_back(0);
        e.schedule_at(sim_time{10}, [&] { order.push_back(2); });
    });
    e.schedule_at(sim_time{10}, [&] { order.push_back(1); });
    e.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(e.now().ns, 10);
}

// run_until is inclusive: events at exactly `until` execute.
TEST(engine_determinism, run_until_executes_events_at_boundary)
{
    engine e;
    int hits = 0;
    e.schedule_at(sim_time{1000}, [&] { hits++; });
    e.schedule_at(sim_time{1001}, [&] { hits += 100; });
    EXPECT_EQ(e.run_until(sim_time{1000}), 1u);
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(e.now().ns, 1000);
    EXPECT_EQ(e.pending(), 1u);
}

// When the queue drains before `until`, the clock still advances to
// `until` — callers rely on this to stitch consecutive run_until calls.
TEST(engine_determinism, run_until_advances_clock_when_idle)
{
    engine e;
    e.schedule_at(sim_time{5}, [] {});
    e.run_until(sim_time{700});
    EXPECT_EQ(e.now().ns, 700);
    EXPECT_TRUE(e.empty());
}

// The slab recycles slots through a free list; hammer schedule/run cycles
// to make sure recycled slots never reorder or lose events.
TEST(engine_determinism, slot_recycling_preserves_order)
{
    engine e;
    std::uint64_t executed = 0;
    std::uint64_t last = 0;
    for (int round = 0; round < 50; ++round) {
        for (std::uint64_t i = 0; i < 100; ++i) {
            const std::uint64_t tag = round * 100 + i;
            e.schedule_in(sim_duration{static_cast<std::int64_t>(i % 7)},
                          [&, tag] { executed++; last = tag; });
        }
        e.run();
    }
    EXPECT_EQ(executed, 5000u);
    // Final event of the final round: the largest delay (6 ns) with the
    // highest insertion index i satisfying i % 7 == 6, i.e. i == 97.
    EXPECT_EQ(last, 4997u);
}

// The engine's hottest closure shape (this-pointer + moved packet) must
// stay within inline_task's buffer — compile-time guard against capture
// growth silently reintroducing per-event allocations.
TEST(engine_determinism, hot_closures_stay_inline)
{
    packet p = make_pkt(1, 1000);
    auto arrival = [q = std::move(p), n = (void*)nullptr]() mutable { (void)q; };
    static_assert(inline_task::stored_inline<decltype(arrival)>);
    SUCCEED();
}

// Events of different task classes scheduled for identical instants must
// fire in global insertion order: the class is a profiling tag only.
TEST(engine_determinism, mixed_task_classes_keep_insertion_order)
{
    engine e;
    std::vector<int> order;
    int tag = 0;
    for (int i = 0; i < 40; ++i) {
        const sim_duration at{1000 + (i % 5) * 3000};
        const auto cls = (i % 2 == 0) ? task_class::timer : task_class::generic;
        const int t = tag++;
        e.schedule_in(at, cls, [&order, t] { order.push_back(t); });
    }
    e.run();

    ASSERT_EQ(order.size(), 40u);
    // Reference: stable sort of (time, insertion index).
    std::vector<int> expect(40);
    for (int i = 0; i < 40; ++i) expect[static_cast<std::size_t>(i)] = i;
    std::stable_sort(expect.begin(), expect.end(),
                     [](int a, int b) { return (a % 5) < (b % 5); });
    EXPECT_EQ(order, expect);
}

// A timer two hours out fires at its time, after nearer timers.
TEST(engine_determinism, far_future_timer_fires_last)
{
    engine e;
    std::vector<int> order;
    const sim_duration two_hours{2ll * 3600 * 1000000000};
    e.schedule_in(two_hours, task_class::timer, [&] { order.push_back(1); });
    e.schedule_in(sim_duration{5000}, task_class::timer, [&] { order.push_back(0); });
    const auto executed = e.run();

    EXPECT_EQ(executed, 2u);
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(e.now(), sim_time{} + two_hours);
}

// Thousands of events at random times (heavy tie mass on a coarse grid
// plus a wide spread) and random classes, some cancelled after the fact:
// the live ones fire exactly in a stable sort by (time, insertion).
TEST(engine_determinism, randomized_matches_stable_sort_reference)
{
    engine e;
    std::mt19937_64 rng(20260807);
    std::uniform_int_distribution<std::int64_t> coarse(0, 99);
    std::uniform_int_distribution<std::int64_t> spread(0, (1 << 20) - 1);
    std::uniform_int_distribution<int> cls(0, task_class_count - 1);

    struct event {
        std::int64_t at;
        int id;
    };
    std::vector<event> scheduled;
    std::vector<timer_handle> handles;
    std::vector<int> fired;
    for (int id = 0; id < 5000; ++id) {
        const std::int64_t at = (id % 3 == 0) ? coarse(rng) * 1000 : spread(rng);
        handles.push_back(e.schedule_cancellable_in(sim_duration{at},
                                                    static_cast<task_class>(cls(rng)),
                                                    [&fired, id] { fired.push_back(id); }));
        scheduled.push_back({at, id});
    }
    std::vector<event> live;
    for (const auto& ev : scheduled) {
        if (rng() % 8 == 0)
            EXPECT_TRUE(e.cancel(handles[static_cast<std::size_t>(ev.id)]));
        else
            live.push_back(ev);
    }
    std::stable_sort(live.begin(), live.end(),
                     [](const event& a, const event& b) { return a.at < b.at; });
    std::vector<int> expect;
    for (const auto& ev : live) expect.push_back(ev.id);

    EXPECT_EQ(e.run(), live.size());
    EXPECT_EQ(fired, expect);
    EXPECT_EQ(e.profile().timers_cancelled, scheduled.size() - live.size());
}

// A key from reserve_seq() sorts where its number was reserved: after
// events scheduled before the reservation and before those scheduled
// after it, although it is itself scheduled last.
TEST(engine_determinism, reserved_seq_keeps_its_insertion_position)
{
    engine e;
    std::vector<int> order;
    e.schedule_at(sim_time{100}, [&] { order.push_back(0); });
    const std::uint64_t seq = e.reserve_seq(1);
    e.schedule_at(sim_time{100}, [&] { order.push_back(2); });
    e.schedule_reserved(sim_time{100}, seq, task_class::protocol,
                        [&] { order.push_back(1); });
    e.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// ------------------------------------------------------- cancellation

TEST(engine_cancel, cancelled_timer_never_fires_and_is_counted)
{
    engine e;
    int fired = 0;
    auto h = e.schedule_cancellable_in(sim_duration{1000}, task_class::timer,
                                       [&] { fired++; });
    EXPECT_TRUE(h.active());
    EXPECT_TRUE(e.cancel(h));
    EXPECT_FALSE(h.active()); // cancel() deactivates the handle
    EXPECT_FALSE(e.cancel(h)); // double cancel is a no-op

    const auto executed = e.run();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(executed, 0u); // reaped, not executed
    EXPECT_EQ(e.profile().timers_cancelled, 1u);
}

TEST(engine_cancel, stale_handle_after_fire_is_noop)
{
    engine e;
    int fired = 0;
    auto h = e.schedule_cancellable_in(sim_duration{1000}, task_class::timer,
                                       [&] { fired++; });
    e.run();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(e.cancel(h)); // slot already recycled; gen mismatch
    EXPECT_EQ(e.profile().timers_cancelled, 0u);

    // The recycled slot must not be cancellable through the old handle
    // even when a new timer occupies it.
    int fired2 = 0;
    auto h2 = e.schedule_cancellable_in(sim_duration{1000}, task_class::timer,
                                        [&] { fired2++; });
    EXPECT_FALSE(e.cancel(h));
    e.run();
    EXPECT_EQ(fired2, 1);
    (void)h2;
}

TEST(engine_cancel, self_cancel_inside_callback_is_noop)
{
    engine e;
    int fired = 0;
    timer_handle h;
    h = e.schedule_cancellable_in(sim_duration{1000}, task_class::timer, [&] {
        fired++;
        EXPECT_FALSE(e.cancel(h)); // mid-fire: nothing to drop
    });
    e.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(e.profile().timers_cancelled, 0u);
}

// run_until() must not count a cancelled front timer as pending work: the
// dead key is reaped while probing for the next event time.
TEST(engine_cancel, run_until_skips_cancelled_front_timer)
{
    engine e;
    int fired = 0;
    auto front = e.schedule_cancellable_in(sim_duration{1000}, task_class::timer,
                                           [&] { fired += 100; });
    e.schedule_in(sim_duration{2000}, task_class::generic, [&] { fired += 1; });
    EXPECT_TRUE(e.cancel(front));

    const auto first = e.run_until(sim_time{1500});
    EXPECT_EQ(first, 0u); // nothing live before 1500
    const auto second = e.run_until(sim_time{2500});
    EXPECT_EQ(second, 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(e.empty());
    EXPECT_EQ(e.profile().timers_cancelled, 1u);
}

// Cancel + reschedule chains (the RTO/pacing supersede pattern) must
// stay leak-free in slots: every cancelled slot is reused.
TEST(engine_cancel, supersede_chain_reuses_slots)
{
    engine e;
    int fired = 0;
    timer_handle pending{};
    for (int i = 0; i < 1000; ++i) {
        e.cancel(pending);
        pending = e.schedule_cancellable_in(sim_duration{10000 + i},
                                            task_class::timer, [&] { fired++; });
    }
    e.run();
    EXPECT_EQ(fired, 1); // only the last survivor fires
    EXPECT_EQ(e.profile().timers_cancelled, 999u);
    EXPECT_EQ(e.profile().executed, 1u);
}

// ------------------------------------------------- queue drop accounting

TEST(queue_stats, per_band_drop_accounting)
{
    // Band = low bit of packet id; 1000-byte capacity per band.
    priority_queue_disc q(2, 1000, [](const packet& p) {
        return static_cast<unsigned>(p.id & 1);
    });

    EXPECT_TRUE(q.enqueue(make_pkt(0, 600))); // band 0
    EXPECT_TRUE(q.enqueue(make_pkt(1, 900))); // band 1
    EXPECT_FALSE(q.enqueue(make_pkt(2, 600))); // band 0 full -> drop
    EXPECT_FALSE(q.enqueue(make_pkt(3, 200))); // band 1 full -> drop
    EXPECT_TRUE(q.enqueue(make_pkt(4, 300))); // band 0 fits again

    EXPECT_EQ(q.band_dropped(0), 1u);
    EXPECT_EQ(q.band_dropped_bytes(0), 600u);
    EXPECT_EQ(q.band_dropped(1), 1u);
    EXPECT_EQ(q.band_dropped_bytes(1), 200u);
    // Aggregate stats reconcile with the per-band view.
    EXPECT_EQ(q.stats().dropped, 2u);
    EXPECT_EQ(q.stats().dropped_bytes, 800u);
    EXPECT_EQ(q.stats().enqueued, 3u);
}

TEST(queue_stats, peak_bytes_tracks_high_water_mark)
{
    drop_tail_queue q(10000);
    EXPECT_TRUE(q.enqueue(make_pkt(1, 4000)));
    EXPECT_TRUE(q.enqueue(make_pkt(2, 5000)));
    EXPECT_EQ(q.stats().peak_bytes, 9000u);
    packet out;
    EXPECT_TRUE(q.dequeue_into(out));
    EXPECT_TRUE(q.dequeue_into(out));
    EXPECT_EQ(q.byte_depth(), 0u);
    // Peak is sticky.
    EXPECT_EQ(q.stats().peak_bytes, 9000u);
    EXPECT_TRUE(q.enqueue(make_pkt(3, 1000)));
    EXPECT_EQ(q.stats().peak_bytes, 9000u);
}

TEST(queue_stats, would_accept_matches_enqueue_outcome)
{
    drop_tail_queue q(1000);
    packet big = make_pkt(1, 800);
    EXPECT_TRUE(q.would_accept(big));
    EXPECT_TRUE(q.enqueue(std::move(big)));
    packet more = make_pkt(2, 300);
    EXPECT_FALSE(q.would_accept(more));
    EXPECT_FALSE(q.enqueue(std::move(more)));
}

// --------------------------------------------- link stats reconciliation

// With random loss enabled, every packet the serializer dequeued is
// accounted exactly once: tx_packets + dropped_random == dequeued, and
// the sink sees exactly tx_packets arrivals (no corruption configured).
TEST(link_stats, tx_and_random_drops_reconcile_with_dequeues)
{
    network net(7);
    auto& sink = net.emplace<counting_sink>("sink");
    auto& src = net.add_host("src");
    link_config cfg;
    cfg.rate = data_rate::from_gbps(10);
    cfg.propagation = 1_us;
    cfg.drop_probability = 0.25;
    const auto port = net.connect_simplex(src, sink, cfg);

    constexpr std::uint64_t n = 2000;
    for (std::uint64_t i = 0; i < n; ++i)
        src.egress(port).send(make_pkt(i + 1, 1000));
    net.sim().run();

    const auto& ls = src.egress(port).stats();
    const auto& qs = src.egress(port).queue_statistics();
    EXPECT_EQ(qs.dequeued, n);
    EXPECT_EQ(ls.tx_packets + ls.dropped_random, qs.dequeued);
    EXPECT_EQ(ls.tx_bytes + ls.dropped_random_bytes, n * 1000);
    EXPECT_EQ(sink.arrivals, ls.tx_packets);
    EXPECT_EQ(sink.corrupted, 0u);
    // With p=0.25 over 2000 trials, both outcomes must occur.
    EXPECT_GT(ls.dropped_random, 0u);
    EXPECT_GT(ls.tx_packets, 0u);
    // Lost packets still occupied the serializer: busy covers all dequeues.
    EXPECT_EQ(ls.busy.ns, static_cast<std::int64_t>(n) * 800); // 800 ns/kB at 10G
}

// The reconciliation identity must survive fault injection: down-drops
// happen before the queue (their own counter), so with a flap storm and
// random loss active it still holds that every dequeued packet is either
// tx'd or randomly dropped — and every send() is accounted exactly once.
TEST(link_stats, reconciliation_holds_with_faults_active)
{
    network net(11);
    auto& sink = net.emplace<counting_sink>("sink");
    auto& src = net.add_host("src");
    link_config cfg;
    cfg.rate = data_rate::from_gbps(10);
    cfg.propagation = 1_us;
    cfg.drop_probability = 0.15;
    const auto port = net.connect_simplex(src, sink, cfg);
    auto& l = src.egress(port);

    fault_scheduler faults(net.sim());
    // Four flaps: down 150 us, then up 250 us, from 100 us on.
    for (std::int64_t i = 0; i < 4; ++i) {
        faults.fail_link_at(l, sim_time{100000 + i * 400000});
        faults.repair_link_at(l, sim_time{250000 + i * 400000});
    }

    constexpr std::uint64_t n = 2000;
    for (std::uint64_t i = 0; i < n; ++i) {
        net.sim().schedule_at(sim_time{static_cast<std::int64_t>(i) * 1000},
                              [&l, i] { l.send(make_pkt(i + 1, 1000)); });
    }
    net.sim().run();

    const auto& ls = l.stats();
    const auto& qs = l.queue_statistics();
    // The storm bit: some sends were refused, some dequeues were lost.
    EXPECT_GT(ls.dropped_down, 0u);
    EXPECT_GT(ls.dropped_random, 0u);
    // PR-1 identity, unchanged by faults: dequeued splits into tx + random.
    EXPECT_EQ(ls.tx_packets + ls.dropped_random, qs.dequeued);
    EXPECT_EQ(ls.tx_bytes + ls.dropped_random_bytes, qs.dequeued * 1000);
    // Down-drops are refused pre-queue: enqueues + passthroughs account
    // for exactly the sends that were not refused, and nothing stranded.
    EXPECT_EQ(qs.enqueued + ls.dropped_down, n);
    EXPECT_EQ(qs.dropped, 0u);
    EXPECT_EQ(l.queue_depth_packets(), 0u); // final repair drained it
    EXPECT_EQ(ls.dropped_down_bytes, ls.dropped_down * 1000);
    EXPECT_EQ(sink.arrivals, ls.tx_packets);
}

// The idle-link cut-through must be invisible in the statistics: a lone
// packet through an empty queue still counts as enqueued and dequeued.
TEST(link_stats, cutthrough_keeps_queue_stats_consistent)
{
    network net(3);
    auto& sink = net.emplace<counting_sink>("sink");
    auto& src = net.add_host("src");
    link_config cfg;
    cfg.rate = data_rate::from_gbps(10);
    cfg.propagation = sim_duration::zero();
    const auto port = net.connect_simplex(src, sink, cfg);

    src.egress(port).send(make_pkt(1, 1250));
    net.sim().run();
    src.egress(port).send(make_pkt(2, 1250)); // serializer idle again
    net.sim().run();

    const auto& qs = src.egress(port).queue_statistics();
    EXPECT_EQ(qs.enqueued, 2u);
    EXPECT_EQ(qs.dequeued, 2u);
    EXPECT_EQ(qs.dropped, 0u);
    EXPECT_EQ(qs.peak_bytes, 1250u);
    EXPECT_EQ(sink.arrivals, 2u);
    EXPECT_EQ(net.sim().now().ns, 2000); // 1 us serialization each
}
