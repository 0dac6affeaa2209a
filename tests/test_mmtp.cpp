// Unit/functional tests for the MMTP core: stack demux, sender (modes,
// fragmentation, pacing, backpressure reaction), receiver (delivery,
// duplicates, NAK-based recovery), and the DTN buffer service.
#include "mmtp/buffer_service.hpp"
#include "mmtp/receiver.hpp"
#include "mmtp/sender.hpp"
#include "mmtp/stack.hpp"
#include "netsim/network.hpp"
#include "pnet/stages.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <tuple>
#include <utility>
#include <vector>

using namespace mmtp;
using namespace mmtp::core;
using namespace mmtp::netsim;
using namespace mmtp::literals;

namespace {

daq::daq_message make_msg(std::uint64_t seq, std::uint32_t size, std::uint64_t ts_ns = 0,
                          std::uint32_t experiment = wire::experiments::iceberg)
{
    daq::daq_message m;
    m.experiment = wire::make_experiment_id(experiment, 0);
    m.sequence = seq;
    m.timestamp_ns = ts_ns;
    m.size_bytes = size;
    return m;
}

/// host pair with MMTP stacks on both ends.
struct mmtp_pair {
    network net;
    host* a;
    host* b;
    std::unique_ptr<stack> sa;
    std::unique_ptr<stack> sb;

    explicit mmtp_pair(link_config cfg = {}, std::uint64_t seed = 21) : net(seed)
    {
        a = &net.add_host("a");
        b = &net.add_host("b");
        net.connect(*a, *b, cfg);
        net.compute_routes();
        sa = std::make_unique<stack>(*a, net.ids());
        sb = std::make_unique<stack>(*b, net.ids());
    }
};

} // namespace

// ----------------------------------------------------------------- stack

TEST(mmtp_stack, data_and_control_demux)
{
    mmtp_pair t;
    int data = 0, naks = 0;
    t.sb->set_data_sink([&](delivered_datagram&&) { data++; });
    t.sb->set_nak_handler(
        [&](const wire::nak_body&, wire::experiment_id, wire::ipv4_addr) { naks++; });

    wire::header h;
    h.experiment = 5;
    t.sa->send_datagram(t.b->address(), h, {}, 100);

    wire::nak_body nak;
    nak.requester = t.a->address();
    nak.ranges = {{1, 2}};
    byte_writer w;
    serialize(nak, w);
    t.sa->send_control(t.b->address(), 5, wire::control_type::nak, w.take());

    t.net.sim().run();
    EXPECT_EQ(data, 1);
    EXPECT_EQ(naks, 1);
    EXPECT_EQ(t.sb->stats().data_in, 1u);
    EXPECT_EQ(t.sb->stats().control_in, 1u);
}

TEST(mmtp_stack, l2_datagrams_reach_sink)
{
    mmtp_pair t;
    int got = 0;
    t.sb->set_data_sink([&](delivered_datagram&& d) {
        got++;
        EXPECT_TRUE(d.over_l2);
    });
    wire::header h;
    h.experiment = 9;
    t.sa->send_datagram_l2(0, h, {}, 50);
    t.net.sim().run();
    EXPECT_EQ(got, 1);
}

// ---------------------------------------------------------------- sender

TEST(mmtp_sender, fragments_large_messages)
{
    mmtp_pair t;
    std::uint64_t datagrams = 0, bytes = 0;
    t.sb->set_data_sink([&](delivered_datagram&& d) {
        datagrams++;
        bytes += d.total_payload_bytes;
        EXPECT_LE(d.total_payload_bytes, 8192u);
        ASSERT_TRUE(d.hdr.timestamp_ns.has_value());
        EXPECT_EQ(*d.hdr.timestamp_ns, 777u);
    });
    sender_config cfg;
    sender tx(*t.sa, t.b->address(), cfg);
    tx.send_message(make_msg(0, 20000, 777));
    t.net.sim().run();
    EXPECT_EQ(datagrams, 3u); // 8192 + 8192 + 3616
    EXPECT_EQ(bytes, 20000u);
    EXPECT_EQ(tx.stats().messages, 1u);
    EXPECT_EQ(tx.stats().datagrams, 3u);
}

TEST(mmtp_sender, inline_payload_rides_in_first_fragments)
{
    mmtp_pair t;
    std::vector<std::vector<std::uint8_t>> payloads;
    t.sb->set_data_sink(
        [&](delivered_datagram&& d) { payloads.push_back(std::move(d.payload)); });
    sender_config cfg;
    cfg.max_datagram_payload = 4;
    sender tx(*t.sa, t.b->address(), cfg);
    auto m = make_msg(0, 10);
    m.inline_payload = {1, 2, 3, 4, 5, 6};
    tx.send_message(m);
    t.net.sim().run();
    ASSERT_EQ(payloads.size(), 3u);
    EXPECT_EQ(payloads[0], (std::vector<std::uint8_t>{1, 2, 3, 4}));
    EXPECT_EQ(payloads[1], (std::vector<std::uint8_t>{5, 6}));
    EXPECT_TRUE(payloads[2].empty()); // all-virtual tail
}

TEST(mmtp_sender, pacing_spreads_datagrams)
{
    mmtp_pair t;
    std::vector<sim_time> arrivals;
    t.sb->set_data_sink(
        [&](delivered_datagram&& d) { arrivals.push_back(d.received); });
    sender_config cfg;
    cfg.pace = data_rate::from_mbps(80); // 8000-byte datagrams: 800 us each
    cfg.max_datagram_payload = 8000;
    sender tx(*t.sa, t.b->address(), cfg);
    for (int i = 0; i < 4; ++i) tx.send_message(make_msg(i, 8000));
    t.net.sim().run();
    ASSERT_EQ(arrivals.size(), 4u);
    for (std::size_t i = 1; i < arrivals.size(); ++i) {
        const auto gap = arrivals[i] - arrivals[i - 1];
        EXPECT_NEAR(static_cast<double>(gap.ns), 800e3, 50e3) << i;
    }
}

TEST(mmtp_sender, backpressure_scales_pace_down_then_recovers)
{
    mmtp_pair t;
    sender_config cfg;
    cfg.pace = data_rate::from_mbps(100);
    cfg.timing.hold = 10_ms;
    cfg.min_pace_fraction = 0.1;
    sender tx(*t.sa, t.b->address(), cfg);

    EXPECT_EQ(tx.effective_pace().bits_per_sec, 100000000u);

    // deliver a backpressure control message to host a
    wire::backpressure_body bp;
    bp.level = 255;
    byte_writer w;
    serialize(bp, w);
    t.sb->send_control(t.a->address(), 0, wire::control_type::backpressure, w.take());
    // Recovery is event-driven now, so stop inside the hold to observe
    // the suppressed pace.
    t.net.sim().run_until(t.net.sim().now() + 1_ms);

    EXPECT_EQ(tx.stats().backpressure_signals, 1u);
    EXPECT_EQ(tx.stats().bp_decreases, 1u);
    EXPECT_EQ(tx.stats().bp_floor_hits, 1u);
    EXPECT_NEAR(static_cast<double>(tx.effective_pace().bits_per_sec), 10000000.0, 1e6);

    // after the hold expires, additive recovery restores the full pace
    t.net.sim().run_until(t.net.sim().now() + 20_ms);
    EXPECT_EQ(tx.effective_pace().bits_per_sec, 100000000u);
    EXPECT_FALSE(tx.suppressed());
    EXPECT_EQ(tx.stats().bp_recoveries, 1u);
    EXPECT_GE(tx.stats().bp_recovery_steps, 6u); // 0.1 -> 1.0 in 0.15 steps
    EXPECT_GT(tx.stats().suppressed_ns, 0u);
}

TEST(mmtp_sender, weaker_signal_does_not_relax_stronger_suppression)
{
    // Regression (PR 4): the sender used to let the *latest* signal win —
    // a level-64 signal arriving while a level-255 suppression was in
    // force overwrote both the pace scale and the hold, quadrupling the
    // pace of a sender the network had just told to slow to the floor.
    mmtp_pair t;
    sender_config cfg;
    cfg.pace = data_rate::from_mbps(100);
    cfg.timing.hold = 10_ms;
    cfg.min_pace_fraction = 0.1;
    sender tx(*t.sa, t.b->address(), cfg);

    auto signal = [&](std::uint8_t level) {
        wire::backpressure_body bp;
        bp.level = level;
        byte_writer w;
        serialize(bp, w);
        t.sb->send_control(t.a->address(), 0, wire::control_type::backpressure,
                           w.take());
    };

    signal(255); // strongest possible: pace pinned at the floor
    t.net.sim().run_until(t.net.sim().now() + 1_ms);
    const auto floor_pace = tx.effective_pace().bits_per_sec;
    EXPECT_NEAR(static_cast<double>(floor_pace), 10e6, 1e6);

    signal(64); // later but weaker: must not raise the pace
    t.net.sim().run_until(t.net.sim().now() + 1_ms);
    EXPECT_EQ(tx.stats().backpressure_signals, 2u);
    EXPECT_EQ(tx.stats().bp_decreases, 1u); // the weaker signal cut nothing
    EXPECT_EQ(tx.effective_pace().bits_per_sec, floor_pace);
    EXPECT_TRUE(tx.suppressed());

    // The weaker signal still counts as congestion evidence: it extends
    // the quiet period (max of expiries), after which additive recovery
    // restores the configured pace exactly once.
    t.net.sim().run_until(t.net.sim().now() + 30_ms);
    EXPECT_EQ(tx.effective_pace().bits_per_sec, 100000000u);
    EXPECT_FALSE(tx.suppressed());
    EXPECT_EQ(tx.stats().bp_recoveries, 1u);
}

TEST(mmtp_sender, drive_schedules_source_messages)
{
    mmtp_pair t;
    std::uint64_t got = 0;
    t.sb->set_data_sink([&](delivered_datagram&&) { got++; });
    sender_config cfg;
    sender tx(*t.sa, t.b->address(), cfg);
    daq::steady_source src(wire::make_experiment_id(6, 0), 1000, 10_us, sim_time{0}, 25);
    EXPECT_EQ(tx.drive(src), 25u);
    t.net.sim().run();
    EXPECT_EQ(got, 25u);
}

namespace {

/// Emissions as (time ns, id); the id travels as the message timestamp.
using emission_list = std::vector<std::pair<std::int64_t, std::uint64_t>>;

class list_source final : public daq::message_source {
public:
    explicit list_source(emission_list items) : items_(std::move(items)) {}
    std::optional<daq::timed_message> next() override
    {
        if (next_ == items_.size()) return std::nullopt;
        const auto [at, id] = items_[next_++];
        return daq::timed_message{sim_time{at}, make_msg(id, 100, id)};
    }

private:
    emission_list items_;
    std::size_t next_{0};
};

/// (kind, value, time ns): 'p' = a probe saw `value` messages sent so
/// far, 'd' = message `value` was delivered.
using event_log = std::vector<std::tuple<char, std::uint64_t, std::int64_t>>;

/// Runs `waves` through one sender from time `start`: via one drive()
/// per wave, or, as the reference, by scheduling every message up front
/// the way a plain schedule_at() loop would. An event at `start` puts a
/// probe at every emission instant. Those probes are scheduled after
/// the emissions were set up, so at an emission's instant they must see
/// that emission already sent.
event_log run_waves(const std::vector<emission_list>& waves, sim_time start, bool reference)
{
    mmtp_pair t;
    auto& e = t.net.sim();
    event_log log;
    t.sb->set_data_sink([&](delivered_datagram&& d) {
        log.emplace_back('d', *d.hdr.timestamp_ns, e.now().ns);
    });
    sender tx(*t.sa, t.b->address(), sender_config{});
    e.run_until(start);
    e.schedule_at(start, [&] {
        for (const auto& w : waves)
            for (const auto& [at, id] : w)
                e.schedule_at(sim_time{at}, [&] {
                    log.emplace_back('p', tx.stats().messages, e.now().ns);
                });
    });
    for (const auto& w : waves) {
        list_source src(w);
        if (!reference) {
            EXPECT_EQ(tx.drive(src), w.size());
            continue;
        }
        while (auto tm = src.next())
            e.schedule_at(tm->at, task_class::protocol,
                          [&tx, msg = std::move(tm->msg)] { tx.send_message(msg); });
    }
    e.run();
    return log;
}

std::vector<std::uint64_t> delivered_ids(const event_log& log)
{
    std::vector<std::uint64_t> ids;
    for (const auto& [kind, value, at] : log)
        if (kind == 'd') ids.push_back(value);
    return ids;
}

} // namespace

// drive() keeps one emission pending at a time, yet dispatches exactly
// like pre-scheduling: probes scheduled at runtime for an emission's
// very instant still fire after it, including at same-instant ties.
TEST(mmtp_sender, drive_matches_prescheduled_reference)
{
    const std::vector<emission_list> waves{
        {{1000, 1}, {1000, 2}, {2000, 3}, {2000, 4}, {2000, 5}, {5000, 6}, {8000, 7}}};
    const auto driven = run_waves(waves, sim_time::zero(), false);
    EXPECT_EQ(driven, run_waves(waves, sim_time::zero(), true));
    EXPECT_EQ(delivered_ids(driven), (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7}));
    // The first probe at 1000 ns runs after both emissions at 1000 ns.
    ASSERT_FALSE(driven.empty());
    EXPECT_EQ(driven.front(), (std::tuple<char, std::uint64_t, std::int64_t>{'p', 2, 1000}));
}

// Two drive() calls on one sender (a second wave, as the chaos drill
// schedules) interleave with each other exactly as pre-scheduling does.
TEST(mmtp_sender, two_drives_interleave_like_prescheduled)
{
    const std::vector<emission_list> waves{
        {{1000, 1}, {3000, 2}, {5000, 3}, {7000, 4}, {9000, 5}},
        {{3000, 11}, {4000, 12}, {5000, 13}, {9000, 14}, {9000, 15}}};
    const auto driven = run_waves(waves, sim_time::zero(), false);
    EXPECT_EQ(driven, run_waves(waves, sim_time::zero(), true));
    EXPECT_EQ(delivered_ids(driven),
              (std::vector<std::uint64_t>{1, 2, 11, 12, 3, 13, 4, 5, 14, 15}));
}

// A source out of time order, with times before now(): drive() clamps
// them to now() and emits in stable (time, source order).
TEST(mmtp_sender, drive_sorts_and_clamps_like_prescheduled)
{
    const std::vector<emission_list> waves{{{9000, 1}, {3000, 2}, {7000, 3}, {0, 4},
                                            {7000, 5}, {5000, 6}, {12000, 7}, {4000, 8}}};
    const sim_time start{5000};
    const auto driven = run_waves(waves, start, false);
    EXPECT_EQ(driven, run_waves(waves, start, true));
    EXPECT_EQ(delivered_ids(driven), (std::vector<std::uint64_t>{2, 4, 6, 8, 3, 5, 1, 7}));
}

// However long the source, a drive() call leaves one pending event.
TEST(mmtp_sender, drive_keeps_one_emission_pending_per_call)
{
    mmtp_pair t;
    std::uint64_t got = 0;
    t.sb->set_data_sink([&](delivered_datagram&&) { got++; });
    sender tx(*t.sa, t.b->address(), sender_config{});
    const auto experiment = wire::make_experiment_id(6, 0);
    daq::steady_source src(experiment, 1000, 10_us, sim_time{0}, 10000);
    EXPECT_EQ(tx.drive(src), 10000u);
    EXPECT_EQ(t.net.sim().pending(), 1u);
    daq::steady_source wave2(experiment, 1000, 10_us, sim_time{5000}, 10);
    EXPECT_EQ(tx.drive(wave2), 10u);
    EXPECT_EQ(t.net.sim().pending(), 2u);
    t.net.sim().run();
    EXPECT_EQ(got, 10010u);
}

// -------------------------------------------------------------- receiver

namespace {

/// a → b where a runs a buffer service (with local sequencing) and b a
/// receiver; loss injected on the a→b link only.
struct recovery_rig {
    network net;
    host* src;
    host* dst;
    std::unique_ptr<stack> s_src;
    std::unique_ptr<stack> s_dst;
    std::unique_ptr<buffer_service> svc;
    std::unique_ptr<receiver> rx;

    explicit recovery_rig(double loss, std::uint64_t seed = 33,
                          receiver_config rcfg = {})
        : net(seed)
    {
        src = &net.add_host("src");
        dst = &net.add_host("dst");
        link_config forward;
        forward.rate = data_rate::from_gbps(10);
        forward.propagation = 500_us;
        forward.drop_probability = loss;
        net.connect_simplex(*src, *dst, forward);
        link_config back = forward;
        back.drop_probability = 0.0; // NAKs themselves survive
        net.connect_simplex(*dst, *src, back);
        net.compute_routes();

        s_src = std::make_unique<stack>(*src, net.ids());
        s_dst = std::make_unique<stack>(*dst, net.ids());

        buffer_service_config bcfg;
        bcfg.next_hop = dst->address();
        bcfg.assign_sequence_locally = true;
        svc = std::make_unique<buffer_service>(*s_src, bcfg);

        rcfg.timing.retry_base = 3_ms;
        rx = std::make_unique<receiver>(*s_dst, rcfg);
    }

    /// Injects `n` messages into the buffer service as if they had
    /// arrived from a sensor.
    void feed(std::uint64_t n, std::uint32_t size = 1000)
    {
        for (std::uint64_t i = 0; i < n; ++i) {
            delivered_datagram d;
            d.hdr.experiment = wire::make_experiment_id(wire::experiments::iceberg, 0);
            d.hdr.m.set(wire::feature::timestamped);
            d.hdr.timestamp_ns = static_cast<std::uint64_t>(net.sim().now().ns);
            d.total_payload_bytes = size;
            svc->relay(d);
        }
    }
};

} // namespace

TEST(mmtp_receiver, lossless_delivery_no_naks)
{
    recovery_rig rig(0.0);
    rig.feed(100);
    rig.net.sim().run();
    EXPECT_EQ(rig.rx->stats().datagrams, 100u);
    EXPECT_EQ(rig.rx->stats().naks_sent, 0u);
    EXPECT_EQ(rig.rx->stats().duplicates, 0u);
    EXPECT_EQ(rig.rx->outstanding_gaps(), 0u);
}

TEST(mmtp_receiver, recovers_all_loss_from_buffer)
{
    recovery_rig rig(0.05); // 5% loss
    rig.feed(1000);
    rig.net.sim().run();
    // everything eventually delivered exactly once
    EXPECT_EQ(rig.rx->stats().datagrams, 1000u);
    EXPECT_GT(rig.rx->stats().recovered, 10u);
    EXPECT_GT(rig.rx->stats().naks_sent, 0u);
    EXPECT_EQ(rig.rx->stats().given_up, 0u);
    EXPECT_EQ(rig.rx->outstanding_gaps(), 0u);
    EXPECT_EQ(rig.svc->stats().nak_requests, rig.rx->stats().naks_sent);
    EXPECT_EQ(rig.svc->stats().unavailable, 0u);
}

TEST(mmtp_receiver, recovery_latency_scales_with_buffer_rtt)
{
    recovery_rig rig(0.05);
    rig.feed(1000);
    rig.net.sim().run();
    // RTT to buffer is ~1 ms; recovery should take a few ms (grace +
    // RTT), not the tens of ms an end-to-end scheme would need.
    const auto p50 = rig.rx->stats().recovery_latency_us.percentile(50);
    EXPECT_GT(p50, 500u);
    EXPECT_LT(p50, 20000u);
}

TEST(mmtp_receiver, gives_up_when_buffer_cannot_help)
{
    // Buffer with zero retention: NAKs find nothing; receiver abandons
    // after max attempts and reports the loss.
    network net(44);
    auto& src = net.add_host("src");
    auto& dst = net.add_host("dst");
    link_config fwd;
    fwd.propagation = 100_us;
    net.connect(src, dst, fwd);
    net.compute_routes();
    stack s_src(src, net.ids());
    stack s_dst(dst, net.ids());

    buffer_service_config bcfg;
    bcfg.next_hop = dst.address();
    bcfg.assign_sequence_locally = true;
    bcfg.buffer.retention = sim_duration{0}; // nothing survives
    buffer_service svc(s_src, bcfg);

    receiver_config rcfg;
    rcfg.timing.retry_base = 1_ms;
    rcfg.timing.max_attempts = 3;
    receiver rx(s_dst, rcfg);
    std::vector<std::uint64_t> lost;
    rx.set_on_loss([&](wire::experiment_id, std::uint16_t, std::uint64_t s) {
        lost.push_back(s);
    });

    // Manually deliver sequence 0 and 2, skipping 1 (simulated loss).
    for (std::uint64_t s : {0ull, 1ull, 2ull}) {
        delivered_datagram d;
        d.hdr.experiment = wire::make_experiment_id(6, 0);
        d.total_payload_bytes = 100;
        svc.relay(d);
        (void)s;
    }
    // drop the middle relayed packet by intercepting: easier — use the
    // fact that zero-retention buffer can't retransmit; force a gap by
    // delivering a crafted out-of-order datagram instead:
    net.sim().run();
    // All three arrived (no link loss), so no gap and no give-up.
    EXPECT_EQ(rx.stats().given_up, 0u);

    // Now inject a datagram with a sequence that leaves a gap (seq 5).
    wire::header h;
    h.experiment = wire::make_experiment_id(6, 0);
    h.m.set(wire::feature::sequencing).set(wire::feature::retransmission);
    h.sequencing = wire::sequencing_field{5, 0};
    h.retransmission = wire::retransmission_field{src.address()};
    s_src.send_datagram(dst.address(), h, {}, 100);
    net.sim().run();
    // gaps 3..4 were NAKed 3 times, buffer had nothing, receiver gave up
    EXPECT_EQ(rx.stats().given_up, 2u);
    EXPECT_EQ((std::vector<std::uint64_t>{3, 4}), lost);
    EXPECT_GT(svc.stats().unavailable, 0u);
}

namespace {

/// Sends one sequenced datagram of experiment 6, epoch 0, a→b, naming a
/// as its retransmission buffer (a answers no NAK).
void send_seq(mmtp_pair& t, std::uint64_t seq)
{
    wire::header h;
    h.experiment = wire::make_experiment_id(6, 0);
    h.m.set(wire::feature::sequencing).set(wire::feature::retransmission);
    h.sequencing = wire::sequencing_field{seq, 0};
    h.retransmission = wire::retransmission_field{t.a->address()};
    t.sa->send_datagram(t.b->address(), h, {}, 100);
}

} // namespace

TEST(mmtp_receiver, many_open_gaps_filled_in_reverse_order)
{
    mmtp_pair t;
    receiver rx(*t.sb);
    // Even sequences 0..2000 leave 1000 one-sequence gaps, 1..1999.
    for (std::uint64_t s = 0; s <= 2000; s += 2) send_seq(t, s);
    t.net.sim().run_until(sim_time{(20_ms).ns});
    EXPECT_EQ(rx.outstanding_gaps(), 1000u);
    EXPECT_GE(rx.stats().nak_ranges_sent, 1000u); // every gap NAKed at least once
    EXPECT_EQ(rx.stats().given_up, 0u);
    // The repairs arrive highest first, each into its own gap record.
    for (std::uint64_t s = 2000; s > 0; s -= 2) send_seq(t, s - 1);
    t.net.sim().run();
    EXPECT_EQ(rx.stats().datagrams, 2001u);
    EXPECT_EQ(rx.stats().recovered, 1000u);
    EXPECT_EQ(rx.stats().duplicates, 0u);
    EXPECT_EQ(rx.stats().given_up, 0u);
    EXPECT_EQ(rx.stats().recovery_latency_us.count(), 1000u);
    EXPECT_EQ(rx.outstanding_gaps(), 0u);
}

// Characterizes when a given-up gap's record goes: not at the give-up but
// at the stream's next arrival. Until then the record still takes credit
// for recoveries above it, and keeps a finished stream from retiring.
TEST(mmtp_receiver, given_up_gap_record_lives_until_next_arrival)
{
    link_config fast;
    fast.propagation = 10_us;
    mmtp_pair t(fast);
    receiver_config rcfg;
    rcfg.timing.retry_base = 1_ms;
    rcfg.timing.retry_cap = sim_duration{0};
    rcfg.timing.max_attempts = 3;
    receiver rx(*t.sb, rcfg);
    auto at = [&](sim_duration when, std::vector<std::uint64_t> seqs) {
        t.net.sim().schedule_at(sim_time{when.ns}, [&t, seqs] {
            for (auto s : seqs) send_seq(t, s);
        });
    };

    // Gaps [1,4) and [5,6), both NAKed from ~0.2 ms. Repairing seq 1
    // leaves [2,4), re-recorded at the next check with a fresh budget, so
    // the record for 5 runs out first: given up at ~4.2 ms, while the
    // record for 2 is still open.
    at(sim_duration{0}, {0, 4, 6});
    at(500_us, {1});
    // Before the next check: 2 fills its record and leaves [3,4) without
    // one; 9 opens [7,9), also without one; then 8 lands in it. The only
    // record below 8 would be the given-up one for 5 — gone since 2.
    at(5_ms, {2, 9, 8});
    t.net.sim().run_until(sim_time{(6_ms).ns});
    EXPECT_EQ(rx.stats().given_up, 1u);
    EXPECT_EQ(rx.stats().recovered, 2u);

    // [3,4) and [7,8) are then given up too, by the last check: the
    // stream is complete, but its last event was a give-up.
    t.net.sim().run();
    EXPECT_EQ(rx.stats().given_up, 3u);
    EXPECT_EQ(rx.outstanding_gaps(), 0u);
    EXPECT_EQ(rx.prune_idle(sim_duration{0}), 0u);
    EXPECT_EQ(rx.stats().streams_retired, 0u);

    // The next arrival drops the given-up records; now it retires.
    send_seq(t, 10);
    t.net.sim().run();
    EXPECT_EQ(rx.prune_idle(sim_duration{0}), 1u);
    EXPECT_EQ(rx.stats().streams_retired, 1u);
    EXPECT_EQ(rx.stats().recovered, 2u);
    EXPECT_EQ(rx.stats().duplicates, 0u);
}

TEST(mmtp_receiver, duplicate_datagrams_counted_not_delivered_twice)
{
    mmtp_pair t;
    receiver rx(*t.sb);
    int delivered = 0;
    rx.set_on_datagram([&](const delivered_datagram&) { delivered++; });

    wire::header h;
    h.experiment = wire::make_experiment_id(6, 0);
    h.m.set(wire::feature::sequencing);
    h.sequencing = wire::sequencing_field{0, 0};
    t.sa->send_datagram(t.b->address(), h, {}, 100);
    t.sa->send_datagram(t.b->address(), h, {}, 100); // same sequence again
    t.net.sim().run();
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(rx.stats().duplicates, 1u);
}

TEST(mmtp_receiver, destination_timeliness_check)
{
    link_config slow_path;
    slow_path.propagation = 5_ms; // transit clearly exceeds the budget
    mmtp_pair t(slow_path);
    receiver rx(*t.sb);

    wire::header h;
    h.experiment = wire::make_experiment_id(6, 0);
    h.m.set(wire::feature::timeliness).set(wire::feature::timestamped);
    wire::timeliness_field tf;
    tf.deadline_us = 1; // 1 us budget: will be exceeded in flight
    h.timeliness = tf;
    h.timestamp_ns = 0;
    t.sa->send_datagram(t.b->address(), h, {}, 100);
    t.net.sim().run();
    EXPECT_EQ(rx.stats().datagrams, 1u);
    EXPECT_EQ(rx.stats().aged_on_arrival, 1u);
    EXPECT_GT(rx.stats().age_us.max(), 0u);
}

// --------------------------------------------------------- buffer service

TEST(buffer_service, relays_and_buffers)
{
    recovery_rig rig(0.0);
    rig.feed(10, 2000);
    rig.net.sim().run();
    EXPECT_EQ(rig.svc->stats().relayed, 10u);
    EXPECT_EQ(rig.svc->stats().relayed_bytes, 20000u);
    EXPECT_EQ(rig.svc->buffer().entries(), 10u);
    EXPECT_EQ(rig.rx->stats().datagrams, 10u);
}

TEST(buffer_service, local_sequencing_is_contiguous_per_experiment)
{
    recovery_rig rig(0.0);
    std::vector<std::uint64_t> seqs;
    rig.rx->set_on_datagram([&](const delivered_datagram& d) {
        ASSERT_TRUE(d.hdr.sequencing.has_value());
        seqs.push_back(d.hdr.sequencing->sequence);
    });
    rig.feed(5);
    rig.net.sim().run();
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(buffer_service, advertises_buffer)
{
    mmtp_pair t;
    int adverts = 0;
    t.sb->set_advert_handler([&](const wire::buffer_advert_body& b) {
        adverts++;
        EXPECT_EQ(b.buffer_addr, t.a->address());
        EXPECT_GT(b.capacity_bytes, 0u);
    });
    buffer_service_config bcfg;
    bcfg.next_hop = t.b->address();
    buffer_service svc(*t.sa, bcfg);
    svc.advertise(t.b->address());
    t.net.sim().run();
    EXPECT_EQ(adverts, 1);
}
