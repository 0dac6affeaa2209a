// Parameterized sweeps over the assembled scenarios: the pilot testbed
// must deliver every record exactly once across a grid of loss rates,
// delays and seeds (the core reliability invariant), alerts must beat
// bulk under every congestion level when deadline-aware queueing is on,
// and telemetry helpers must agree with first-principles arithmetic.
#include "daq/trigger.hpp"
#include "scenario/pilot.hpp"
#include "scenario/today.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/report.hpp"

#include <fstream>
#include <gtest/gtest.h>

using namespace mmtp;
using namespace mmtp::scenario;
using namespace mmtp::literals;

// ------------------------------------------------ pilot reliability sweep

struct pilot_case {
    double loss;
    std::int64_t delay_ms;
    std::uint64_t seed;
};

class pilot_sweep : public ::testing::TestWithParam<pilot_case> {};

TEST_P(pilot_sweep, every_record_delivered_exactly_once)
{
    const auto p = GetParam();
    pilot_config cfg;
    cfg.seed = p.seed;
    cfg.wan_loss = p.loss;
    cfg.wan_delay = sim_duration{p.delay_ms * 1'000'000};
    auto tb = make_pilot(cfg);

    daq::iceberg_stream::config scfg;
    scfg.record_limit = 600;
    daq::iceberg_stream src(tb->net.fork_rng(), scfg);
    tb->sensor_tx->drive(src);
    tb->net.sim().run();

    EXPECT_EQ(tb->dtn2_rx->stats().datagrams, 600u)
        << "loss=" << p.loss << " delay=" << p.delay_ms << " seed=" << p.seed;
    EXPECT_EQ(tb->dtn2_rx->stats().given_up, 0u);
    EXPECT_EQ(tb->dtn2_rx->outstanding_gaps(), 0u);
    EXPECT_EQ(tb->dtn1_svc->stats().unavailable, 0u);
    // conservation: deliveries = relayed, duplicates filtered out
    EXPECT_EQ(tb->dtn1_svc->stats().relayed, 600u);
}

INSTANTIATE_TEST_SUITE_P(
    loss_delay_seed_grid, pilot_sweep,
    ::testing::Values(pilot_case{0.0, 1, 1}, pilot_case{0.0, 50, 2},
                      pilot_case{0.01, 1, 3}, pilot_case{0.01, 20, 4},
                      pilot_case{0.05, 5, 5}, pilot_case{0.05, 20, 6},
                      pilot_case{0.10, 10, 7}, pilot_case{0.02, 50, 8},
                      pilot_case{0.01, 20, 9}, pilot_case{0.01, 20, 10}));

// ------------------------------------------- recovery latency is flat-ish

TEST(pilot_properties, recovery_latency_tracks_buffer_rtt_not_loss_rate)
{
    std::vector<std::uint64_t> p50s;
    for (const double loss : {0.01, 0.05}) {
        pilot_config cfg;
        cfg.wan_loss = loss;
        cfg.wan_delay = 5_ms;
        auto tb = make_pilot(cfg);
        daq::iceberg_stream::config scfg;
        scfg.record_limit = 2000;
        daq::iceberg_stream src(tb->net.fork_rng(), scfg);
        tb->sensor_tx->drive(src);
        tb->net.sim().run();
        ASSERT_EQ(tb->dtn2_rx->stats().given_up, 0u);
        p50s.push_back(tb->dtn2_rx->stats().recovery_latency_us.percentile(50));
    }
    // both around one buffer RTT (10 ms) + grace; within 3x of each other
    for (const auto p50 : p50s) {
        EXPECT_GT(p50, 5000u);
        EXPECT_LT(p50, 40000u);
    }
    const auto lo = std::min(p50s[0], p50s[1]);
    const auto hi = std::max(p50s[0], p50s[1]);
    EXPECT_LT(hi, lo * 3);
}

TEST(pilot_properties, ages_scale_with_wan_delay)
{
    std::uint64_t age_short = 0, age_long = 0;
    for (const auto delay : {2_ms, 40_ms}) {
        pilot_config cfg;
        cfg.wan_delay = delay;
        cfg.deadline_us = 1000000;
        auto tb = make_pilot(cfg);
        daq::iceberg_stream::config scfg;
        scfg.record_limit = 100;
        daq::iceberg_stream src(tb->net.fork_rng(), scfg);
        tb->sensor_tx->drive(src);
        tb->net.sim().run();
        const auto p50 = tb->dtn2_rx->stats().age_us.percentile(50);
        if (delay.ns == (2_ms).ns)
            age_short = p50;
        else
            age_long = p50;
    }
    EXPECT_GT(age_long, age_short + 30000); // ~38 ms more one-way delay
}

TEST(pilot_properties, duplicates_suppressed_under_spurious_nak_retry)
{
    // an aggressively short NAK retry forces duplicate retransmissions;
    // the receiver must still deliver exactly once.
    pilot_config cfg;
    cfg.wan_loss = 0.05;
    cfg.wan_delay = 10_ms;
    auto tb = make_pilot(cfg);
    // NOTE: receiver was built by make_pilot with the policy-suggested
    // retry; rebuild it with a too-short retry.
    core::receiver_config rcfg;
    rcfg.timing.retry_base = 2_ms; // << 20 ms buffer RTT: guaranteed spurious NAKs
    rcfg.timing.max_attempts = 50;
    tb->dtn2_rx = std::make_unique<core::receiver>(*tb->dtn2_stack, rcfg);

    daq::iceberg_stream::config scfg;
    scfg.record_limit = 1000;
    daq::iceberg_stream src(tb->net.fork_rng(), scfg);
    tb->sensor_tx->drive(src);
    tb->net.sim().run();

    EXPECT_EQ(tb->dtn2_rx->stats().datagrams, 1000u); // exactly once
    EXPECT_GT(tb->dtn2_rx->stats().duplicates, 0u);   // spurious rtx arrived
    EXPECT_EQ(tb->dtn2_rx->stats().given_up, 0u);
}

// --------------------------------------------------------- today sweeps

class today_loss_sweep : public ::testing::TestWithParam<double> {};

TEST_P(today_loss_sweep, wan_tcp_transfer_reliable)
{
    today_config cfg;
    cfg.wan_delay = 5_ms;
    cfg.wan_loss = GetParam();
    auto tb = make_today(cfg);
    const std::uint64_t total = 3 * 1000 * 1000;
    tcp::connection* at_storage = nullptr;
    tb->storage_tcp->listen(today_testbed::storage_port, tb->wan_tcp_config(),
                            [&](tcp::connection& c) { at_storage = &c; });
    auto& conn = tb->dtn1_tcp->connect(tb->storage->address(),
                                       today_testbed::storage_port,
                                       tb->wan_tcp_config());
    std::uint64_t queued = 0;
    auto pump = [&] {
        if (queued < total) queued += conn.send(total - queued);
    };
    conn.set_on_connected(pump);
    conn.set_on_writable(pump);
    tb->net.sim().run();
    ASSERT_NE(at_storage, nullptr);
    EXPECT_EQ(at_storage->delivered_bytes(), total) << "loss=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(losses, today_loss_sweep,
                         ::testing::Values(0.0, 1e-4, 1e-3, 5e-3, 2e-2));

// -------------------------------------------------------------- telemetry

TEST(telemetry, rate_sampler_measures_counter_slope)
{
    netsim::engine eng;
    std::uint64_t counter = 0;
    telemetry::rate_sampler sampler(eng, [&] { return counter; }, 1_ms);
    sampler.start(sim_time{(10_ms).ns});
    // feed 125 bytes per 1 ms = 1 Mbps
    for (int i = 1; i <= 10; ++i) {
        eng.schedule_at(sim_time{i * 1'000'000 - 1}, [&] { counter += 125; });
    }
    eng.run();
    ASSERT_GE(sampler.samples().size(), 9u);
    EXPECT_NEAR(sampler.mean_mbps(), 1.0, 0.15);
    EXPECT_NEAR(sampler.peak_mbps(), 1.0, 0.15);
}

TEST(telemetry, table_renders_and_writes_csv)
{
    telemetry::table t("unit");
    t.set_columns({"a", "b"});
    t.add_row({"1", "2"});
    t.add_row({"3", "4"});
    EXPECT_EQ(t.row_count(), 2u);
    const std::string path = "/tmp/mmtp_test_table.csv";
    ASSERT_TRUE(t.write_csv(path));
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "a,b");
    std::getline(in, line);
    EXPECT_EQ(line, "1,2");
}

TEST(telemetry, format_helpers)
{
    EXPECT_EQ(telemetry::fmt_rate(500.0), "500.00 Mbps");
    EXPECT_EQ(telemetry::fmt_rate(2500.0), "2.50 Gbps");
    EXPECT_EQ(telemetry::fmt_duration_us(12.0), "12.0 us");
    EXPECT_EQ(telemetry::fmt_duration_us(2500.0), "2.500 ms");
    EXPECT_EQ(telemetry::fmt_duration_us(3.2e6), "3.200 s");
    EXPECT_EQ(telemetry::fmt_count(42), "42");
    EXPECT_EQ(telemetry::fmt_double(3.14159, 3), "3.142");
}
