// Unit tests for src/daq: Table-1 profiles, WIB frame codec, LArTPC
// synthesis, trigger/supernova/alert message sources.
#include "daq/alerts.hpp"
#include "daq/message.hpp"
#include "daq/profiles.hpp"
#include "daq/trigger.hpp"
#include "daq/wib.hpp"

#include <gtest/gtest.h>

using namespace mmtp;
using namespace mmtp::daq;

// -------------------------------------------------------------- profiles

TEST(profiles, table1_rates_match_paper)
{
    const auto& t1 = table1_profiles();
    ASSERT_EQ(t1.size(), 5u);
    EXPECT_DOUBLE_EQ(cms_l1_profile().daq_rate.gbps(), 63000.0);
    EXPECT_DOUBLE_EQ(dune_profile().daq_rate.gbps(), 120000.0);
    EXPECT_DOUBLE_EQ(ecce_profile().daq_rate.gbps(), 100000.0);
    EXPECT_DOUBLE_EQ(mu2e_profile().daq_rate.gbps(), 160.0);
    EXPECT_DOUBLE_EQ(vera_rubin_profile().daq_rate.gbps(), 400.0);
}

TEST(profiles, message_rate_consistent_with_daq_rate)
{
    const auto p = mu2e_profile();
    const double mps = p.messages_per_second();
    EXPECT_NEAR(mps * p.message_bytes * 8.0,
                static_cast<double>(p.daq_rate.bits_per_sec), 1.0);
}

TEST(profiles, interval_times_rate_recovers_profile)
{
    for (const auto& p : table1_profiles()) {
        const auto gap = p.message_interval(1.0);
        // one stream emits size/interval bytes/s; times streams = rate
        const double per_stream_bps = p.message_bytes * 8.0 / gap.seconds();
        EXPECT_NEAR(per_stream_bps * p.streams,
                    static_cast<double>(p.daq_rate.bits_per_sec),
                    static_cast<double>(p.daq_rate.bits_per_sec) * 0.01)
            << p.name;
    }
}

TEST(profiles, scaling)
{
    const auto p = dune_profile().scaled(0.001);
    EXPECT_NEAR(p.daq_rate.gbps(), 120.0, 0.01);
}

// ------------------------------------------------------------------- wib

TEST(wib, frame_size_constant)
{
    wib_frame f;
    EXPECT_EQ(f.serialize().size(), wib_frame_bytes);
}

TEST(wib, round_trip)
{
    wib_frame f;
    f.version = 2;
    f.crate = 3;
    f.slot = 4;
    f.fiber = 1;
    f.timestamp = 0x123456789abcdef0ull;
    for (std::size_t i = 0; i < wib_channels; ++i)
        f.adc[i] = static_cast<std::uint16_t>(i * 7 % 4096);
    const auto bytes = f.serialize();
    const auto parsed = wib_frame::parse(bytes);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, f);
}

TEST(wib, crc_detects_corruption)
{
    wib_frame f;
    f.timestamp = 42;
    auto bytes = f.serialize();
    bytes[20] ^= 0x40;
    EXPECT_FALSE(wib_frame::parse(bytes).has_value());
}

TEST(wib, wrong_size_rejected)
{
    wib_frame f;
    auto bytes = f.serialize();
    bytes.pop_back();
    EXPECT_FALSE(wib_frame::parse(bytes).has_value());
}

TEST(wib, adc_clamped_to_12_bits)
{
    wib_frame f;
    f.adc[0] = 0xffff;
    const auto bytes = f.serialize();
    const auto parsed = wib_frame::parse(bytes);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->adc[0], 0x0fffu);
}

TEST(lartpc, pedestal_and_noise_without_activity)
{
    lartpc_synth::config cfg;
    cfg.activity = 0.0;
    lartpc_synth synth(rng(3), cfg);
    wib_frame f;
    double sum = 0;
    int n = 0;
    for (int k = 0; k < 50; ++k) {
        synth.fill(f);
        for (auto v : f.adc) {
            sum += v;
            n++;
        }
    }
    EXPECT_NEAR(sum / n, cfg.pedestal, 1.0);
}

TEST(lartpc, activity_raises_signal)
{
    lartpc_synth::config quiet_cfg;
    quiet_cfg.activity = 0.0;
    lartpc_synth quiet(rng(4), quiet_cfg);
    lartpc_synth::config busy_cfg;
    busy_cfg.activity = 0.5;
    lartpc_synth busy(rng(4), busy_cfg);
    wib_frame fq, fb;
    double sq = 0, sb = 0;
    for (int k = 0; k < 50; ++k) {
        quiet.fill(fq);
        busy.fill(fb);
        for (auto v : fq.adc) sq += v;
        for (auto v : fb.adc) sb += v;
    }
    EXPECT_GT(sb, sq * 1.05);
}

// --------------------------------------------------------------- message

TEST(daq_header, round_trip)
{
    daq_header h;
    h.experiment = wire::make_experiment_id(wire::experiments::dune, 3);
    h.sequence = 77;
    h.timestamp_ns = 123456789;
    h.record_count = 9;
    h.flags = 0x8001;
    byte_writer w;
    h.serialize(w);
    EXPECT_EQ(w.size(), daq_header::wire_bytes);
    const auto parsed = daq_header::parse(w.view());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, h);
    EXPECT_FALSE(daq_header::parse(w.view().first(10)).has_value());
}

TEST(steady_source, cadence_and_limit)
{
    using namespace mmtp::literals;
    steady_source src(42, 1000, 10_us, sim_time{5000}, 3);
    auto a = src.next();
    auto b = src.next();
    auto c = src.next();
    auto d = src.next();
    ASSERT_TRUE(a && b && c);
    EXPECT_FALSE(d.has_value());
    EXPECT_EQ(a->at.ns, 5000);
    EXPECT_EQ(b->at.ns, 15000);
    EXPECT_EQ(c->at.ns, 25000);
    EXPECT_EQ(a->msg.sequence, 0u);
    EXPECT_EQ(c->msg.sequence, 2u);
    EXPECT_EQ(a->msg.size_bytes, 1000u);
    EXPECT_EQ(a->msg.timestamp_ns, 5000u);
}

TEST(composite_source, time_ordered_merge)
{
    using namespace mmtp::literals;
    composite_source mix;
    mix.add(std::make_unique<steady_source>(1, 10, 30_us, sim_time{0}, 3));
    mix.add(std::make_unique<steady_source>(2, 10, 20_us, sim_time{5000}, 4));
    std::vector<std::int64_t> times;
    std::vector<std::uint32_t> exps;
    while (auto tm = mix.next()) {
        times.push_back(tm->at.ns);
        exps.push_back(tm->msg.experiment);
    }
    ASSERT_EQ(times.size(), 7u);
    EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
    EXPECT_EQ(times.front(), 0);
    EXPECT_EQ(exps.front(), 1u);
}

// --------------------------------------------------------------- trigger

TEST(iceberg_stream, message_shape)
{
    iceberg_stream::config cfg;
    cfg.frames_per_record = 10;
    cfg.record_limit = 5;
    iceberg_stream src(rng(7), cfg);
    int n = 0;
    std::int64_t prev = -1;
    while (auto tm = src.next()) {
        n++;
        EXPECT_EQ(tm->msg.size_bytes, iceberg_stream::message_bytes(10));
        EXPECT_GT(tm->at.ns, prev);
        prev = tm->at.ns;
        EXPECT_EQ(wire::experiment_of(tm->msg.experiment), wire::experiments::iceberg);
        // inline payload starts with a parseable shared DAQ header
        const auto dh = daq_header::parse(tm->msg.inline_payload);
        ASSERT_TRUE(dh.has_value());
        EXPECT_EQ(dh->record_count, 10);
    }
    EXPECT_EQ(n, 5);
}

TEST(iceberg_stream, materialized_frames_parse_and_crc_check)
{
    iceberg_stream::config cfg;
    cfg.frames_per_record = 4;
    cfg.record_limit = 2;
    cfg.materialize_frames = true;
    iceberg_stream src(rng(11), cfg);
    auto tm = src.next();
    ASSERT_TRUE(tm.has_value());
    const auto& payload = tm->msg.inline_payload;
    ASSERT_EQ(payload.size(), daq_header::wire_bytes + 4 * wib_frame_bytes);
    for (int i = 0; i < 4; ++i) {
        const auto frame = wib_frame::parse(std::span<const std::uint8_t>(payload).subspan(
            daq_header::wire_bytes + i * wib_frame_bytes, wib_frame_bytes));
        ASSERT_TRUE(frame.has_value()) << "frame " << i;
        EXPECT_EQ(frame->timestamp, static_cast<std::uint64_t>(tm->at.ns) / wib_tick_ns + i);
    }
}

TEST(iceberg_stream, rate_approximates_profile)
{
    // default config: ~5656-byte records / 4.2 us ≈ 10.8 Gbps
    iceberg_stream::config cfg;
    cfg.record_limit = 1000;
    iceberg_stream src(rng(13), cfg);
    std::uint64_t bytes = 0;
    sim_time last{};
    while (auto tm = src.next()) {
        bytes += tm->msg.size_bytes;
        last = tm->at;
    }
    const double gbps = bytes * 8.0 / sim_duration{last.ns}.seconds() / 1e9;
    EXPECT_NEAR(gbps, 10.8, 1.0);
}

TEST(supernova_source, burst_raises_rate_100x)
{
    using namespace mmtp::literals;
    supernova_source::config cfg;
    cfg.quiet_interval = 1_ms;
    cfg.burst_onset = sim_time{(100_ms).ns};
    cfg.burst_duration = 50_ms;
    cfg.burst_multiplier = 100;
    cfg.message_limit = 10000;
    supernova_source src(cfg);
    std::uint64_t quiet = 0, burst = 0;
    while (auto tm = src.next()) {
        if (src.in_burst(tm->at))
            burst++;
        else if (tm->at.ns < cfg.burst_onset.ns)
            quiet++;
        // flag carried in the shared DAQ header
        const auto dh = daq_header::parse(tm->msg.inline_payload);
        ASSERT_TRUE(dh.has_value());
        EXPECT_EQ(dh->flags != 0, src.in_burst(tm->at));
    }
    EXPECT_NEAR(static_cast<double>(quiet), 100.0, 2.0);  // 100 ms at 1/ms
    EXPECT_NEAR(static_cast<double>(burst), 5000.0, 60.0); // 50 ms at 100/ms
}

// ---------------------------------------------------------------- alerts

TEST(alert_burst, visit_structure_and_peak_rate)
{
    using namespace mmtp::literals;
    alert_burst_source::config cfg;
    cfg.alerts_per_visit = 100;
    cfg.visit_limit = 2;
    cfg.mean_alert_bytes = 100000;
    cfg.intra_burst_gap = 10_us;
    alert_burst_source src(rng(17), cfg);
    int n = 0;
    std::vector<std::int64_t> times;
    while (auto tm = src.next()) {
        n++;
        times.push_back(tm->at.ns);
        EXPECT_GE(tm->msg.size_bytes, daq_header::wire_bytes);
    }
    EXPECT_EQ(n, 200);
    // second visit starts at the visit interval
    EXPECT_EQ(times[100], cfg.visit_interval.ns);
}

TEST(supernova_alert, emits_exactly_once_with_parseable_body)
{
    supernova_alert_source::alert_body body;
    body.ra_udeg = -123456;
    body.dec_udeg = 654321;
    body.confidence_permille = 950;
    const auto exp = wire::make_experiment_id(wire::experiments::dune, 0);
    supernova_alert_source src(exp, sim_time{777}, body);
    auto tm = src.next();
    ASSERT_TRUE(tm.has_value());
    EXPECT_FALSE(src.next().has_value());
    EXPECT_EQ(tm->at.ns, 777);
    const auto parsed = supernova_alert_source::alert_body::parse(tm->msg.inline_payload);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->ra_udeg, body.ra_udeg);
    EXPECT_EQ(parsed->dec_udeg, body.dec_udeg);
    EXPECT_EQ(parsed->confidence_permille, body.confidence_permille);
}
