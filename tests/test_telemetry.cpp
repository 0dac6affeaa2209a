// Tests for the observability layer: the packet flight recorder
// (common/trace.hpp), the metrics registry (telemetry/metrics.hpp),
// engine profiling, the measurement trackers' edge cases, and the
// end-to-end hop timeline the chaos drill extracts.
#include "common/trace.hpp"
#include "netsim/engine.hpp"
#include "scenario/chaos.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"

#include <gtest/gtest.h>

using namespace mmtp;
using namespace mmtp::trace;

// ------------------------------------------------------- flight recorder

TEST(flight_recorder, emits_and_reads_back_in_order)
{
    flight_recorder rec(64);
    const auto s = rec.site("link-a");
    rec.emit(100, s, hop::link_enqueue, 7, 1500, reason::none);
    rec.emit(200, s, hop::link_dequeue, 7, 1500, reason::none);

    const auto evs = rec.events();
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(evs[0].at_ns, 100);
    EXPECT_EQ(evs[0].kind, hop::link_enqueue);
    EXPECT_EQ(evs[1].at_ns, 200);
    EXPECT_EQ(rec.site_name(evs[0].site), "link-a");
    EXPECT_EQ(rec.emitted(), 2u);
    EXPECT_EQ(rec.overwritten(), 0u);
}

TEST(flight_recorder, ring_overwrites_oldest)
{
    flight_recorder rec(4); // power of two, tiny
    for (std::int64_t i = 0; i < 10; ++i)
        rec.emit(i, 0, hop::link_enqueue, static_cast<std::uint64_t>(i), 0, reason::none);
    const auto evs = rec.events();
    ASSERT_EQ(evs.size(), 4u);
    EXPECT_EQ(evs.front().at_ns, 6); // oldest surviving
    EXPECT_EQ(evs.back().at_ns, 9);
    EXPECT_EQ(rec.emitted(), 10u);
    EXPECT_EQ(rec.overwritten(), 6u);
}

TEST(flight_recorder, site_interning_is_idempotent)
{
    flight_recorder rec;
    const auto a = rec.site("x");
    EXPECT_EQ(rec.site("x"), a);
    EXPECT_NE(rec.site("y"), a);
    EXPECT_EQ(rec.site_name(0), "?");
}

TEST(flight_recorder, message_timeline_chases_bindings)
{
    flight_recorder rec;
    // pkt 10 gets sequence 42, is cloned as pkt 11; pkt 30 is an
    // unrelated packet; a retransmission binds pkt 20 to sequence 42.
    rec.emit(1, 0, hop::sw_seq_insert, 10, 42, reason::none);
    rec.emit(2, 0, hop::sw_clone, 11, 10, reason::none);
    rec.emit(3, 0, hop::link_enqueue, 11, 0, reason::none);
    rec.emit(4, 0, hop::link_enqueue, 30, 0, reason::none);
    rec.emit(5, 0, hop::mmtp_nak, 0, pack_range(40, 5), reason::none);
    rec.emit(6, 0, hop::mmtp_nak, 0, pack_range(50, 5), reason::none); // not covering 42
    rec.emit(7, 0, hop::mmtp_failover, 0, 99, reason::none);
    rec.emit(8, 0, hop::mmtp_retransmit, 20, 42, reason::none);
    rec.emit(9, 0, hop::mmtp_deliver, 20, 42, reason::none);

    const auto tl = rec.message_timeline(42);
    ASSERT_EQ(tl.size(), 7u); // everything except pkt 30 and the 50..55 NAK
    for (const auto& r : tl) EXPECT_NE(r.packet_id, 30u);
    bool has_nak_covering = false, has_failover = false, has_clone = false;
    for (const auto& r : tl) {
        if (r.kind == hop::mmtp_nak) {
            has_nak_covering = true;
            EXPECT_EQ(range_start(r.arg), 40u);
        }
        if (r.kind == hop::mmtp_failover) has_failover = true;
        if (r.kind == hop::sw_clone) has_clone = true;
    }
    EXPECT_TRUE(has_nak_covering);
    EXPECT_TRUE(has_failover);
    EXPECT_TRUE(has_clone);
}

TEST(flight_recorder, traversed_checks_site_and_time)
{
    flight_recorder rec;
    const auto backup = rec.site("backup");
    const auto primary = rec.site("primary");
    rec.emit(1, 0, hop::sw_seq_insert, 10, 7, reason::none);
    rec.emit(2, primary, hop::link_enqueue, 10, 0, reason::none);
    rec.emit(50, backup, hop::link_enqueue, 10, 0, reason::none);

    EXPECT_TRUE(rec.traversed(7, backup));
    EXPECT_TRUE(rec.traversed(7, backup, 50));
    EXPECT_FALSE(rec.traversed(7, backup, 51)); // only before the cutoff
    EXPECT_TRUE(rec.traversed(7, primary));
    EXPECT_FALSE(rec.traversed(8, backup)); // unknown sequence
}

TEST(flight_recorder, scoped_recorder_installs_and_uninstalls)
{
    EXPECT_FALSE(trace::active());
    {
        flight_recorder rec;
        scoped_recorder in(rec);
        EXPECT_TRUE(trace::active());
        trace::emit(sim_time{5}, 0, hop::link_enqueue, 1);
        EXPECT_EQ(rec.emitted(), 1u);
    }
    EXPECT_FALSE(trace::active());
    // With no recorder installed, emit is a no-op, not a crash.
    trace::emit(sim_time{6}, 0, hop::link_enqueue, 2);
}

TEST(flight_recorder, format_timeline_renders_names_and_ranges)
{
    flight_recorder rec;
    const auto s = rec.site("wan");
    rec.emit(1000, s, hop::link_drop, 3, 64, reason::queue_full);
    rec.emit(2000, 0, hop::mmtp_nak, 0, pack_range(10, 4), reason::none);
    const auto text = rec.format_timeline(rec.events());
    EXPECT_NE(text.find("wan"), std::string::npos);
    EXPECT_NE(text.find("link_drop"), std::string::npos);
    EXPECT_NE(text.find("reason=queue_full"), std::string::npos);
    EXPECT_NE(text.find("seq=[10,+4)"), std::string::npos);
}

// ------------------------------------------------------ metrics registry

TEST(metrics_registry, counters_gauges_histograms_and_probes)
{
    telemetry::metrics_registry reg;
    reg.get_counter("events", {{"kind", "drop"}}).inc(3);
    reg.get_counter("events", {{"kind", "drop"}}).inc(); // same instrument
    reg.get_gauge("depth").set(-7);
    reg.get_histogram("lat_us").record(100);
    reg.get_histogram("lat_us").record(200);
    std::uint64_t source = 41;
    reg.add_probe("probe_val", {}, [&source] { return source; });
    source = 42; // probes sample at snapshot time

    const auto rows = reg.snapshot();
    auto find = [&](const std::string& m, const std::string& f) -> std::int64_t {
        for (const auto& r : rows)
            if (r.metric == m && r.field == f) return r.value;
        ADD_FAILURE() << "missing row " << m << "/" << f;
        return -1;
    };
    EXPECT_EQ(find("events{kind=drop}", "value"), 4);
    EXPECT_EQ(find("depth", "value"), -7);
    EXPECT_EQ(find("lat_us", "count"), 2);
    EXPECT_EQ(find("lat_us", "min"), 100);
    EXPECT_EQ(find("lat_us", "max"), 200);
    EXPECT_EQ(find("probe_val", "value"), 42);
}

TEST(metrics_registry, csv_is_sorted_and_deterministic)
{
    telemetry::metrics_registry reg;
    reg.get_counter("zeta").inc();
    reg.get_counter("alpha").inc(2);
    reg.get_gauge("mid").set(5);
    const auto csv = reg.to_csv();
    EXPECT_EQ(csv, reg.to_csv()); // stable across repeated snapshots
    const auto a = csv.find("alpha");
    const auto m = csv.find("mid");
    const auto z = csv.find("zeta");
    EXPECT_LT(a, m);
    EXPECT_LT(m, z);
    EXPECT_EQ(csv.substr(0, 18), "metric,field,value");
}

TEST(metrics_registry, empty_registry_renders_empty_snapshot)
{
    telemetry::metrics_registry reg;
    EXPECT_EQ(reg.to_csv(), "metric,field,value\n");
}

// ----------------------------------------------------- engine profiling

TEST(engine_profile, counts_events_by_class)
{
    netsim::engine e;
    e.schedule_at(sim_time{10}, [] {});                                // generic
    e.schedule_at(sim_time{20}, netsim::task_class::timer, [] {});     // tagged
    e.schedule_in(sim_duration{30}, netsim::task_class::protocol, [] {});
    e.schedule_in(sim_duration{40}, netsim::task_class::protocol, [] {});
    e.run();

    const auto& prof = e.profile();
    EXPECT_EQ(prof.executed, 4u);
    auto count = [&](netsim::task_class tc) {
        return prof.executed_by_class[static_cast<std::size_t>(tc)];
    };
    EXPECT_EQ(count(netsim::task_class::generic), 1u);
    EXPECT_EQ(count(netsim::task_class::timer), 1u);
    EXPECT_EQ(count(netsim::task_class::protocol), 2u);
    EXPECT_EQ(count(netsim::task_class::link_tx), 0u);
    EXPECT_GE(prof.wall_seconds, 0.0);
}

TEST(engine_profile, task_class_names_are_stable)
{
    EXPECT_STREQ(netsim::task_class_name(netsim::task_class::generic), "generic");
    EXPECT_STREQ(netsim::task_class_name(netsim::task_class::link_arrival),
                 "link_arrival");
    EXPECT_STREQ(netsim::task_class_name(netsim::task_class::control), "control");
}

// ------------------------------------------------- tracker edge cases

TEST(recovery_tracker, gives_up_at_deadline_when_health_never_returns)
{
    netsim::engine e;
    telemetry::recovery_tracker t(e, sim_duration{1000});
    t.arm(sim_time{0}, [] { return false; }, sim_time{10000});
    e.run();

    EXPECT_FALSE(t.recovered());
    EXPECT_TRUE(t.gave_up());
    EXPECT_FALSE(t.time_to_recover().has_value());
    // Probes at 1000, 2000, ..., 10000: the next one would overshoot.
    EXPECT_EQ(t.probes(), 10u);
}

TEST(recovery_tracker, recovery_before_deadline_does_not_give_up)
{
    netsim::engine e;
    bool healthy = false;
    e.schedule_at(sim_time{3500}, [&healthy] { healthy = true; });
    telemetry::recovery_tracker t(e, sim_duration{1000});
    t.arm(sim_time{0}, [&healthy] { return healthy; }, sim_time{10000});
    e.run();

    EXPECT_TRUE(t.recovered());
    EXPECT_FALSE(t.gave_up());
    ASSERT_TRUE(t.time_to_recover().has_value());
    EXPECT_EQ(t.time_to_recover()->ns, 4000);
}

// ------------------------------------------- end-to-end: chaos timeline

TEST(chaos_trace, failed_over_message_timeline_crosses_backup_span)
{
    scenario::chaos_config cfg;
    cfg.messages = 400; // smaller drill, same story
    const auto r = scenario::run_chaos_drill(cfg);

    ASSERT_NE(r.traced_sequence, std::uint64_t(-1));
    EXPECT_TRUE(r.traversed_backup);
    EXPECT_NE(r.hop_timeline.find("seq_insert"), std::string::npos);
    EXPECT_NE(r.hop_timeline.find("failover"), std::string::npos);
    EXPECT_NE(r.hop_timeline.find("retransmit"), std::string::npos);
    EXPECT_NE(r.hop_timeline.find("deliver"), std::string::npos);
    EXPECT_NE(r.hop_timeline.find("wan-backup"), std::string::npos);
    EXPECT_FALSE(r.metrics_csv.empty());

    const auto r2 = scenario::run_chaos_drill(cfg);
    EXPECT_EQ(r.hop_timeline, r2.hop_timeline);
    EXPECT_EQ(r.metrics_csv, r2.metrics_csv);
}

TEST(chaos_trace, tracing_disabled_yields_no_timeline_and_same_outcome)
{
    scenario::chaos_config cfg;
    cfg.messages = 400;
    cfg.trace = false;
    const auto r = scenario::run_chaos_drill(cfg);
    EXPECT_EQ(r.traced_sequence, std::uint64_t(-1));
    EXPECT_TRUE(r.hop_timeline.empty());
    EXPECT_TRUE(r.recovered);
    EXPECT_FALSE(r.metrics_csv.empty()); // metrics don't need the tracer

    scenario::chaos_config cfg2;
    cfg2.messages = 400;
    const auto traced = scenario::run_chaos_drill(cfg2);
    // Observability must not perturb the simulation itself.
    EXPECT_EQ(r.report.csv(), traced.report.csv());
}
