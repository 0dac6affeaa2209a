// The campaign layer end to end: the checked-in .scenario files
// reproduce the hand-written drivers byte-for-byte, every driver's
// report is a deterministic function of its seed, the invariant-checked
// axis matrix passes on the chaos drill, the seeded random campaign is
// green, and two recordings of different runs diff at a well-defined
// first divergent wire event.
#include "common/crc32c.hpp"
#include "scenario/campaign.hpp"
#include "scenario/chaos.hpp"
#include "scenario/registry.hpp"
#include "telemetry/run_recorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

using namespace mmtp;
using namespace mmtp::scenario;

#ifndef MMTP_SCENARIO_DIR
#error "MMTP_SCENARIO_DIR must point at the checked-in scenarios/ directory"
#endif

namespace {

struct capture {
    std::string describe;
    std::string report_csv;
    std::string metrics_csv;
};

/// Runs any driver to completion and captures its full telemetry.
capture run_and_capture(driver& d)
{
    capture cap;
    cap.describe = d.describe();
    d.run();
    telemetry::metrics_registry reg;
    cap.report_csv = d.report(reg).csv();
    cap.metrics_csv = reg.to_csv();
    return cap;
}

scenario_spec load_checked_in(const std::string& stem)
{
    const auto out =
        load_scenario_file(std::string(MMTP_SCENARIO_DIR) + "/" + stem + ".scenario");
    EXPECT_TRUE(out) << stem << ": " << out.error.to_string();
    return *out.spec;
}

} // namespace

// -------------------------- scenario files vs hand-written driver configs

// Each checked-in file must be the hand-written drill, just spelled as
// data: running it through the DSL driver and running the concrete
// driver with the C++ config produce byte-identical telemetry.
TEST(campaign_files, pilot_scenario_matches_handwritten_driver)
{
    using namespace mmtp::literals;
    pilot_driver::options opt;
    opt.records = 5000;
    opt.pilot.wan_loss = 0.02;
    opt.pilot.wan_delay = 5_ms;
    pilot_driver hand(opt);
    dsl_driver from_file(load_checked_in("pilot"));
    const auto a = run_and_capture(hand);
    const auto b = run_and_capture(from_file);
    EXPECT_EQ(a.report_csv, b.report_csv);
    EXPECT_EQ(a.metrics_csv, b.metrics_csv);
}

TEST(campaign_files, today_scenario_matches_handwritten_driver)
{
    today_driver hand(today_driver::options{});
    dsl_driver from_file(load_checked_in("today"));
    const auto a = run_and_capture(hand);
    const auto b = run_and_capture(from_file);
    EXPECT_EQ(a.report_csv, b.report_csv);
    EXPECT_EQ(a.metrics_csv, b.metrics_csv);
}

TEST(campaign_files, chaos_scenario_matches_handwritten_driver)
{
    chaos_driver hand(chaos_config{});
    dsl_driver from_file(load_checked_in("chaos"));
    const auto a = run_and_capture(hand);
    const auto b = run_and_capture(from_file);
    EXPECT_EQ(a.report_csv, b.report_csv);
    EXPECT_EQ(a.metrics_csv, b.metrics_csv);
}

TEST(campaign_files, overload_scenario_matches_handwritten_driver)
{
    overload_driver hand(overload_config{});
    dsl_driver from_file(load_checked_in("overload"));
    const auto a = run_and_capture(hand);
    const auto b = run_and_capture(from_file);
    EXPECT_EQ(a.report_csv, b.report_csv);
    EXPECT_EQ(a.metrics_csv, b.metrics_csv);
}

TEST(campaign_files, shapeshift_scenario_matches_handwritten_driver)
{
    shapeshift_driver hand(shapeshift_config{});
    dsl_driver from_file(load_checked_in("shapeshift"));
    const auto a = run_and_capture(hand);
    const auto b = run_and_capture(from_file);
    EXPECT_EQ(a.report_csv, b.report_csv);
    EXPECT_EQ(a.metrics_csv, b.metrics_csv);
}

TEST(campaign_files, soak_scenario_matches_handwritten_driver)
{
    soak_driver hand(soak_smoke_config());
    dsl_driver from_file(load_checked_in("soak"));
    const auto a = run_and_capture(hand);
    const auto b = run_and_capture(from_file);
    EXPECT_EQ(a.report_csv, b.report_csv);
    EXPECT_EQ(a.metrics_csv, b.metrics_csv);
}

// ------------------------------------- same-seed reports are byte-stable

// Regression pin for the report()/describe() audit: no wall-clock, no
// locale-dependent formatting — two same-seed runs of every driver
// produce byte-identical describe lines, report CSV and metrics CSV.
TEST(campaign_determinism, every_driver_report_is_byte_identical_across_reruns)
{
    for (const auto& topo : registry::names()) {
        scenario_spec spec;
        spec.topology = topo;
        if (topo == "pilot") spec.pilot.records = 800;
        if (topo == "soak") spec.soak = soak_smoke_config();
        auto first = registry::make(spec);
        auto second = registry::make(spec);
        ASSERT_TRUE(first && second) << topo;
        const auto a = run_and_capture(*first);
        const auto b = run_and_capture(*second);
        EXPECT_EQ(a.describe, b.describe) << topo;
        EXPECT_EQ(a.report_csv, b.report_csv) << topo;
        EXPECT_EQ(a.metrics_csv, b.metrics_csv) << topo;
    }
}

// ------------------------------------------- pre-shard telemetry pins

// CRC-32C + length of each checked-in scenario's report and metrics
// CSV, captured from the build immediately before a multi-shard engine
// was added. Neither adding it nor deleting it again was allowed to
// change a single-engine run: same event order, same packet ids, same
// telemetry bytes. A pin moving means a refactor perturbed the event
// order — byte-compare against the old build before touching these
// constants. The metrics pins were re-derived once since: the
// serializer-free event left the classic link path, which moved only
// the engine_events_total and engine_events{class=link_tx} rows of
// each metrics CSV.
TEST(campaign_files, single_shard_telemetry_matches_pre_shard_pins)
{
    struct pin {
        const char* stem;
        std::uint32_t report_crc;
        std::size_t report_len;
        std::uint32_t metrics_crc;
        std::size_t metrics_len;
    };
    static constexpr pin pins[] = {
        {"pilot", 0x0aef9e06u, 209u, 0x1871590au, 4622u},
        {"today", 0xa501c960u, 93u, 0x1dab363cu, 349u},
        {"chaos", 0x50ca8d47u, 755u, 0x0c0dc0c9u, 4866u},
        {"overload", 0x04f8d3ffu, 846u, 0x369c0c87u, 4898u},
        {"shapeshift", 0xfd8168a3u, 497u, 0x5412fb06u, 4225u},
        {"soak", 0xfe7a9c40u, 1194u, 0xaf430957u, 11114u},
    };
    const auto crc_of = [](const std::string& s) {
        return crc32c({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
    };
    for (const auto& p : pins) {
        scenario_spec spec = load_checked_in(p.stem);
        ASSERT_EQ(spec.shards(), 1u) << p.stem;
        dsl_driver d(spec);
        const auto cap = run_and_capture(d);
        EXPECT_EQ(cap.report_csv.size(), p.report_len) << p.stem;
        EXPECT_EQ(crc_of(cap.report_csv), p.report_crc) << p.stem;
        EXPECT_EQ(cap.metrics_csv.size(), p.metrics_len) << p.stem;
        EXPECT_EQ(crc_of(cap.metrics_csv), p.metrics_crc) << p.stem;
    }
}

// ------------------------------------------------------- pinned work

// The engine work each checked-in scenario does, drained one step() at a
// time: events by task class, and the peak of engine::pending() sampled
// after every step. These are exact integers, so the gate cannot flake.
// A change that adds an event or a standing pending key anywhere in a
// scenario moves one; raising one means editing a reviewed constant
// with its reason.
TEST(campaign_work, checked_in_scenarios_do_the_pinned_engine_work)
{
    struct work {
        const char* stem;
        // generic, timer, link_tx, link_arrival, pipeline, protocol, control
        std::array<std::uint64_t, netsim::task_class_count> events;
        std::size_t peak_pending;
    };
    static constexpr work pins[] = {
        {"pilot", {0, 0, 203, 25238, 15230, 5003, 0}, 12},
        {"today", {200, 0, 0, 200, 0, 0, 0}, 200},
        {"chaos", {6, 37, 1189, 4387, 3381, 1003, 0}, 12},
        {"overload", {159, 59, 3950, 16629, 11548, 11213, 0}, 27},
        {"shapeshift", {3, 0, 689, 5052, 1776, 1502, 82}, 12},
        {"soak", {10514, 1, 451, 39800, 19484, 101, 730}, 156},
    };
    for (const auto& w : pins) {
        dsl_driver d(load_checked_in(w.stem));
        d.prepare();
        netsim::engine& e = d.context().sim();
        std::size_t peak = 0;
        while (e.step()) peak = std::max(peak, e.pending());
        for (std::size_t c = 0; c < netsim::task_class_count; ++c)
            EXPECT_EQ(e.profile().executed_by_class[c], w.events[c])
                << w.stem << " "
                << netsim::task_class_name(static_cast<netsim::task_class>(c));
        EXPECT_EQ(peak, w.peak_pending) << w.stem;
    }
}

// ----------------------------------------------------- the axis matrix

TEST(campaign_matrix, chaos_scenario_green_across_the_full_matrix)
{
    scenario_spec spec;
    spec.topology = "chaos";
    spec.name = "chaos-matrix";
    const auto out = campaign::run_scenario(spec, campaign::options{});
    // burst {1,32} x trace {on,off} x persist {on,off}; chaos has no
    // policy axis.
    EXPECT_EQ(out.cells.size(), 8u);
    for (const auto& cell : out.cells) {
        EXPECT_TRUE(cell.passed) << cell.ax.label();
        for (const auto& f : cell.failures) ADD_FAILURE() << f;
        EXPECT_GT(cell.accepted.delivered, 0u);
        EXPECT_EQ(cell.accepted.duplicates, 0u);
    }
    EXPECT_TRUE(out.passed);
}

TEST(campaign_matrix, lossy_scenario_forgives_loss_but_never_duplicates)
{
    scenario_spec spec;
    spec.topology = "today";
    spec.lossy = true;
    const auto out = campaign::run_scenario(spec, campaign::options{});
    EXPECT_EQ(out.cells.size(), 2u); // burst is today's only swept axis
    EXPECT_TRUE(out.passed);
    for (const auto& cell : out.cells)
        EXPECT_EQ(cell.accepted.duplicates, 0u) << cell.ax.label();
}

TEST(campaign_matrix, collapsed_axes_follow_the_spec)
{
    scenario_spec spec;
    spec.topology = "shapeshift";
    spec.shapeshift.policy = control::mode_preset::static_preset;
    spec.shapeshift.trace = false;
    const auto single = campaign::matrix_for(spec, {.matrix = false});
    ASSERT_EQ(single.size(), 1u);
    EXPECT_FALSE(single[0].closed_loop);
    EXPECT_FALSE(single[0].trace);
    // Full matrix: burst {1,32} x policy {cl,static} x trace {on,off}.
    EXPECT_EQ(campaign::matrix_for(spec, campaign::options{}).size(), 8u);
}

// ------------------------------------------------ seeded random campaign

TEST(campaign_random, generated_scenarios_pass_their_invariants)
{
    for (std::uint64_t seed = 9; seed < 14; ++seed) {
        const auto spec = campaign::generate(seed);
        const auto out =
            campaign::run_scenario(spec, campaign::options{.matrix = false});
        EXPECT_TRUE(out.passed) << "seed " << seed << " (" << spec.topology << ")";
        for (const auto& cell : out.cells)
            for (const auto& f : cell.failures)
                ADD_FAILURE() << "seed " << seed << ": " << f;
    }
}

// -------------------------------------------- wire-recording structural diff

// The data layer behind `chaos_replay --diff`: same-seed recordings
// replay identical wire-event streams; different-seed recordings have a
// well-defined first divergent event.
TEST(campaign_diff, recordings_diverge_at_a_first_event_or_not_at_all)
{
    auto record = [](std::uint64_t seed) {
        // kill_revive has corruption bursts, so the seed shapes the
        // wire-event stream (the plain drill's faults are all scripted).
        chaos_config cfg = kill_revive_config();
        cfg.record = true;
        cfg.seed = seed;
        return run_chaos_drill(cfg).recording;
    };
    const auto blob_a = record(42);
    const auto blob_b = record(42);
    const auto blob_c = record(7);

    auto events_of = [](std::vector<std::uint8_t> blob) {
        auto rep = telemetry::run_replayer::open(std::move(blob));
        EXPECT_TRUE(rep && rep->verify());
        return rep->wire_events();
    };
    const auto ea = events_of(blob_a);
    const auto eb = events_of(blob_b);
    const auto ec = events_of(blob_c);
#if !MMTP_TRACING
    // The recordings still open and verify (above), but with the flight
    // recorder compiled out they carry no wire events to diff. The
    // campaign CI job's `chaos_replay --diff` step covers the diff in a
    // tracing-on build.
    EXPECT_TRUE(ea.empty() && eb.empty() && ec.empty());
    GTEST_SKIP() << "tracing compiled out (-DMMTP_DISABLE_TRACING=ON): no wire events";
#endif
    ASSERT_FALSE(ea.empty());

    auto same = [](const telemetry::replayed_event& x,
                   const telemetry::replayed_event& y) {
        return x.at_ns == y.at_ns && x.packet_id == y.packet_id && x.arg == y.arg
            && x.site == y.site && x.kind == y.kind && x.why == y.why;
    };

    // Same seed: event-for-event identical.
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i)
        ASSERT_TRUE(same(ea[i], eb[i])) << "event " << i;

    // Different seed: some first index disagrees (and every index before
    // it agrees — the definition of "first divergence" --diff prints).
    std::size_t first = 0;
    const std::size_t common = std::min(ea.size(), ec.size());
    while (first < common && same(ea[first], ec[first])) ++first;
    EXPECT_TRUE(first < common || ea.size() != ec.size())
        << "different seeds produced identical recordings";
}
