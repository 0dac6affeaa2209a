// Chaos drill acceptance tests: the coordinated WAN + buffer failure
// must be survived (rerouted, failed over, zero given-up sequences, a
// finite time-to-recover) and must be perfectly reproducible (two
// same-seed runs emit byte-identical telemetry).
#include "scenario/chaos.hpp"
#include "telemetry/run_recorder.hpp"

#include <gtest/gtest.h>

using namespace mmtp;
using namespace mmtp::scenario;

TEST(chaos_drill, survives_coordinated_wan_and_buffer_failure)
{
    const auto r = run_chaos_drill(chaos_config{});

    // The fault fired as scripted and the control plane saw it.
    EXPECT_EQ(r.faults.link_downs, 2u);      // wan-primary + buf1 feed
    EXPECT_EQ(r.faults.node_blackouts, 1u);  // buf1
    EXPECT_EQ(r.health.downs_observed, 2u);
    EXPECT_EQ(r.planner.flows_rerouted, 1u);
    EXPECT_EQ(r.planner.flows_stranded, 0u);

    // The fault actually created loss to recover from.
    EXPECT_GT(r.stranded_in_primary_queue, 0u);
    EXPECT_GT(r.wan_backup.tx_packets, 0u); // traffic moved to the backup

    // Recovery: NAKs failed over to the surviving buffer, which answered.
    EXPECT_EQ(r.rx.buffer_failovers, 1u);
    EXPECT_GT(r.rx.nak_retries, 0u);
    EXPECT_GT(r.buf2.retransmitted, 0u);
    EXPECT_GT(r.buf1_blackout_dropped, 0u); // the primary never answered

    // Acceptance: nothing abandoned, every message delivered exactly
    // once, and the tracker measured a finite time-to-recover.
    EXPECT_EQ(r.rx.given_up, 0u);
    EXPECT_EQ(r.rx.datagrams, r.messages_sent);
    EXPECT_GT(r.delivered_despite_failure, 0u);
    ASSERT_TRUE(r.recovered);
    EXPECT_GT(r.time_to_recover.ns, 0);
    EXPECT_LT(r.time_to_recover.ns, chaos_probe_deadline.ns);
}

TEST(chaos_drill, same_seed_runs_emit_byte_identical_telemetry)
{
    const auto a = run_chaos_drill(chaos_config{});
    const auto b = run_chaos_drill(chaos_config{});
    ASSERT_FALSE(a.report.csv().empty());
    EXPECT_EQ(a.report.csv(), b.report.csv());
    EXPECT_EQ(a.time_to_recover.ns, b.time_to_recover.ns);
    EXPECT_EQ(a.rx.naks_sent, b.rx.naks_sent);
}

// Kill-and-revive acceptance: buf2 dies after taking over, buf1 revives
// from its archive and serves repairs for a second wave riding a
// corruption burst — messages buf2 never saw. Zero loss, zero
// duplicates, and every lifecycle stat lands exactly once.
TEST(chaos_drill, kill_and_revive_recovers_from_archive)
{
    const auto r = run_chaos_drill(kill_revive_config());

    // Phase A is the classic drill: failover to buf2, first recovery.
    EXPECT_EQ(r.rx.buffer_failovers, 1u);
    EXPECT_GT(r.buf2.retransmitted, 0u);
    ASSERT_TRUE(r.recovered);

    // The blackout was a genuine kill: buf1's software crashed, its
    // unsealed archive tail was lost and counted, and the revive
    // reloaded the sealed records.
    EXPECT_EQ(r.buf1.crashes, 1u);
    EXPECT_EQ(r.buf1.revivals, 1u);
    EXPECT_GT(r.buf1.persisted, 0u);
    EXPECT_GT(r.buf1.tail_lost, 0u);
    EXPECT_GT(r.buf1.recovered_records, 0u);
    EXPECT_EQ(r.faults.node_blackouts, 2u); // buf1, then buf2
    EXPECT_EQ(r.faults.node_restores, 1u);  // only buf1 comes back

    // The revived buf1 re-advertised; the receiver failed *back* and the
    // second wave's burst losses were repaired from the archive-backed
    // buffer — buf2 was dark and never saw wave 2.
    EXPECT_EQ(r.rx.buffer_failbacks, 1u);
    EXPECT_GT(r.buf1.retransmitted, 0u);
    ASSERT_TRUE(r.recovered2);
    EXPECT_GT(r.time_to_recover2.ns, 0);

    // Acceptance: both waves whole, nothing duplicated, nothing abandoned.
    EXPECT_EQ(r.messages_sent, kill_revive_config().messages + kill_revive_config().messages2);
    EXPECT_EQ(r.rx.datagrams, r.messages_sent);
    EXPECT_EQ(r.rx.duplicates, 0u);
    EXPECT_EQ(r.rx.given_up, 0u);
}

TEST(chaos_drill, kill_and_revive_same_seed_byte_identical)
{
    const auto a = run_chaos_drill(kill_revive_config());
    const auto b = run_chaos_drill(kill_revive_config());
    ASSERT_FALSE(a.report.csv().empty());
    EXPECT_EQ(a.report.csv(), b.report.csv());
    ASSERT_FALSE(a.metrics_csv.empty());
    EXPECT_EQ(a.metrics_csv, b.metrics_csv);
    EXPECT_EQ(a.time_to_recover2.ns, b.time_to_recover2.ns);
}

// Record/replay: a recorded run's archive blob re-derives the metrics
// snapshot byte-for-byte without re-running the simulation, and two
// same-seed recordings are bit-identical blobs.
TEST(chaos_drill, recording_replays_byte_identical_metrics)
{
    auto cfg = kill_revive_config();
    cfg.record = true;
    const auto r = run_chaos_drill(cfg);
    ASSERT_FALSE(r.recording.empty());

    auto rep = telemetry::run_replayer::open(r.recording);
    ASSERT_TRUE(rep.has_value());
    EXPECT_TRUE(rep->verify());
    EXPECT_EQ(rep->scenario(), "chaos");
    EXPECT_EQ(rep->seed(), cfg.seed);
    EXPECT_EQ(rep->metrics_csv(), r.metrics_csv);
    EXPECT_EQ(rep->report_csv(), r.report.csv());

    const auto r2 = run_chaos_drill(cfg);
    EXPECT_EQ(r.recording, r2.recording);
}

// The persistence plumbing must not perturb the classic drill: buf1
// persists every relay, but with the revive phase disabled the archive
// is never read back and no lifecycle event fires.
TEST(chaos_drill, classic_drill_unchanged_by_persistence)
{
    const auto r = run_chaos_drill(chaos_config{});
    EXPECT_GT(r.buf1.persisted, 0u);
    EXPECT_EQ(r.buf1.crashes, 0u);
    EXPECT_EQ(r.buf1.revivals, 0u);
    EXPECT_EQ(r.buf1.recovered_records, 0u);
    EXPECT_EQ(r.rx.buffer_failbacks, 0u);
    EXPECT_FALSE(r.recovered2);
    EXPECT_TRUE(r.recording.empty());
}

TEST(chaos_drill, duplication_subscriber_pruned_on_feed_failure)
{
    chaos_config cfg;
    auto tb = make_chaos(cfg);
    EXPECT_EQ(tb->duplication->subscriber_count(wire::experiments::iceberg), 2u);
    tb->net.sim().run();
    // The health listener removed buf1 when its feed went down.
    EXPECT_EQ(tb->duplication->subscriber_count(wire::experiments::iceberg), 1u);
    // And the planner's view of the primary span is down, budget-free.
    EXPECT_FALSE(tb->planner.link_up("wan-primary"));
    EXPECT_EQ(tb->planner.available("wan-primary").bits_per_sec, 0u);
    // The rerouted flow now runs on the backup path.
    ASSERT_NE(tb->planner.flow(tb->flow), nullptr);
    EXPECT_EQ(tb->planner.flow(tb->flow)->path,
              (std::vector<control::link_id>{"daq", "wan-backup"}));
}
