// Unit tests for the control plane: the capacity planner and the
// mode-policy compiler.
#include "control/planner.hpp"
#include "control/policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace mmtp;
using namespace mmtp::control;
using namespace mmtp::literals;

// --------------------------------------------------------------- planner

TEST(planner, admits_within_budget_rejects_beyond)
{
    capacity_planner p;
    p.register_link("wan", data_rate::from_gbps(100), 0.05); // 95G usable
    const std::vector<link_id> path{"wan"};
    auto f1 = p.admit(path, data_rate::from_gbps(60));
    ASSERT_TRUE(f1.has_value());
    EXPECT_FALSE(p.admit(path, data_rate::from_gbps(40)).has_value()); // 60+40 > 95
    auto f2 = p.admit(path, data_rate::from_gbps(30));
    EXPECT_TRUE(f2.has_value());
    EXPECT_NEAR(p.committed("wan").gbps(), 90.0, 0.01);
    EXPECT_NEAR(p.available("wan").gbps(), 5.0, 0.01);
}

TEST(planner, release_frees_capacity)
{
    capacity_planner p;
    p.register_link("l", data_rate::from_gbps(10), 0.0);
    auto f = p.admit({"l"}, data_rate::from_gbps(10));
    ASSERT_TRUE(f.has_value());
    EXPECT_FALSE(p.admit({"l"}, data_rate::from_gbps(1)).has_value());
    p.release(*f);
    EXPECT_TRUE(p.admit({"l"}, data_rate::from_gbps(1)).has_value());
    EXPECT_EQ(p.flow_count(), 1u);
}

TEST(planner, multi_link_paths_must_fit_everywhere)
{
    capacity_planner p;
    p.register_link("a", data_rate::from_gbps(100), 0.0);
    p.register_link("b", data_rate::from_gbps(10), 0.0);
    EXPECT_FALSE(p.admit({"a", "b"}, data_rate::from_gbps(20)).has_value());
    EXPECT_TRUE(p.admit({"a", "b"}, data_rate::from_gbps(10)).has_value());
}

TEST(planner, unknown_link_rejected_but_unchecked_allows_overbooking)
{
    capacity_planner p;
    p.register_link("l", data_rate::from_gbps(1), 0.0);
    EXPECT_FALSE(p.admit({"nope"}, data_rate::from_mbps(1)).has_value());
    // ablation A2: deliberate overbooking
    p.admit_unchecked({"l"}, data_rate::from_gbps(5));
    EXPECT_NEAR(p.committed("l").gbps(), 5.0, 0.01);
    EXPECT_EQ(p.available("l").bits_per_sec, 0u);
}

// The deferred-admission queue under sustained churn: a thousand
// park/reopen cycles against a gated link, with long-lived flows holding
// budget throughout. Every parked request must admit exactly once (FIFO),
// every admitted flow release cleanly, and the budget must return to
// exactly its starting point — no leaked commitment, no double admit.
TEST(planner, thousand_cycle_deferred_churn_is_exact)
{
    capacity_planner p;
    p.register_link("daq", data_rate::from_gbps(100));
    p.register_link("wan", data_rate::from_gbps(100));

    // Long-lived occupants so churn runs against a partially full link.
    const auto trunk1 = p.admit({"daq", "wan"}, data_rate::from_gbps(30));
    const auto trunk2 = p.admit({"daq", "wan"}, data_rate::from_gbps(30));
    ASSERT_TRUE(trunk1 && trunk2);
    const auto baseline = p.committed("wan").bits_per_sec;

    std::vector<flow_id> admitted;
    const auto churn_rate = data_rate::from_mbps(10);
    for (int cycle = 0; cycle < 1000; ++cycle) {
        p.set_admissible("daq", false);
        // Parked behind the gate...
        EXPECT_FALSE(
            p.admit_or_defer({"daq", "wan"}, churn_rate,
                             [&](flow_id id) { admitted.push_back(id); })
                .has_value());
        // ...admitted (FIFO) the moment it reopens.
        p.set_admissible("daq", true);
        ASSERT_EQ(admitted.size(), static_cast<std::size_t>(cycle + 1));
        p.release(admitted.back());
    }

    EXPECT_EQ(p.stats().admissions_deferred, 1000u);
    EXPECT_EQ(p.stats().deferred_admitted, 1000u);
    EXPECT_EQ(p.flow_count(), 2u); // only the trunks remain
    EXPECT_EQ(p.committed("wan").bits_per_sec, baseline);
    EXPECT_EQ(p.committed("daq").bits_per_sec, baseline);

    // Flow ids never repeated: each churn admission was a distinct flow.
    std::vector<flow_id> sorted = admitted;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end());
}

// release() must retry the deferred queue: a request parked because the
// link was *full* (not gated) admits as soon as capacity frees up.
TEST(planner, release_drains_deferred_queue)
{
    capacity_planner p;
    p.register_link("wan", data_rate::from_gbps(10));
    const auto big = p.admit({"wan"}, data_rate::from_gbps(9));
    ASSERT_TRUE(big.has_value());

    // Gate, park, reopen while still full: stays parked (budget refusal
    // keeps it queued rather than dropping it).
    p.set_admissible("wan", false);
    std::vector<flow_id> admitted;
    EXPECT_FALSE(p.admit_or_defer({"wan"}, data_rate::from_gbps(5),
                                  [&](flow_id id) { admitted.push_back(id); })
                     .has_value());
    p.set_admissible("wan", true);
    EXPECT_TRUE(admitted.empty());

    p.release(*big);
    ASSERT_EQ(admitted.size(), 1u);
    EXPECT_NE(p.flow(admitted[0]), nullptr);
    EXPECT_EQ(p.stats().deferred_admitted, 1u);
}

// Failure handling is incremental: only flows actually crossing the
// failed link are touched, and the reroute callbacks arrive in ascending
// flow-id order (the per-link crossing index is snapshotted and sorted,
// so the hashed tables never leak iteration order).
TEST(planner, link_down_touches_only_crossing_flows_in_id_order)
{
    capacity_planner p;
    p.register_link("daq", data_rate::from_gbps(100));
    p.register_link("wan-a", data_rate::from_gbps(50));
    p.register_link("wan-b", data_rate::from_gbps(50));

    std::vector<flow_id> on_a, elsewhere;
    for (int i = 0; i < 40; ++i) {
        const auto& target = (i % 2 == 0) ? "wan-a" : "wan-b";
        const auto f = p.admit({"daq", target}, data_rate::from_mbps(100));
        ASSERT_TRUE(f.has_value());
        if (i % 2 == 0) {
            ASSERT_TRUE(p.register_backup_path(*f, {"daq", "wan-b"}));
            on_a.push_back(*f);
        } else {
            elsewhere.push_back(*f);
        }
    }

    std::vector<flow_id> rerouted;
    p.set_reroute_handler(
        [&](const admission& f, bool ok) {
            EXPECT_TRUE(ok);
            rerouted.push_back(f.id);
        });
    p.handle_link_down("wan-a");

    EXPECT_EQ(rerouted, on_a); // exactly the crossing flows, ascending id
    EXPECT_EQ(p.stats().flows_rerouted, on_a.size());
    for (const auto f : elsewhere) {
        ASSERT_NE(p.flow(f), nullptr);
        EXPECT_EQ(p.flow(f)->path.back(), "wan-b"); // untouched
    }
    EXPECT_EQ(p.committed("wan-a").bits_per_sec, 0u);
}

// ---------------------------------------------------------------- policy

namespace {

policy_inputs pilot_like_inputs()
{
    policy_inputs in;
    in.experiment = 6;
    in.segments = {
        {path_segment::kind::daq, 1_us, data_rate::from_gbps(100), false, 0},
        {path_segment::kind::wan, 10_ms, data_rate::from_gbps(100), true, 0x0a000010},
        {path_segment::kind::campus, 1_ms, data_rate::from_gbps(100), false, 0x0a000020},
    };
    in.recovery_buffer = 0x0a000002;
    in.notify_addr = 0x0a000002;
    return in;
}

} // namespace

TEST(policy, pilot_three_mode_structure)
{
    const auto plan = compile_modes(pilot_like_inputs());

    EXPECT_EQ(plan.origin_mode.cfg_data, 0u); // mode 0 at the sensor
    ASSERT_EQ(plan.transitions.size(), 2u);

    // WAN boundary: sequencing + recovery + timeliness + backpressure
    const auto& wan = plan.transitions[0];
    EXPECT_EQ(wan.element, 0x0a000010u);
    EXPECT_TRUE(wan.resulting_mode.has(wire::feature::sequencing));
    EXPECT_TRUE(wan.resulting_mode.has(wire::feature::retransmission));
    EXPECT_TRUE(wan.resulting_mode.has(wire::feature::timeliness));
    EXPECT_TRUE(wan.resulting_mode.has(wire::feature::backpressure));
    EXPECT_EQ(wan.rule.buffer_addr.value_or(0), 0x0a000002u);

    // campus boundary: signalling stripped, recovery info kept for DTN2
    const auto& campus = plan.transitions[1];
    EXPECT_EQ(campus.element, 0x0a000020u);
    EXPECT_FALSE(campus.resulting_mode.has(wire::feature::backpressure));
    EXPECT_TRUE(campus.resulting_mode.has(wire::feature::retransmission));
    EXPECT_TRUE(campus.resulting_mode.has(wire::feature::timeliness));
}

TEST(policy, deadline_scales_with_path_latency)
{
    auto in = pilot_like_inputs();
    const auto short_plan = compile_modes(in);
    in.segments[1].one_way_latency = 100_ms;
    const auto long_plan = compile_modes(in);
    EXPECT_GT(long_plan.deadline_us, short_plan.deadline_us);
    // slack x path + allowance: 3 x ~11 ms + 2 ms ≈ 35 ms
    EXPECT_NEAR(static_cast<double>(short_plan.deadline_us), 35000.0, 2000.0);
}

TEST(policy, nak_retry_exceeds_recovery_rtt)
{
    const auto plan = compile_modes(pilot_like_inputs());
    // recovery RTT ≈ 2*(10ms+1ms) = 22 ms; retry must exceed it
    EXPECT_GT(plan.suggested_nak_retry.ns, (22_ms).ns);
}
