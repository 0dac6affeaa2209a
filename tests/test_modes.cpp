// test_modes — runtime mode shifting, end to end.
//
// Covers the epoch-versioned make-before-break machinery at three
// levels: the mode_transition_stage's epoch rule matching (every ordered
// pair of pilot modes, with a transition mid-stream), the policy
// engine's posture state machine (plan/install/commit/abort, hysteresis
// inputs), and the shapeshift drill as the closed loop end to end
// (everything delivered across ≥1 runtime shift, byte-identical
// same-seed reruns). Also pins the timing_profile alias contract the
// control plane's suggested_nak_retry flows through.
#include "control/policy.hpp"
#include "control/policy_engine.hpp"
#include "mmtp/receiver.hpp"
#include "mmtp/sender.hpp"
#include "netsim/network.hpp"
#include "pnet/element.hpp"
#include "pnet/stages.hpp"
#include "scenario/shapeshift.hpp"
#include "wire/build.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace mmtp;
using namespace mmtp::netsim;
using namespace mmtp::pnet;
using namespace mmtp::literals;

namespace {

packet_context make_ctx(const wire::header& h)
{
    packet_context ctx;
    wire::build_mmtp_over_ipv4(ctx.pkt.headers, 0x02, 0x0a000001, 0x0a000002, h, 1000);
    ctx.pkt.virtual_payload = 1000;
    ctx.pkt.id = 1;
    ctx.now = sim_time::zero();
    EXPECT_TRUE(parse_context(ctx));
    return ctx;
}

/// An origin-mode data header for the test stream, stamped with `epoch`.
wire::header origin_header(std::uint8_t epoch)
{
    wire::header h;
    h.experiment = wire::make_experiment_id(6, 0);
    h.m.set(wire::feature::timestamped);
    h.m.cfg_id = epoch;
    h.timestamp_ns = 0;
    return h;
}

// --- the three pilot modes, as feature-bit sets -------------------------

struct pilot_mode {
    const char* name;
    std::uint32_t bits;
};

constexpr std::uint32_t bit(wire::feature f) { return wire::feature_bit(f); }

const pilot_mode kIdentification{"identification", 0};
const pilot_mode kWanReliable{"wan_reliable",
                              bit(wire::feature::sequencing)
                                  | bit(wire::feature::retransmission)
                                  | bit(wire::feature::timeliness)
                                  | bit(wire::feature::backpressure)};
const pilot_mode kDestinationCheck{"destination_check", bit(wire::feature::timeliness)};

const pilot_mode kPilotModes[] = {kIdentification, kWanReliable, kDestinationCheck};

/// Every feature bit the mode rules manage in this matrix.
constexpr std::uint32_t kManagedBits = bit(wire::feature::sequencing)
    | bit(wire::feature::retransmission) | bit(wire::feature::timeliness)
    | bit(wire::feature::backpressure) | bit(wire::feature::pacing);

/// The rule that shifts an origin-mode datagram into `m`.
mode_rule rule_for(const pilot_mode& m)
{
    mode_rule r;
    r.experiment = 6;
    r.set_bits = m.bits;
    r.clear_bits = kManagedBits & ~m.bits;
    if ((m.bits & bit(wire::feature::retransmission)) != 0) r.buffer_addr = 0x0a000042;
    if ((m.bits & bit(wire::feature::timeliness)) != 0) {
        r.deadline_us = 9000;
        r.notify_addr = 0x0a000043;
    }
    return r;
}

/// Asserts the processed packet carries exactly `m`'s managed bits —
/// never a blend of two epochs' modes.
void expect_exact_mode(const packet_context& ctx, const pilot_mode& m,
                       std::uint8_t epoch)
{
    ASSERT_TRUE(ctx.mmtp.has_value());
    EXPECT_EQ(ctx.mmtp->m.cfg_id, epoch) << "epoch restamped in flight";
    EXPECT_EQ(ctx.mmtp->m.cfg_data & kManagedBits, m.bits)
        << "packet under epoch " << unsigned(epoch) << " is not exactly mode "
        << m.name;
    EXPECT_TRUE(ctx.mmtp->consistent());
}

} // namespace

// ------------------------------------------------- ordered-pair matrix

/// For every ordered pair (from, to) of pilot modes: run a stream under
/// `from` (epoch 0), install `to` as epoch 1 mid-stream, and check the
/// make-before-break invariants — in-flight epoch-0 datagrams keep
/// getting epoch-0 treatment, epoch-1 datagrams get exactly epoch-1
/// treatment, sequence numbers stay continuous (no drop, no dup), and
/// retiring epoch 0 leaves stragglers untouched rather than misclassified.
TEST(mode_matrix, every_ordered_pair_shifts_mid_stream)
{
    for (const auto& from : kPilotModes) {
        for (const auto& to : kPilotModes) {
            SCOPED_TRACE(std::string(from.name) + " -> " + to.name);
            mode_transition_stage stage;
            element_state st;

            stage.install_epoch(0, {rule_for(from)}, &st);
            ASSERT_TRUE(stage.has_epoch(0));

            // Sequences are assigned from a shared register, continuous
            // across epochs: every fresh assignment must be the next
            // integer — a repeat would be a duplicate, a skip a drop.
            std::uint64_t expected_seq = 0;
            auto process = [&](std::uint8_t epoch, const pilot_mode& m) {
                auto ctx = make_ctx(origin_header(epoch));
                stage.process(ctx, st);
                expect_exact_mode(ctx, m, epoch);
                if ((m.bits & bit(wire::feature::sequencing)) != 0) {
                    ASSERT_TRUE(ctx.mmtp->sequencing.has_value());
                    EXPECT_EQ(ctx.mmtp->sequencing->sequence, expected_seq++);
                }
            };

            for (int i = 0; i < 4; ++i) process(0, from);

            // Make: epoch 1 goes live ahead of epoch 0.
            stage.install_epoch(1, {rule_for(to)}, &st);
            ASSERT_TRUE(stage.has_epoch(1));
            ASSERT_TRUE(stage.has_epoch(0)) << "old epoch must survive the install";

            // Both epochs in flight, interleaved: each datagram gets its
            // own epoch's treatment.
            for (int i = 0; i < 3; ++i) {
                process(1, to);
                process(0, from);
            }

            // Break: after the drain window the old epoch is retired.
            EXPECT_EQ(stage.retire_epoch(0, &st), 1u);
            EXPECT_FALSE(stage.has_epoch(0));
            process(1, to);

            // A post-retirement epoch-0 straggler matches nothing: it
            // passes through in origin mode, never misclassified into
            // the new epoch's mode.
            auto straggler = make_ctx(origin_header(0));
            stage.process(straggler, st);
            EXPECT_EQ(straggler.mmtp->m.cfg_data & kManagedBits, 0u);
            EXPECT_FALSE(straggler.mmtp->sequencing.has_value());

            EXPECT_EQ(st.counter("mode_shifts"), 2u);
            EXPECT_EQ(st.counter("epochs_retired"), 1u);
        }
    }
}

// ------------------------------------------------- policy engine (unit)

namespace {

/// A minimal control-plane fixture: one switch on a daq→wan path, no
/// traffic — just the engine, the map, and an attached mode stage.
struct engine_fixture {
    network net{1};
    pnet::programmable_switch* sw;
    netsim::host* buf_host;
    std::shared_ptr<mode_transition_stage> stage;
    control::resource_map rmap;
    control::policy_inputs pin;

    engine_fixture()
    {
        buf_host = &net.add_host("dtn");
        sw = &net.emplace<pnet::programmable_switch>("sw", pnet::tofino2_profile());
        stage = std::make_shared<mode_transition_stage>();
        sw->add_stage(stage);
        rmap.add({control::resource_kind::retransmission_buffer, buf_host->address(),
                  "dtn-buffer", 1ull << 30, 1_s, "site"});
        rmap.add({control::resource_kind::programmable_switch, sw->address(), "sw", 0,
                  sim_duration::zero(), "site"});
        pin.experiment = 6;
        pin.segments = {
            {control::path_segment::kind::daq, sim_duration{1000},
             data_rate::from_gbps(100), false, 0},
            {control::path_segment::kind::wan, 1_ms, data_rate::from_gbps(10), true,
             sw->address()},
        };
        pin.recovery_buffer = buf_host->address();
    }

    control::policy_engine_config config(control::mode_preset preset)
    {
        control::policy_engine_config c;
        c.preset = preset;
        c.inputs = pin;
        c.poll_until = sim_time::zero(); // no polls: requests are manual
        c.drain_window = 2_ms;
        return c;
    }
};

} // namespace

TEST(policy_engine, static_preset_matches_compile_modes_and_aborts_requests)
{
    engine_fixture f;
    control::policy_engine pe(f.net.sim(), f.rmap,
                              f.config(control::mode_preset::static_preset));
    pe.attach_element(*f.sw, f.stage);
    pe.start();

    // The static preset is compile_modes() verbatim.
    const auto direct = control::compile_modes(f.pin, f.rmap);
    EXPECT_EQ(to_string(pe.current().origin_mode), to_string(direct.origin_mode));
    EXPECT_EQ(pe.current().deadline_us, direct.deadline_us);
    EXPECT_EQ(pe.current().suggested_nak_retry.ns, direct.suggested_nak_retry.ns);
    EXPECT_EQ(pe.current().transitions.size(), direct.transitions.size());

    // Installed as epoch-agnostic rules — the pre-reconfiguration shape.
    EXPECT_GE(f.stage->rule_count(), 1u);
    EXPECT_FALSE(f.stage->has_epoch(0));

    // A static engine never reconfigures: requests abort.
    EXPECT_FALSE(pe.request(control::posture::buffered));
    EXPECT_EQ(pe.stats().reconfigs_aborted, 1u);
    EXPECT_EQ(pe.epoch(), 0u);

    f.net.sim().run();
    EXPECT_EQ(pe.stats().polls, 0u); // static engines do not poll
}

TEST(policy_engine, epoch_lifecycle_make_before_break)
{
    engine_fixture f;
    control::policy_engine pe(f.net.sim(), f.rmap,
                              f.config(control::mode_preset::closed_loop));
    pe.attach_element(*f.sw, f.stage);
    pe.start();

    // Closed-loop epoch 0 rules match their epoch exactly.
    EXPECT_TRUE(f.stage->has_epoch(0));
    const auto baseline_deadline = pe.current().deadline_us;
    ASSERT_GT(baseline_deadline, 0u);

    // buffered: timeliness stripped, the deadline dropped entirely.
    ASSERT_TRUE(pe.request(control::posture::buffered));
    EXPECT_EQ(pe.epoch(), 1u);
    EXPECT_TRUE(f.stage->has_epoch(1));
    EXPECT_TRUE(f.stage->has_epoch(0)) << "make before break";
    EXPECT_EQ(pe.current().deadline_us, 0u);
    EXPECT_EQ(pe.pending_commits(), 1u);

    // Same posture again: duplicate, aborted.
    EXPECT_FALSE(pe.request(control::posture::buffered));
    EXPECT_EQ(pe.stats().reconfigs_aborted, 1u);

    // An explicit de-escalation: back to baseline under epoch 2, with the
    // compiled deadline restored.
    ASSERT_TRUE(pe.request(control::posture::baseline));
    EXPECT_EQ(pe.epoch(), 2u);
    EXPECT_TRUE(f.stage->has_epoch(2));
    EXPECT_EQ(pe.current().deadline_us, baseline_deadline);
    EXPECT_EQ(pe.pending_commits(), 2u);

    // Degrade once more: buffered under a fourth epoch.
    ASSERT_TRUE(pe.request(control::posture::buffered));
    EXPECT_EQ(pe.epoch(), 3u);
    EXPECT_EQ(pe.current().deadline_us, 0u);
    EXPECT_EQ(pe.pending_commits(), 3u);

    // Drain windows elapse: the old epochs' rules are retired, the
    // newest survives.
    f.net.sim().run();
    EXPECT_EQ(pe.pending_commits(), 0u);
    EXPECT_FALSE(f.stage->has_epoch(0));
    EXPECT_FALSE(f.stage->has_epoch(1));
    EXPECT_FALSE(f.stage->has_epoch(2));
    EXPECT_TRUE(f.stage->has_epoch(3));

    EXPECT_EQ(pe.stats().reconfigs_planned, 4u); // aborted plans count too
    EXPECT_EQ(pe.stats().reconfigs_installed, 4u); // start + 3 shifts
    EXPECT_EQ(pe.stats().reconfigs_committed, 3u);
    EXPECT_EQ(pe.stats().reconfigs_aborted, 1u);
    EXPECT_EQ(f.sw->state().counter("mode_shifts"), 4u);
    EXPECT_EQ(f.sw->state().counter("epochs_retired"), 3u);
}

// --------------------------------------------- shapeshift drill (e2e)

TEST(shapeshift, runtime_shift_delivers_everything_exactly_once)
{
    scenario::shapeshift_config cfg;
    const auto r = scenario::run_shapeshift_drill(cfg);

    // The injected degradation forced at least one full runtime shift.
    EXPECT_GE(r.ctl.reconfigs_committed, 1u);
    EXPECT_GE(r.mode_shifts, 1u);
    EXPECT_GE(r.epochs_retired, 1u);
    EXPECT_EQ(r.ctl.reconfigs_aborted, 0u);
    EXPECT_GE(r.ctl.loss_triggers, 1u);

    // No drop, no dup, no tail loss — despite the burst.
    EXPECT_TRUE(r.all_delivered);
    EXPECT_EQ(r.delivered, r.messages_sent);
    EXPECT_EQ(r.rx.duplicates, 0u);
    EXPECT_EQ(r.rx.given_up, 0u);
    EXPECT_GT(r.wan.corrupted, 0u) << "the burst must actually bite";

    // Deliveries span multiple epochs, and only epochs the engine
    // actually minted — a stray cfg_id would be a mixed-epoch delivery.
    EXPECT_GE(r.delivered_by_epoch.size(), 2u);
    std::uint64_t total = 0;
    for (const auto& [epoch, count] : r.delivered_by_epoch) {
        EXPECT_LE(epoch, r.final_epoch);
        total += count;
    }
    EXPECT_EQ(total, r.delivered);

    // The loop came back down after the burst.
    EXPECT_GE(r.ctl.restores, 1u);
    EXPECT_EQ(r.final_posture, "baseline");
}

TEST(shapeshift, same_seed_reruns_are_byte_identical)
{
    scenario::shapeshift_config cfg;
    const auto a = scenario::run_shapeshift_drill(cfg);
    const auto b = scenario::run_shapeshift_drill(cfg);
    EXPECT_EQ(a.report.csv(), b.report.csv());
    EXPECT_EQ(a.metrics_csv, b.metrics_csv);
    EXPECT_EQ(a.reconfig_timeline, b.reconfig_timeline);
}

TEST(shapeshift, clean_run_never_reconfigures)
{
    scenario::shapeshift_config cfg;
    cfg.burst_ber = 0.0; // degradation disabled
    const auto r = scenario::run_shapeshift_drill(cfg);
    EXPECT_TRUE(r.all_delivered);
    EXPECT_EQ(r.ctl.reconfigs_planned, 0u);
    EXPECT_EQ(r.ctl.reconfigs_committed, 0u);
    EXPECT_EQ(r.final_epoch, 0u);
    EXPECT_EQ(r.final_posture, "baseline");
    EXPECT_EQ(r.delivered_by_epoch.size(), 1u);
    EXPECT_EQ(r.delivered_by_epoch.count(0), 1u);
}
