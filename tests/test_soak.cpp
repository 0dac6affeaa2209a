// Soak-scale tests (ctest label `soak`): the facility drill itself —
// five concurrent experiments over shared spans and DTNs under the
// fault-and-overload storm — plus the counter-width and bounded-growth
// properties that only matter at soak scale: u48 sequence rollover into
// the u16 stream epoch, the full 24-bit cfg_data width, multi-million
// sequence gaps, register-cell collision freedom for the facility
// stream set, and receiver stream retirement.
#include "mmtp/buffer_service.hpp"
#include "mmtp/receiver.hpp"
#include "pnet/element.hpp"
#include "pnet/stages.hpp"
#include "scenario/soak.hpp"
#include "wire/build.hpp"
#include "wire/header.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <set>
#include <string>

using namespace mmtp;
using namespace mmtp::core;
using namespace mmtp::netsim;
using namespace mmtp::literals;

// ------------------------------------------------------ the soak drill

// The acceptance run: 5 experiments × 4 slices × 500 messages with the
// full storm script, ending whole — everything delivered exactly once,
// zero give-ups, every control-plane layer demonstrably exercised — and
// byte-identical telemetry on a same-seed rerun even though every
// hot-path lookup underneath is hashed.
TEST(soak_drill, smoke_run_is_whole_and_deterministic)
{
    const auto cfg = scenario::soak_smoke_config();
    const auto r = scenario::run_soak_drill(cfg);

    // Wholeness: every message of every experiment, exactly once.
    EXPECT_EQ(r.messages_sent, 10000u);
    EXPECT_EQ(r.delivered, r.messages_sent);
    EXPECT_TRUE(r.all_delivered);
    EXPECT_TRUE(r.all_experiments_complete);
    ASSERT_EQ(r.delivered_by_experiment.size(), scenario::soak_experiments);
    for (const auto& [exp, n] : r.delivered_by_experiment)
        EXPECT_EQ(n, cfg.slices_per_experiment * cfg.messages_per_stream)
            << "experiment " << exp;
    EXPECT_EQ(r.rx.duplicates, 0u);
    EXPECT_EQ(r.rx.given_up, 0u);

    // The storm actually bit, and recovery answered it.
    EXPECT_GT(r.wan_primary.corrupted, 0u);
    EXPECT_GT(r.wan_backup.corrupted, 0u);
    EXPECT_GT(r.rx.recovered, 0u);
    EXPECT_TRUE(r.rerouted_all_trunks);
    EXPECT_EQ(r.planner.flows_rerouted, scenario::soak_experiments);
    EXPECT_TRUE(r.recovered_after_reroute);

    // DTN2 kill-and-revive: in-memory state died, the durable store's
    // sealed chunks came back.
    EXPECT_EQ(r.dtn2.crashes, 1u);
    EXPECT_EQ(r.dtn2.revivals, 1u);
    EXPECT_GT(r.dtn2.recovered_records, 0u);
    EXPECT_GT(r.dtn2.relayed, 0u); // the duplication tap received clones

    // All five closed-loop engines reacted in the same run as the fault
    // subsystem (the drill's integration claim).
    EXPECT_GT(r.loss_triggers, 0u);
    EXPECT_EQ(r.health_triggers, scenario::soak_experiments);
    EXPECT_GE(r.reconfigs_committed, scenario::soak_experiments);
    EXPECT_GT(r.restores, 0u);

    // Churn ran against the pressure gate and the deferred queue drained
    // fully: requests = releases, parked = admitted, nothing leaked.
    EXPECT_GT(r.churn_requests, 0u);
    EXPECT_EQ(r.churn_released, r.churn_requests);
    EXPECT_GT(r.planner.admissions_deferred, 0u);
    EXPECT_EQ(r.planner.deferred_admitted, r.planner.admissions_deferred);

    // Bounded growth: every completed stream retired, every pressure
    // suppression record pruned.
    EXPECT_EQ(r.streams_retired, r.streams_seen);
    EXPECT_EQ(r.streams_live_at_end, 0u);
    EXPECT_GT(r.signals_pruned, 0u);

    // Same seed, same bytes — the determinism contract of DESIGN.md §14.
    const auto rerun = scenario::run_soak_drill(cfg);
    EXPECT_EQ(r.report.csv(), rerun.report.csv());
    EXPECT_EQ(r.metrics_csv, rerun.metrics_csv);
}

// describe() counts the messages the traffic loop schedules: a masked
// experiment sends nothing and an override replaces messages_per_stream.
TEST(soak_drill, describe_counts_the_enabled_experiments_and_overrides)
{
    EXPECT_EQ(scenario::soak_driver().describe(),
              "facility soak: 5 experiments x 4 slices x 50000 messages (1000000 total) "
              "under a fault-and-overload storm");
    EXPECT_EQ(scenario::soak_driver(scenario::soak_smoke_config()).describe(),
              "facility soak: 5 experiments x 4 slices x 500 messages (10000 total) "
              "under a fault-and-overload storm");

    auto cfg = scenario::soak_smoke_config();
    cfg.slices_per_experiment = 2;
    cfg.experiment_mask = 0b10101;     // cms, ecce, rubin
    cfg.experiment_messages[2] = 120;  // ecce
    cfg.experiment_messages[3] = 9999; // mu2e: masked, never sent
    ASSERT_EQ(cfg.expected_messages(), 2u * 500 + 2u * 120 + 2u * 500);
    EXPECT_EQ(scenario::soak_driver(cfg).describe(),
              "facility soak: 3 experiments x 2 slices x 500 messages (2240 total) "
              "under a fault-and-overload storm");
}

// ------------------------------------------------- sequencing rollover

namespace {

pnet::packet_context make_ctx(const wire::header& h)
{
    pnet::packet_context ctx;
    wire::build_mmtp_over_ipv4(ctx.pkt.headers, 0x02, 0x0a000001, 0x0a000002, h, 512);
    ctx.pkt.virtual_payload = 512;
    ctx.pkt.id = 1;
    EXPECT_TRUE(pnet::parse_context(ctx));
    return ctx;
}

} // namespace

// The element's sequence register is a u64 cell split 48/16 on the wire:
// the low 48 bits are the sequence, the high 16 the stream epoch. At
// soak message counts the 48-bit space is still far away, so the
// boundary is probed by synthetic fast-forward: park the cell one short
// of 2^48 and let two packets cross it. The sequence must wrap to 0
// exactly as the epoch increments — not saturate, not bleed into the
// epoch bits.
TEST(counter_width, sequencing_u48_rolls_over_into_epoch)
{
    pnet::mode_transition_stage stage;
    pnet::mode_rule r;
    r.match_any_experiment = true;
    r.set_bits = wire::feature_bit(wire::feature::sequencing);
    stage.add_rule(r);

    pnet::element_state st;
    const auto id = wire::make_experiment_id(wire::experiments::cms_l1, 0);
    st.create_register("mode_seq", pnet::mode_transition_stage::seq_register_cells);
    st.reg("mode_seq", pnet::mode_transition_stage::seq_cell_of(id)) =
        (1ull << 48) - 1; // fast-forward to the last u48 sequence

    wire::header h;
    h.experiment = id;
    h.m.set(wire::feature::timestamped);
    h.timestamp_ns = 0;

    auto last = make_ctx(h);
    stage.process(last, st);
    ASSERT_TRUE(last.mmtp->sequencing.has_value());
    EXPECT_EQ(last.mmtp->sequencing->sequence, 0xffffffffffffull);
    EXPECT_EQ(last.mmtp->sequencing->epoch, 0u);

    auto wrapped = make_ctx(h);
    stage.process(wrapped, st);
    ASSERT_TRUE(wrapped.mmtp->sequencing.has_value());
    EXPECT_EQ(wrapped.mmtp->sequencing->sequence, 0u);
    EXPECT_EQ(wrapped.mmtp->sequencing->epoch, 1u);
}

// ------------------------------------------------------- cfg_data width

// cfg_data is 24 bits on the wire. Every defined feature bit must
// round-trip through serialize/parse at once (alongside a full-width
// cfg_id), and any of the reserved upper bits must fail parse closed —
// a truncating cast in either direction would pass narrower tests.
TEST(counter_width, cfg_data_full_24_bit_round_trip)
{
    static_assert(wire::known_feature_mask < (1u << 24));

    wire::header h;
    h.m.cfg_id = 0xff;
    h.m.cfg_data = wire::known_feature_mask;
    h.experiment = wire::make_experiment_id(wire::experiments::vera_rubin, 0xfff);
    h.sequencing = wire::sequencing_field{0xffffffffffffull, 0xffff};
    h.retransmission = wire::retransmission_field{0x0a0000ff};
    h.timeliness = wire::timeliness_field{1000, 2000, 0, 0x0a000010};
    h.pacing = wire::pacing_field{40000};
    h.control = wire::control_type::nak;
    h.timestamp_ns = 0xffffffffffffffffull;
    ASSERT_TRUE(h.consistent());

    byte_writer w;
    ASSERT_TRUE(wire::serialize(h, w));
    const auto parsed = wire::parse(w.view());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->m.cfg_id, 0xffu);
    EXPECT_EQ(parsed->m.cfg_data, wire::known_feature_mask);
    EXPECT_EQ(parsed->experiment, h.experiment);
    ASSERT_TRUE(parsed->sequencing.has_value());
    EXPECT_EQ(parsed->sequencing->sequence, 0xffffffffffffull);
    EXPECT_EQ(parsed->sequencing->epoch, 0xffffu);

    // Reserved bits up to the top of the 24-bit field fail closed.
    // serialize() itself refuses them, so corrupt the wire bytes: the
    // big-endian u24 cfg_data occupies bytes 1..3 of the core header.
    for (std::uint32_t bit = 9; bit < 24; ++bit) {
        wire::header plain;
        plain.experiment = h.experiment;
        byte_writer bw;
        ASSERT_TRUE(wire::serialize(plain, bw));
        auto bytes = bw.take();
        bytes[1 + (2 - bit / 8)] |= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_FALSE(wire::parse(bytes).has_value()) << "bit " << bit;
    }
}

// --------------------------------------------- receiver counter widths

namespace {

struct rx_rig {
    rx_rig(std::uint64_t seed, receiver_config cfg)
        : net(seed), src(net.add_host("src")), dst(net.add_host("dst"))
    {
        net.connect(src, dst, link_config{});
        net.compute_routes();
        s_src = std::make_unique<stack>(src, net.ids());
        s_dst = std::make_unique<stack>(dst, net.ids());
        rx = std::make_unique<receiver>(*s_dst, cfg);
    }

    void send(wire::experiment_id exp, std::uint64_t seq, std::uint16_t epoch,
              bool recoverable = true)
    {
        wire::header h;
        h.experiment = exp;
        h.m.set(wire::feature::sequencing);
        h.sequencing = wire::sequencing_field{seq, epoch};
        if (recoverable) {
            h.m.set(wire::feature::retransmission);
            h.retransmission = wire::retransmission_field{src.address()};
        }
        s_src->send_datagram(dst.address(), h, {}, 100);
    }

    network net;
    host& src;
    host& dst;
    std::unique_ptr<stack> s_src;
    std::unique_ptr<stack> s_dst;
    std::unique_ptr<receiver> rx;
};

} // namespace

// The stream epoch is u16 and part of the stream key: epoch 65535 and
// epoch 0 of the same experiment are distinct sequence spaces, so the
// same sequence number in each is two deliveries, not a duplicate.
TEST(counter_width, stream_epoch_u16_extremes_are_distinct_streams)
{
    receiver_config cfg;
    cfg.timing.max_attempts = 1;
    rx_rig rig(7, cfg);

    const auto exp = wire::make_experiment_id(wire::experiments::dune, 0);
    rig.send(exp, 0, 0, false);
    rig.send(exp, 0, 0xffff, false);
    rig.net.sim().run();

    EXPECT_EQ(rig.rx->stats().datagrams, 2u);
    EXPECT_EQ(rig.rx->stats().duplicates, 0u);
    EXPECT_EQ(rig.rx->stream_count(), 2u);
}

// A multi-million-sequence gap: the receiver's interval accounting must
// stay O(ranges) and its counters exact when sequence 9 999 999 lands
// right after sequence 0. With an unanswered buffer and a single NAK
// attempt the whole gap is abandoned — given_up must count precisely
// 9 999 998 sequences, with no 32-bit truncation anywhere.
TEST(counter_width, multi_million_sequence_gap_counts_exactly)
{
    receiver_config cfg;
    cfg.timing.retry_base = 1_ms;
    cfg.timing.max_attempts = 1;
    cfg.timing.failover_attempts = 0;
    rx_rig rig(11, cfg);
    // Observe NAKs at the src-side stack, never answer them.
    std::uint64_t nak_ranges = 0;
    rig.s_src->set_nak_handler(
        [&](const wire::nak_body& b, wire::experiment_id, wire::ipv4_addr) {
            nak_ranges += b.ranges.size();
        });

    const auto exp = wire::make_experiment_id(wire::experiments::mu2e, 3);
    rig.send(exp, 0, 0);
    rig.send(exp, 9999999, 0);
    rig.net.sim().run();

    EXPECT_EQ(rig.rx->stats().datagrams, 2u);
    EXPECT_GT(nak_ranges, 0u);
    EXPECT_EQ(rig.rx->stats().given_up, 9999998u);
    EXPECT_EQ(rig.rx->outstanding_gaps(), 0u);
}

// ------------------------------------------------------ register cells

// The facility stream set — experiments 1..6, a dozen slices each — must
// map to pairwise-distinct sequence register cells; an alias would merge
// two live streams' counters (see seq_cell_of's prime-modulus note).
TEST(soak_streams, seq_register_cells_collision_free)
{
    std::set<std::size_t> cells;
    for (std::uint32_t exp = 1; exp <= 6; ++exp)
        for (std::uint32_t slice = 0; slice < 12; ++slice) {
            const auto id = wire::make_experiment_id(exp, slice);
            EXPECT_TRUE(
                cells.insert(pnet::mode_transition_stage::seq_cell_of(id)).second)
                << "experiment " << exp << " slice " << slice;
        }
    EXPECT_EQ(cells.size(), 72u);
}

// ---------------------------------------------------- stream retirement

// prune_idle retires only streams that are both complete and idle: a
// stream with an outstanding gap survives every sweep until the gap
// resolves, then retires like the rest. Retirement frees the dedup
// state, so long-running facilities don't grow one stream_state per
// (experiment, epoch) forever.
TEST(stream_retirement, prune_retires_complete_idle_streams_only)
{
    receiver_config cfg;
    cfg.timing.retry_base = 5_ms;
    cfg.timing.max_attempts = 8;
    cfg.timing.failover_attempts = 0;
    rx_rig rig(23, cfg);

    const auto complete = wire::make_experiment_id(wire::experiments::ecce, 0);
    const auto gappy = wire::make_experiment_id(wire::experiments::ecce, 1);
    for (std::uint64_t s = 0; s < 3; ++s) rig.send(complete, s, 0, false);
    rig.send(gappy, 0, 0);
    rig.send(gappy, 2, 0); // sequence 1 missing, NAKs pending for a while
    rig.net.sim().run_until(sim_time{2000000});

    EXPECT_EQ(rig.rx->stream_count(), 2u);
    // Only the complete stream qualifies; the gappy one is mid-recovery.
    EXPECT_EQ(rig.rx->prune_idle(sim_duration{1000000}), 1u);
    EXPECT_EQ(rig.rx->stream_count(), 1u);
    EXPECT_EQ(rig.rx->stats().streams_retired, 1u);

    // The late retransmission closes the gap; now it retires too.
    rig.send(gappy, 1, 0);
    rig.net.sim().run_until(sim_time{20000000});
    EXPECT_EQ(rig.rx->outstanding_gaps(), 0u);
    EXPECT_EQ(rig.rx->prune_idle(sim_duration{1000000}), 1u);
    EXPECT_EQ(rig.rx->stream_count(), 0u);
    EXPECT_EQ(rig.rx->stats().streams_retired, 2u);
    EXPECT_EQ(rig.rx->stats().duplicates, 0u);
}

// ------------------------------------------------ suppression pruning

// The DTN's per-source pressure-suppression records are pruned by
// poll_pressure once they are outside the live engagement and their
// timing.hold quiet period has elapsed — the other unbounded-growth fix
// at soak scale (churning upstream sources would otherwise accrete one
// record each, forever).
TEST(stream_retirement, buffer_signal_records_prune_after_release)
{
    network net(3);
    auto& dtn = net.add_host("dtn");
    std::array<host*, 2> peers{};
    for (std::size_t i = 0; i < peers.size(); ++i) {
        peers[i] = &net.add_host("peer" + std::to_string(i));
        net.connect(dtn, *peers[i], link_config{});
    }
    net.compute_routes();
    stack st(dtn, net.ids());

    buffer_service_config cfg;
    cfg.tap_only = true;
    cfg.timing.hold = 1_ms;
    cfg.buffer.retention = 1_ms; // occupancy decays quickly
    cfg.occupancy_high_bytes = 1000;
    cfg.occupancy_low_bytes = 500;
    buffer_service svc(st, cfg);

    // Cross the high watermark; each distinct source arriving while
    // engaged gets one signal and one suppression record.
    std::uint64_t seq = 0;
    for (int round = 0; round < 2; ++round)
        for (std::size_t i = 0; i < peers.size(); ++i) {
            delivered_datagram d;
            d.hdr.experiment = wire::make_experiment_id(wire::experiments::cms_l1, 0);
            d.hdr.m.set(wire::feature::sequencing);
            d.hdr.sequencing = wire::sequencing_field{seq++, 0};
            d.src = peers[i]->address();
            d.total_payload_bytes = 600;
            svc.relay(d);
        }
    net.sim().run();
    EXPECT_TRUE(svc.pressure_engaged());
    EXPECT_EQ(svc.stats().pressure_signals, peers.size());
    EXPECT_EQ(svc.stats().signals_pruned, 0u);

    // By 5 ms the retention horizon emptied the buffer: the poll releases
    // pressure, and with every hold long expired the records all go.
    net.sim().schedule_at(sim_time{5000000}, [&] { svc.poll_pressure(); });
    net.sim().run();
    EXPECT_FALSE(svc.pressure_engaged());
    EXPECT_EQ(svc.stats().pressure_releases, 1u);
    EXPECT_EQ(svc.stats().signals_pruned, peers.size());
}
