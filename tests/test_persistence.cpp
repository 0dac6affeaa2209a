// Persistence tests (§6 challenge 2, "data comes back from disk"):
// durable_store seal/crash/recover semantics, buffer_service
// crash-and-revive with NAK repair served from archive-recovered
// records, fault-hook interplay (blackout/restore lifecycle driving the
// software crash/revive), archive_reader hardening against malformed
// input, and run_recorder/run_replayer round trips.
#include "common/rng.hpp"
#include "daq/archive.hpp"
#include "dtn/durable_store.hpp"
#include "mmtp/buffer_service.hpp"
#include "mmtp/receiver.hpp"
#include "netsim/fault.hpp"
#include "netsim/network.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_recorder.hpp"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <span>
#include <vector>

using namespace mmtp;
using namespace mmtp::core;
using namespace mmtp::netsim;
using namespace mmtp::literals;

namespace {

/// Bytes 0..255 twice: the inline payloads below view a window of it.
const std::array<std::uint8_t, 512>& byte_ramp()
{
    static const auto ramp = [] {
        std::array<std::uint8_t, 512> r{};
        for (std::size_t i = 0; i < r.size(); ++i) r[i] = static_cast<std::uint8_t>(i);
        return r;
    }();
    return ramp;
}

/// A record whose inline payload byte i is (seq + i) mod 256.
dtn::buffered_datagram make_buffered(std::uint64_t seq, wire::experiment_id exp,
                                     std::uint16_t epoch = 0, std::size_t payload_len = 16)
{
    dtn::buffered_datagram d;
    d.sequence = seq;
    d.epoch = epoch;
    d.experiment = exp;
    d.timestamp_ns = seq * 100;
    d.size_bytes = 1000;
    d.inline_payload = std::span(byte_ramp()).subspan(seq % 256, payload_len);
    return d;
}

std::vector<std::uint8_t> bytes_of(std::span<const std::uint8_t> s)
{
    return {s.begin(), s.end()};
}

/// What recover() handed out, each record copied out of its callback.
struct recovered {
    std::vector<dtn::buffered_datagram> records; // payloads in `payloads`
    std::vector<std::vector<std::uint8_t>> payloads;
    std::map<wire::experiment_id, std::uint64_t> next_sequences;
};

recovered recover_all(dtn::durable_store& store)
{
    recovered out;
    const auto rec = store.recover([&](const dtn::buffered_datagram& d) {
        out.records.push_back(d);
        out.records.back().inline_payload = {};
        out.payloads.push_back(bytes_of(d.inline_payload));
    });
    EXPECT_EQ(rec.records, out.records.size());
    out.next_sequences = rec.next_sequences;
    return out;
}

} // namespace

// ------------------------------------------------ durable_store basics

// Sealing happens at chunk granularity: with chunk_records = 4, records
// become durable four at a time, and a crash loses exactly the open tail.
TEST(durable_store, crash_loses_exactly_the_unsealed_tail)
{
    dtn::durable_store store(4);
    const auto exp = wire::make_experiment_id(wire::experiments::dune, 0);

    for (std::uint64_t i = 0; i < 10; ++i) EXPECT_TRUE(store.append(make_buffered(i, exp)));
    EXPECT_EQ(store.durable_records(), 8u); // two sealed chunks
    EXPECT_EQ(store.open_records(), 2u);    // the vulnerable tail

    EXPECT_EQ(store.crash(), 2u);
    EXPECT_TRUE(store.crashed());
    EXPECT_EQ(store.stats().tail_lost, 2u);
    EXPECT_EQ(store.stats().crashes, 1u);

    // Appends are refused (and counted) while crashed.
    EXPECT_FALSE(store.append(make_buffered(99, exp)));
    EXPECT_EQ(store.stats().rejected, 1u);

    const auto rec = recover_all(store);
    ASSERT_EQ(rec.records.size(), 8u);
    for (std::uint64_t i = 0; i < 8; ++i) {
        EXPECT_EQ(rec.records[i].sequence, i);
        EXPECT_EQ(rec.records[i].experiment, exp);
        EXPECT_EQ(rec.payloads[i], bytes_of(make_buffered(i, exp).inline_payload));
    }
    // No journal was sealed, so next-sequence derives from the records.
    ASSERT_EQ(rec.next_sequences.count(exp), 1u);
    EXPECT_EQ(rec.next_sequences.at(exp), 8u);
    EXPECT_FALSE(store.crashed());
    EXPECT_EQ(store.stats().recovered, 8u);
    EXPECT_EQ(store.stats().recoveries, 1u);
}

// seal() is the explicit durability point: everything appended before it
// survives a crash regardless of chunk boundaries, and the sequence
// journal rides along.
TEST(durable_store, seal_makes_partial_chunks_and_journal_durable)
{
    dtn::durable_store store(64); // far larger than the append count
    const auto exp = wire::make_experiment_id(wire::experiments::iceberg, 2);

    for (std::uint64_t i = 0; i < 5; ++i) store.append(make_buffered(i, exp, 3));
    store.note_sequence(exp, 500); // mirrors a counter far ahead of the records
    EXPECT_EQ(store.open_records(), 5u);
    store.seal();
    EXPECT_EQ(store.durable_records(), 5u);
    EXPECT_EQ(store.open_records(), 0u);

    // Appends and journal updates after the seal are lost by the crash.
    store.append(make_buffered(5, exp, 3));
    store.note_sequence(exp, 600);
    EXPECT_EQ(store.crash(), 1u);

    const auto rec = recover_all(store);
    ASSERT_EQ(rec.records.size(), 5u);
    EXPECT_EQ(rec.records[0].epoch, 3u); // epoch round-trips via the payload prefix
    // Journalled 500 beats max(sequence)+1 = 5; the unsealed 600 is gone.
    EXPECT_EQ(rec.next_sequences.at(exp), 500u);
}

// Recovery compaction: recover() re-seeds the fresh writer with the
// surviving records, so a second crash right after recovery still finds
// them on disk — revive is not a one-shot.
TEST(durable_store, survives_repeated_crash_recover_cycles)
{
    dtn::durable_store store(4);
    const auto exp = wire::make_experiment_id(1, 0);

    for (std::uint64_t i = 0; i < 8; ++i) store.append(make_buffered(i, exp));
    EXPECT_EQ(store.crash(), 0u); // 8 = two full chunks, nothing open
    EXPECT_EQ(recover_all(store).records.size(), 8u);

    // Keep accumulating into the recovered store, crash again.
    for (std::uint64_t i = 8; i < 12; ++i) store.append(make_buffered(i, exp));
    EXPECT_EQ(store.crash(), 0u);
    const auto rec = recover_all(store);
    EXPECT_EQ(rec.records.size(), 12u);
    EXPECT_EQ(rec.next_sequences.at(exp), 12u);
    EXPECT_EQ(store.stats().crashes, 2u);
    EXPECT_EQ(store.stats().recoveries, 2u);

    // crash() on an already-crashed store is a no-op; recover() on a
    // healthy store returns nothing and changes nothing.
    store.crash();
    store.crash();
    EXPECT_EQ(store.stats().crashes, 3u);
    store.recover();
    const auto empty = recover_all(store);
    EXPECT_TRUE(empty.records.empty());
    EXPECT_EQ(store.stats().recoveries, 3u);
}

// Per-experiment isolation: records and journal entries recover under
// their own experiment ids.
TEST(durable_store, recovery_keeps_experiments_separate)
{
    dtn::durable_store store(2);
    const auto a = wire::make_experiment_id(1, 0);
    const auto b = wire::make_experiment_id(2, 0);
    for (std::uint64_t i = 0; i < 4; ++i) store.append(make_buffered(i, a));
    for (std::uint64_t i = 100; i < 102; ++i) store.append(make_buffered(i, b, 7));
    store.crash();
    const auto rec = recover_all(store);
    ASSERT_EQ(rec.records.size(), 6u);
    EXPECT_EQ(rec.next_sequences.at(a), 4u);
    EXPECT_EQ(rec.next_sequences.at(b), 102u);
    std::uint64_t from_b = 0;
    for (const auto& d : rec.records) {
        if (d.experiment != b) continue;
        from_b++;
        EXPECT_EQ(d.epoch, 7u);
    }
    EXPECT_EQ(from_b, 2u);
}

// ---------------------------- buffer_service crash / revive, end to end

// The archive-served-repair proof: every record the service relays is
// persisted; the service then crashes (in-memory buffer wiped) and
// revives *before* the receiver's NAKs arrive — so every retransmission
// it serves can only have come from archive-recovered records, with the
// sequence/epoch state intact. chunk_records divides the record count
// exactly, so nothing is in the unsealed tail and nothing is lost.
TEST(persistence_service, nak_repair_served_from_archive_after_revive)
{
    network net(5);
    auto& primary = net.add_host("primary");
    auto& dst = net.add_host("dst");
    link_config lossy;
    lossy.rate = data_rate::from_gbps(10);
    lossy.propagation = 500_us;
    lossy.drop_probability = 0.05;
    net.connect_simplex(primary, dst, lossy);
    link_config back = lossy;
    back.drop_probability = 0.0;
    net.connect_simplex(dst, primary, back);
    net.compute_routes();

    stack s_primary(primary, net.ids());
    stack s_dst(dst, net.ids());

    dtn::durable_store store(8); // 200 records = 25 full chunks, all sealed

    buffer_service_config pcfg;
    pcfg.next_hop = dst.address();
    pcfg.assign_sequence_locally = true;
    pcfg.persist = &store;
    buffer_service svc(s_primary, pcfg);

    receiver_config rcfg;
    rcfg.timing.retry_base = 3_ms;
    rcfg.timing.max_attempts = 6;
    rcfg.timing.failover_attempts = 0;
    receiver rx(s_dst, rcfg);

    constexpr std::uint64_t n = 200;
    for (std::uint64_t i = 0; i < n; ++i) {
        delivered_datagram d;
        d.hdr.experiment = wire::make_experiment_id(wire::experiments::iceberg, 0);
        d.hdr.m.set(wire::feature::timestamped);
        d.hdr.timestamp_ns = 0;
        d.total_payload_bytes = 1000;
        svc.relay(d);
    }

    // Crash and revive in the window between the data burst and the
    // first NAK (which arrives after reorder grace + the return RTT).
    net.sim().schedule_at(sim_time{800000}, [&svc] { svc.crash(); });
    net.sim().schedule_at(sim_time{900000}, [&svc] {
        EXPECT_EQ(svc.buffer().entries(), 0u); // memory really was wiped
        EXPECT_EQ(svc.revive(), 200u);
        EXPECT_EQ(svc.buffer().entries(), 200u);
    });
    net.sim().run();

    // Repairs happened, and only the archive could have supplied them.
    EXPECT_GT(svc.stats().nak_requests, 0u);
    EXPECT_GT(svc.stats().retransmitted, 0u);
    EXPECT_EQ(svc.stats().unavailable, 0u);
    EXPECT_EQ(svc.stats().persisted, n);
    EXPECT_EQ(svc.stats().crashes, 1u);
    EXPECT_EQ(svc.stats().tail_lost, 0u);
    EXPECT_EQ(svc.stats().recovered_records, n);
    EXPECT_EQ(svc.stats().revivals, 1u);

    // Loss actually occurred and everything was recovered exactly once.
    EXPECT_GT(rx.stats().recovered, 0u);
    EXPECT_EQ(rx.stats().datagrams, n);
    EXPECT_EQ(rx.stats().duplicates, 0u);
    EXPECT_EQ(rx.stats().given_up, 0u);
    EXPECT_EQ(rx.outstanding_gaps(), 0u);
}

// With a coarser chunk (64 records over 200 appends) the crash drops the
// 8-record unsealed tail. Delivery accounting must stay exact: every
// sequence is either delivered or given up, never both, never neither —
// and any give-up traces back to a NAK the revived buffer could not
// serve (counted `unavailable`), not to silent loss.
TEST(persistence_service, unsealed_tail_loss_is_bounded_and_accounted)
{
    network net(5);
    auto& primary = net.add_host("primary");
    auto& dst = net.add_host("dst");
    link_config lossy;
    lossy.rate = data_rate::from_gbps(10);
    lossy.propagation = 500_us;
    lossy.drop_probability = 0.05;
    net.connect_simplex(primary, dst, lossy);
    link_config back = lossy;
    back.drop_probability = 0.0;
    net.connect_simplex(dst, primary, back);
    net.compute_routes();

    stack s_primary(primary, net.ids());
    stack s_dst(dst, net.ids());

    dtn::durable_store store(64); // 200 = 3 sealed chunks + 8-record tail

    buffer_service_config pcfg;
    pcfg.next_hop = dst.address();
    pcfg.assign_sequence_locally = true;
    pcfg.persist = &store;
    buffer_service svc(s_primary, pcfg);

    receiver_config rcfg;
    rcfg.timing.retry_base = 3_ms;
    rcfg.timing.max_attempts = 6;
    rcfg.timing.failover_attempts = 0;
    receiver rx(s_dst, rcfg);

    constexpr std::uint64_t n = 200;
    for (std::uint64_t i = 0; i < n; ++i) {
        delivered_datagram d;
        d.hdr.experiment = wire::make_experiment_id(wire::experiments::iceberg, 0);
        d.hdr.m.set(wire::feature::timestamped);
        d.hdr.timestamp_ns = 0;
        d.total_payload_bytes = 1000;
        svc.relay(d);
    }
    net.sim().schedule_at(sim_time{800000}, [&svc] { svc.crash(); });
    net.sim().schedule_at(sim_time{900000}, [&svc] { svc.revive(); });
    net.sim().run();

    EXPECT_EQ(svc.stats().tail_lost, 8u);
    EXPECT_EQ(svc.stats().recovered_records, n - 8);
    // Exactly-once accounting over the whole sequence space.
    EXPECT_EQ(rx.stats().datagrams + rx.stats().given_up, n);
    EXPECT_EQ(rx.stats().duplicates, 0u);
    EXPECT_EQ(rx.outstanding_gaps(), 0u);
    // A give-up can only stem from a NAKed sequence the buffer no longer
    // had (it fell in the lost tail); the buffer reported each refusal.
    if (rx.stats().given_up > 0) {
        EXPECT_GT(svc.stats().unavailable, 0u);
    }
}

// ------------------------------------- fault hooks driving crash/revive

namespace {

/// The fault-hook interplay rig: primary buffer (persisted, relaying
/// over a lossy span), duplication-fed secondary tap holding a partial
/// copy, receiver with failover. The blackout hook crashes the primary's
/// software; the restore hook revives it from the archive and
/// re-advertises, which fails the receiver back.
struct hook_rig {
    network net;
    host* primary;
    host* dst;
    host* secondary;
    std::unique_ptr<stack> s_primary, s_dst, s_secondary;
    dtn::durable_store store;
    std::unique_ptr<buffer_service> svc, tap;
    std::unique_ptr<receiver> rx;
    fault_scheduler faults;

    explicit hook_rig(std::uint64_t seed)
        : net(seed), store(8), faults(net.sim()) // 8 records per chunk
    {
        primary = &net.add_host("primary");
        dst = &net.add_host("dst");
        secondary = &net.add_host("secondary");
        link_config lossy;
        lossy.rate = data_rate::from_gbps(10);
        lossy.propagation = 500_us;
        lossy.drop_probability = 0.05;
        net.connect_simplex(*primary, *dst, lossy);
        link_config back = lossy;
        back.drop_probability = 0.0;
        net.connect_simplex(*dst, *primary, back);
        net.connect(*dst, *secondary, link_config{});
        net.compute_routes();

        s_primary = std::make_unique<stack>(*primary, net.ids());
        s_dst = std::make_unique<stack>(*dst, net.ids());
        s_secondary = std::make_unique<stack>(*secondary, net.ids());

        buffer_service_config pcfg;
        pcfg.next_hop = dst->address();
        pcfg.assign_sequence_locally = true;
        pcfg.secondary_buffer = secondary->address();
        pcfg.persist = &store;
        svc = std::make_unique<buffer_service>(*s_primary, pcfg);

        buffer_service_config scfg;
        scfg.tap_only = true;
        tap = std::make_unique<buffer_service>(*s_secondary, scfg);

        receiver_config rcfg;
        rcfg.timing.retry_base = 3_ms;
        rcfg.timing.retry_cap = 40_ms;
        rcfg.timing.max_attempts = 8;
        rcfg.timing.failover_attempts = 2;
        rx = std::make_unique<receiver>(*s_dst, rcfg);
        s_dst->set_advert_handler([this](const wire::buffer_advert_body& a) {
            if (a.secondary_addr != 0) rx->set_fallback_buffer(a.secondary_addr);
            rx->note_buffer_available(a.buffer_addr);
        });
        svc->advertise(dst->address());
    }

    /// Feeds `n` messages to the primary; the tap sees all of them
    /// except sequences [hole_first, hole_last] — losses in that range
    /// are recoverable only from the (revived) primary.
    void feed(std::uint64_t n, std::uint64_t hole_first, std::uint64_t hole_last)
    {
        for (std::uint64_t i = 0; i < n; ++i) {
            delivered_datagram d;
            d.hdr.experiment = wire::make_experiment_id(wire::experiments::iceberg, 0);
            d.hdr.m.set(wire::feature::timestamped);
            d.hdr.timestamp_ns = 0;
            d.total_payload_bytes = 1000;
            svc->relay(d);
            if (i < hole_first || i > hole_last) tap->relay(d);
        }
    }
};

} // namespace

// Kill-and-revive through the fault scheduler's lifecycle hooks: the
// blackout crashes the primary mid-run, the receiver fails over to the
// partial tap, backs off on the tap's unavailable range, and — restored
// mid-backoff — fails back to the revived primary, which serves the
// hole from archive-recovered records. Zero loss, zero duplicates.
TEST(persistence_hooks, restore_mid_nak_backoff_fails_back_and_repairs_from_archive)
{
    hook_rig rig(5);
    rig.faults.on_blackout(*rig.primary, [&rig] { rig.svc->crash(); });
    rig.faults.on_restore(*rig.primary,
                          [&rig] { rig.svc->revive(rig.dst->address()); });

    constexpr std::uint64_t n = 300;
    rig.feed(n, 100, 149); // the tap never saw sequences 100..149

    // Blackout before any NAK can arrive; restore while the receiver is
    // deep in backoff against the tap's unavailable range.
    rig.faults.blackout_node(*rig.primary, sim_time{1000});
    rig.faults.restore_node(*rig.primary, sim_time{40000000});
    rig.net.sim().run();

    // Fault lifecycle fired exactly once each way.
    EXPECT_EQ(rig.faults.stats().node_blackouts, 1u);
    EXPECT_EQ(rig.faults.stats().node_restores, 1u);
    EXPECT_EQ(rig.svc->stats().crashes, 1u);
    EXPECT_EQ(rig.svc->stats().revivals, 1u);
    EXPECT_GT(rig.svc->stats().recovered_records, 0u);

    // The receiver failed over to the tap, then failed back on the
    // revived primary's re-advertisement.
    EXPECT_EQ(rig.rx->stats().buffer_failovers, 1u);
    EXPECT_EQ(rig.rx->stats().buffer_failbacks, 1u);

    // The tap repaired what it had; the hole was repaired by the revived
    // primary from the archive (its NAK handling all post-revive: every
    // pre-revive NAK hit a blacked-out node).
    EXPECT_GT(rig.tap->stats().retransmitted, 0u);
    EXPECT_GT(rig.tap->stats().unavailable, 0u);
    EXPECT_GT(rig.svc->stats().nak_requests, 0u);
    EXPECT_GT(rig.svc->stats().retransmitted, 0u);

    EXPECT_EQ(rig.rx->stats().datagrams, n);
    EXPECT_EQ(rig.rx->stats().duplicates, 0u);
    EXPECT_EQ(rig.rx->stats().given_up, 0u);
    EXPECT_EQ(rig.rx->outstanding_gaps(), 0u);
    EXPECT_GT(rig.primary->blackout_dropped(), 0u); // the backed-off NAKs
}

// Blackout arriving while a retransmission is in flight: the blackout
// gates ingress only, so a repair already handed to the primary's egress
// still lands and fills its gap — once. Later repairs come from the tap
// after failover. Nothing is lost or duplicated across the transition.
TEST(persistence_hooks, blackout_during_in_flight_retransmission_loses_nothing)
{
    hook_rig rig(5);
    rig.faults.on_blackout(*rig.primary, [&rig] { rig.svc->crash(); });

    constexpr std::uint64_t n = 300;
    rig.feed(n, n, n); // no hole: the tap holds everything

    // First NAK round reaches the primary at ~1.2 ms (grace + RTT) and
    // its repairs are serialized immediately; the blackout lands right
    // behind the NAK, while repairs are still draining out the egress.
    rig.faults.blackout_node(*rig.primary, sim_time{1400000});
    rig.net.sim().run();

    // The primary answered the first round before dying.
    EXPECT_GT(rig.svc->stats().nak_requests, 0u);
    EXPECT_GT(rig.svc->stats().retransmitted, 0u);
    EXPECT_EQ(rig.svc->stats().crashes, 1u);

    // Whatever the dead primary could no longer repair failed over.
    EXPECT_EQ(rig.rx->stats().buffer_failovers, 1u);
    EXPECT_GT(rig.tap->stats().retransmitted, 0u);

    EXPECT_EQ(rig.rx->stats().datagrams, n);
    EXPECT_EQ(rig.rx->stats().duplicates, 0u);
    EXPECT_EQ(rig.rx->stats().given_up, 0u);
    EXPECT_EQ(rig.rx->outstanding_gaps(), 0u);
}

// Double blackout / double restore are idempotent end to end: the
// fault stats count genuine transitions only, and the lifecycle hooks
// (and hence crash/revive) fire once per genuine transition.
TEST(persistence_hooks, double_blackout_and_restore_are_idempotent)
{
    hook_rig rig(5);
    std::uint64_t blackouts = 0, restores = 0;
    rig.faults.on_blackout(*rig.primary, [&] {
        blackouts++;
        rig.svc->crash();
    });
    rig.faults.on_restore(*rig.primary, [&] {
        restores++;
        rig.svc->revive(rig.dst->address());
    });

    rig.feed(100, 100, 100);
    rig.faults.blackout_node(*rig.primary, sim_time{1000});
    rig.faults.blackout_node(*rig.primary, sim_time{2000});  // already dark
    rig.faults.restore_node(*rig.primary, sim_time{20000000});
    rig.faults.restore_node(*rig.primary, sim_time{21000000}); // already up
    rig.net.sim().run();

    EXPECT_EQ(blackouts, 1u);
    EXPECT_EQ(restores, 1u);
    EXPECT_EQ(rig.faults.stats().node_blackouts, 1u);
    EXPECT_EQ(rig.faults.stats().node_restores, 1u);
    EXPECT_EQ(rig.svc->stats().crashes, 1u);
    EXPECT_EQ(rig.svc->stats().revivals, 1u);
    // Stat identity: every blackout was eventually restored.
    EXPECT_EQ(rig.faults.stats().node_blackouts, rig.faults.stats().node_restores);
    EXPECT_EQ(rig.rx->stats().given_up, 0u);
    EXPECT_EQ(rig.rx->stats().datagrams, 100u);
    EXPECT_EQ(rig.rx->stats().duplicates, 0u);
}

// ------------------------------------- archive_reader input hardening

namespace {

/// A small but structurally rich blob: two datasets, multiple chunks,
/// file and dataset attributes.
std::vector<std::uint8_t> make_fuzz_blob()
{
    daq::archive_writer w(4);
    const auto a = wire::make_experiment_id(1, 0);
    const auto b = wire::make_experiment_id(2, 3);
    w.set_attribute("facility", "fuzz-site");
    for (std::uint64_t i = 0; i < 10; ++i) {
        daq::archived_record r;
        r.sequence = i;
        r.timestamp_ns = i * 10;
        r.size_bytes = 64;
        r.payload.assign(i, static_cast<std::uint8_t>(i));
        w.append(a, r);
        if (i < 3) w.append(b, std::move(r));
    }
    w.set_dataset_attribute(a, "detector", "fuzz-tpc");
    return w.finalize();
}

/// Exercises every read path of an opened reader; the fuzz contract is
/// only "no crash, no OOB" — values are unconstrained.
void drain_reader(const daq::archive_reader& r)
{
    for (const auto id : r.dataset_ids()) {
        const auto all = r.read_all(id);
        (void)all;
        (void)r.read_at(id, 0);
        (void)r.read_at(id, r.record_count(id));
        (void)r.dataset_attribute(id, "detector");
    }
    (void)r.attribute("facility");
    (void)r.attributes();
}

} // namespace

// Every single-byte corruption either fails open() or yields a reader
// whose reads complete without crashing (the per-chunk CRC catches data
// corruption; index/superblock corruption must fail closed).
TEST(archive_fuzz, every_single_byte_flip_is_handled)
{
    const auto blob = make_fuzz_blob();
    for (std::size_t i = 0; i < blob.size(); ++i) {
        auto mutated = blob;
        mutated[i] ^= 0xff;
        const auto r = daq::archive_reader::open(std::move(mutated));
        if (r.has_value()) drain_reader(*r);
    }
}

// Truncation at every possible length fails closed: the index footer
// lives at the end, so no proper prefix is a valid archive.
TEST(archive_fuzz, every_truncation_fails_closed)
{
    const auto blob = make_fuzz_blob();
    for (std::size_t len = 0; len < blob.size(); ++len) {
        auto truncated = blob;
        truncated.resize(len);
        EXPECT_FALSE(daq::archive_reader::open(std::move(truncated)).has_value())
            << "prefix of length " << len << " opened";
    }
}

// Seeded random mutations (1-8 bytes per round, arbitrary values,
// including the length-bearing index fields): open + drain never
// crashes or reads out of bounds.
TEST(archive_fuzz, random_multibyte_mutations_never_crash)
{
    const auto blob = make_fuzz_blob();
    rng r(4242);
    for (int round = 0; round < 4000; ++round) {
        auto mutated = blob;
        const auto edits = static_cast<std::size_t>(r.uniform_int(1, 8));
        for (std::size_t e = 0; e < edits; ++e) {
            const auto at = static_cast<std::size_t>(
                r.uniform_int(0, static_cast<std::uint32_t>(mutated.size() - 1)));
            mutated[at] = static_cast<std::uint8_t>(r.uniform_int(0, 255));
        }
        const auto reader = daq::archive_reader::open(std::move(mutated));
        if (reader.has_value()) drain_reader(*reader);
    }
}

// Adversarial tiny inputs: empty, magic-only, and a superblock whose
// index offset points at every possible position (in and out of range).
TEST(archive_fuzz, hostile_superblocks_fail_closed)
{
    EXPECT_FALSE(daq::archive_reader::open({}).has_value());

    const auto blob = make_fuzz_blob();
    auto header_only = blob;
    header_only.resize(18); // magic + version + index offset, nothing else
    EXPECT_FALSE(daq::archive_reader::open(std::move(header_only)).has_value());

    for (std::uint64_t off = 0; off < blob.size() + 16; ++off) {
        auto mutated = blob;
        for (int i = 0; i < 8; ++i) // big-endian patch of the index offset
            mutated[10 + i] = static_cast<std::uint8_t>(off >> (56 - 8 * i));
        const auto r = daq::archive_reader::open(std::move(mutated));
        if (r.has_value()) drain_reader(*r);
    }
}

// --------------------------------------------- run recorder / replayer

TEST(run_record, metrics_and_report_round_trip_byte_identical)
{
    telemetry::metrics_registry reg;
    reg.get_counter("persistence_demo", {{"phase", "revive"}}).inc(123456789);
    reg.get_gauge("another_metric").set(-7);
    reg.get_counter("zero_counter"); // zero-valued rows must round-trip too
    const auto live_csv = reg.to_csv();

    telemetry::run_recorder rec("unit", 99);
    rec.capture_metrics(reg);
    rec.capture_report("report,line\n1,2\n");
    auto blob = rec.finalize();

    auto rep = telemetry::run_replayer::open(std::move(blob));
    ASSERT_TRUE(rep.has_value());
    EXPECT_TRUE(rep->verify());
    EXPECT_EQ(rep->scenario(), "unit");
    EXPECT_EQ(rep->seed(), 99u);
    EXPECT_EQ(rep->metrics_csv(), live_csv);
    EXPECT_EQ(rep->report_csv(), "report,line\n1,2\n");
}

// The wire-event ring and its interned site table round-trip through the
// archive: replayed events match what was emitted, and a rebuilt flight
// recorder renders the identical timeline.
TEST(run_record, wire_events_and_sites_round_trip)
{
    trace::flight_recorder fr(64);
    const auto s1 = fr.site("wan-primary");
    const auto s2 = fr.site("rx");
    fr.emit(1000, s1, trace::hop::link_enqueue, 42, 1500, trace::reason::none);
    fr.emit(2000, s1, trace::hop::link_drop, 42, 1500, trace::reason::queue_full);
    fr.emit(3000, s2, trace::hop::mmtp_deliver, 43, 7, trace::reason::none);

    telemetry::run_recorder rec("unit", 1);
    rec.capture_trace(fr);
    auto blob = rec.finalize();

    auto rep = telemetry::run_replayer::open(std::move(blob));
    ASSERT_TRUE(rep.has_value());
    EXPECT_TRUE(rep->verify());

    const auto events = rep->wire_events();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].at_ns, 1000);
    EXPECT_EQ(events[0].packet_id, 42u);
    EXPECT_EQ(events[0].site, s1);
    EXPECT_EQ(events[1].kind, trace::hop::link_drop);
    EXPECT_EQ(events[1].why, trace::reason::queue_full);
    EXPECT_EQ(events[2].arg, 7u);

    trace::flight_recorder rebuilt(64);
    rep->rebuild_flight_recorder(rebuilt);
    EXPECT_EQ(rebuilt.site_name(s1), "wan-primary");
    EXPECT_EQ(rebuilt.site_name(s2), "rx");
    EXPECT_EQ(rebuilt.format_timeline(rebuilt.events()),
              fr.format_timeline(fr.events()));
}

TEST(run_record, malformed_recordings_fail_closed)
{
    EXPECT_FALSE(telemetry::run_replayer::open({}).has_value());
    EXPECT_FALSE(
        telemetry::run_replayer::open({0xde, 0xad, 0xbe, 0xef}).has_value());

    telemetry::run_recorder rec("unit", 1);
    telemetry::metrics_registry reg;
    reg.get_counter("m").inc();
    rec.capture_metrics(reg);
    auto blob = rec.finalize();
    blob.resize(blob.size() / 2);
    EXPECT_FALSE(telemetry::run_replayer::open(std::move(blob)).has_value());
}
