// Allocation gate on the real per-packet path. After a warm-up, MMTP
// messages go sender → programmable_switch → receivers: the switch runs a
// mode_transition_stage that grows the 42-byte origin stack (Ethernet +
// IPv4 + core + timestamp) to 76 bytes (+ sequencing, retransmission,
// timeliness) and a duplication_stage that clones every packet toward one
// subscriber. Emit, parse, stages, deparse, clone and delivery must not
// touch the heap. A second gate takes a persisting DTN store through
// appends, a crash and a revive; a third bounds the bytes a resident
// retransmission-buffer record costs and the allocations of its steady
// state; a fourth bounds the allocations per delivered message of the
// whole soak drill. A global operator new that counts calls and bytes
// makes these deterministic counts, not timings.
#include "common/interval_set.hpp"
#include "dtn/buffer.hpp"
#include "dtn/durable_store.hpp"
#include "mmtp/receiver.hpp"
#include "mmtp/sender.hpp"
#include "mmtp/stack.hpp"
#include "netsim/network.hpp"
#include "pnet/element.hpp"
#include "pnet/stages.hpp"
#include "scenario/dsl.hpp"

#include <gtest/gtest.h>

#ifndef MMTP_SCENARIO_DIR
#error "MMTP_SCENARIO_DIR must point at the checked-in scenarios/ directory"
#endif

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

// ---------------------------------------------------------------- alloc hook

static std::atomic<std::uint64_t> g_allocs{0};
static std::atomic<std::uint64_t> g_alloc_bytes{0};

void* operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
    if (void* p = std::malloc(n)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
    if (void* p = std::malloc(n)) return p;
    throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mmtp;
using namespace mmtp::netsim;

constexpr std::uint64_t warmup_messages = 2000;
constexpr std::uint64_t measured_messages = 10000;
/// Messages handed to the sender at one instant: back-to-back packets,
/// so packets queue behind the serializer and in flight.
constexpr unsigned messages_per_tick = 8;

/// sensor → tofino → {dst, subscriber}.
struct switched_path {
    network net{7};
    host& sensor;
    pnet::programmable_switch& sw;
    host& dst;
    host& subscriber;
    core::stack sensor_stack;
    core::stack dst_stack;
    core::stack sub_stack;
    core::sender tx;
    core::receiver rx;
    core::receiver sub_rx;
    std::uint64_t sent{0};
    std::uint64_t target{0};

    switched_path()
        : sensor(net.add_host("sensor")),
          sw(net.emplace<pnet::programmable_switch>("tofino")),
          dst(net.add_host("dst")),
          subscriber(net.add_host("subscriber")),
          sensor_stack(sensor, net.ids()),
          dst_stack(dst, net.ids()),
          sub_stack(subscriber, net.ids()),
          tx(sensor_stack, dst.address(), core::sender_config{}),
          rx(dst_stack),
          sub_rx(sub_stack)
    {
        const link_config cfg;
        net.connect(sensor, sw, cfg);
        net.connect(sw, dst, cfg);
        net.connect(sw, subscriber, cfg);
        net.compute_routes();
        sw.set_id_source(&net.ids());

        auto modes = std::make_shared<pnet::mode_transition_stage>();
        pnet::mode_rule rule;
        rule.match_any_experiment = true;
        rule.set_bits = wire::feature_bit(wire::feature::sequencing)
            | wire::feature_bit(wire::feature::retransmission)
            | wire::feature_bit(wire::feature::timeliness)
            | wire::feature_bit(wire::feature::duplication);
        rule.buffer_addr = sw.address();
        rule.deadline_us = 1'000'000;
        rule.notify_addr = sensor.address();
        modes->add_rule(rule);
        sw.add_stage(modes);

        auto dup = std::make_shared<pnet::duplication_stage>();
        dup->add_subscriber(wire::experiments::vera_rubin, subscriber.address());
        sw.add_stage(dup);
    }

    /// Hands `messages_per_tick` messages to the sender, then re-arms
    /// itself: one pending event at a time, so the engine's heap stays
    /// at its warmed-up size.
    void tick()
    {
        for (unsigned i = 0; i < messages_per_tick && sent < target; ++i, ++sent) {
            daq::daq_message m;
            m.experiment = wire::make_experiment_id(wire::experiments::vera_rubin, 0);
            m.sequence = sent;
            m.timestamp_ns = static_cast<std::uint64_t>(net.sim().now().ns);
            m.size_bytes = 1024;
            tx.send_message(m);
        }
        if (sent < target) net.sim().schedule_in(sim_duration{10'000}, [this] { tick(); });
    }

    void run(std::uint64_t messages)
    {
        target += messages;
        tick();
        net.sim().run();
    }
};

/// Heap allocations made while `messages` more messages cross the path.
std::uint64_t allocations_for(switched_path& path, std::uint64_t messages)
{
    const auto before = g_allocs.load(std::memory_order_relaxed);
    path.run(messages);
    return g_allocs.load(std::memory_order_relaxed) - before;
}

} // namespace

TEST(alloc_free, switched_path_at_burst_1)
{
    switched_path path;
    path.run(warmup_messages);
    const auto allocs = allocations_for(path, measured_messages);

    // The traffic really took the rewritten, duplicated path.
    const auto total = warmup_messages + measured_messages;
    EXPECT_EQ(path.rx.stats().datagrams, total);
    EXPECT_EQ(path.sub_rx.stats().datagrams, total);
    EXPECT_EQ(path.rx.stats().duplicates, 0u);
    EXPECT_EQ(path.rx.stats().naks_sent, 0u);
    EXPECT_EQ(path.sw.state().counter("mode_transitions"), total);
    EXPECT_EQ(path.sw.stats().clones, total);

    EXPECT_EQ(allocs, 0u) << static_cast<double>(allocs) / measured_messages
                          << " allocations per message";
}

TEST(alloc_free, in_order_interval_inserts)
{
    interval_set s;
    s.insert(0, 1);
    const auto before = g_allocs.load(std::memory_order_relaxed);
    for (std::uint64_t i = 1; i < 10000; ++i) s.insert(i, i + 1);
    const auto allocs = g_allocs.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(s.interval_count(), 1u);
    EXPECT_EQ(s.next_missing(0), 10000u);
}

namespace {

/// Records in the store when the measured phases start: about what
/// soak-1m's DTN2 holds at its crash (296,960 records). A crash and a
/// revive cost a fixed few dozen allocations (the reader's and the fresh
/// writer's per-dataset maps and journal entries) plus the geometric
/// growth of the compacted chunk vectors; at this size those stay far
/// below one per 1,000 records, while one allocation per record would not.
constexpr std::uint64_t resident_records = 290000;
constexpr std::uint64_t measured_records = 10000;
constexpr std::uint32_t persisted_datasets = 4;

/// Appends `n` records round-robin over the datasets; each carries its
/// u16 epoch prefix and no inline bytes, like soak-1m's relayed datagrams.
void append_records(dtn::durable_store& store, std::uint64_t& appended, std::uint64_t n)
{
    dtn::buffered_datagram d;
    d.epoch = 1;
    d.size_bytes = 512;
    for (const auto end = appended + n; appended < end; ++appended) {
        d.experiment = wire::make_experiment_id(
            static_cast<std::uint8_t>(1 + appended % persisted_datasets), 0);
        d.sequence = appended / persisted_datasets;
        d.timestamp_ns = appended * 100;
        ASSERT_TRUE(store.append(d));
    }
}

} // namespace

// The DTN persistence path: records encode straight into chunk bytes and
// the revive walks the crash image in place, so neither appending nor a
// crash and revive allocates per record.
TEST(alloc_free, durable_store_append_crash_recover)
{
    dtn::durable_store store(32);
    std::uint64_t appended = 0;
    append_records(store, appended, resident_records - measured_records);
    store.crash();
    store.recover();

    auto before = g_allocs.load(std::memory_order_relaxed);
    append_records(store, appended, measured_records);
    const auto append_allocs = g_allocs.load(std::memory_order_relaxed) - before;

    before = g_allocs.load(std::memory_order_relaxed);
    store.crash();
    std::uint64_t handed = 0;
    const auto recovered =
        store.recover([&](const dtn::buffered_datagram&) { handed++; }).records;
    const auto revive_allocs = g_allocs.load(std::memory_order_relaxed) - before;

    EXPECT_EQ(handed, recovered);
    EXPECT_EQ(recovered + store.stats().tail_lost, resident_records);
    EXPECT_EQ(store.durable_records(), recovered); // compacted into the fresh writer
    EXPECT_LT(append_allocs * 1000, measured_records)
        << append_allocs << " allocations for " << measured_records << " appends";
    EXPECT_LT(revive_allocs * 1000, recovered)
        << revive_allocs << " allocations for a crash and a revive of " << recovered
        << " records";
}

namespace {

constexpr std::uint64_t footprint_records = 200000;
constexpr std::uint32_t footprint_streams = 20;

/// Stores `n` in-order records round-robin over the streams, `gap_ns`
/// apart from `now` on, each with `payload` as its inline bytes.
void store_records(dtn::retransmission_buffer& buf, std::span<const std::uint8_t> payload,
                   std::uint64_t& stored, std::uint64_t n, sim_time& now, std::int64_t gap_ns)
{
    dtn::buffered_datagram d;
    d.size_bytes = 512;
    d.inline_payload = payload;
    for (const auto end = stored + n; stored < end; ++stored) {
        d.experiment = wire::make_experiment_id(
            static_cast<std::uint8_t>(1 + stored % footprint_streams), 0);
        d.sequence = stored / footprint_streams;
        d.timestamp_ns = static_cast<std::uint64_t>(now.ns);
        buf.store(d, now);
        now.ns += gap_ns;
    }
}

/// Heap bytes per resident record after storing footprint_records with
/// `payload_bytes` of inline payload each.
double bytes_per_resident_record(std::size_t payload_bytes)
{
    const std::vector<std::uint8_t> payload(payload_bytes, 0xa5);
    dtn::retransmission_buffer buf;
    std::uint64_t stored = 0;
    sim_time now{0};
    const auto before = g_alloc_bytes.load(std::memory_order_relaxed);
    store_records(buf, payload, stored, footprint_records, now, 0);
    const auto bytes = g_alloc_bytes.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(buf.entries(), footprint_records);
    return static_cast<double>(bytes) / static_cast<double>(footprint_records);
}

} // namespace

// The retransmission buffer's memory: a resident record and its place in
// the eviction order cost at most 64 bytes, plus its inline payload
// padded to 8, and once the buffer's blocks are warm a steady stream of
// stores and evictions allocates nothing.
TEST(alloc_free, retransmission_buffer_footprint)
{
    const auto empty = bytes_per_resident_record(0);
    EXPECT_LE(empty, 64.0) << empty << " bytes per record without payload";
    const auto inline24 = bytes_per_resident_record(24);
    EXPECT_LE(inline24, 64.0 + 24.0) << inline24 << " bytes per record with 24 payload bytes";

    // 20 ms retention at one store per microsecond: about 20,000 records
    // resident, every store evicting the oldest.
    dtn::buffer_config cfg;
    cfg.retention = sim_duration{20'000'000};
    dtn::retransmission_buffer buf(cfg);
    const std::vector<std::uint8_t> payload(24, 0x5a);
    std::uint64_t stored = 0;
    sim_time now{0};
    store_records(buf, payload, stored, 100000, now, 1000);
    const auto before = g_allocs.load(std::memory_order_relaxed);
    store_records(buf, payload, stored, 100000, now, 1000);
    const auto allocs = g_allocs.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(buf.stats().evicted_retention + buf.entries(), stored);
    EXPECT_NEAR(static_cast<double>(buf.entries()), 20000.0, 100.0);
}

// The checked-in soak scenario end to end: five experiments over shared
// spans, a persisting DTN killed and revived, corruption bursts and a
// WAN outage. Only the drain is counted, not the build. The count is
// exact for a given tree, so the bound cannot flake; it sits 10% above
// the ratio this gate was last set at (3,562 allocations for 10,000
// delivered messages, since the DTN buffers keep their records in pooled
// blocks), so one more allocation per delivered message fails it.
TEST(alloc_free, soak_scenario_drain_allocations_per_message)
{
    constexpr double bound = 0.3562 * 1.1;

    const auto loaded =
        scenario::load_scenario_file(std::string(MMTP_SCENARIO_DIR) + "/soak.scenario");
    ASSERT_TRUE(loaded) << loaded.error.to_string();
    scenario::dsl_driver d(*loaded.spec);
    d.prepare();
    const auto before = g_allocs.load(std::memory_order_relaxed);
    d.context().run();
    const auto allocs = g_allocs.load(std::memory_order_relaxed) - before;

    const auto acc = d.accept();
    ASSERT_TRUE(acc.whole);
    ASSERT_GT(acc.delivered, 0u);
    const double per_message = static_cast<double>(allocs) / static_cast<double>(acc.delivered);
    EXPECT_LT(per_message, bound)
        << allocs << " allocations for " << acc.delivered << " delivered messages";
}
