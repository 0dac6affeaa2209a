// Unit tests for the DTN retransmission buffer.
#include "dtn/buffer.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <random>

using namespace mmtp;
using namespace mmtp::dtn;
using namespace mmtp::literals;

namespace {

buffered_datagram make_entry(std::uint64_t seq, std::uint32_t size = 1000,
                             wire::experiment_id exp = 42, std::uint16_t epoch = 0)
{
    buffered_datagram d;
    d.sequence = seq;
    d.epoch = epoch;
    d.experiment = exp;
    d.size_bytes = size;
    d.timestamp_ns = seq * 100;
    return d;
}

/// fetch_range's records in order; their payload views last until the
/// buffer's next call.
std::vector<buffered_datagram> range_of(retransmission_buffer& buf,
                                        wire::experiment_id experiment, std::uint16_t epoch,
                                        std::uint64_t first, std::uint64_t last, sim_time now)
{
    std::vector<buffered_datagram> out;
    const auto found = buf.fetch_range(experiment, epoch, first, last, now,
                                       [&](const buffered_datagram& d) { out.push_back(d); });
    EXPECT_EQ(found, out.size());
    return out;
}

} // namespace

TEST(buffer, store_fetch_hit_and_miss)
{
    retransmission_buffer buf;
    buf.store(make_entry(5), sim_time{0});
    const auto hit = buf.fetch(42, 0, 5, sim_time{0});
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->sequence, 5u);
    EXPECT_EQ(hit->timestamp_ns, 500u);
    EXPECT_FALSE(buf.fetch(42, 0, 6, sim_time{0}).has_value());
    EXPECT_FALSE(buf.fetch(43, 0, 5, sim_time{0}).has_value());
    EXPECT_FALSE(buf.fetch(42, 1, 5, sim_time{0}).has_value());
    EXPECT_EQ(buf.stats().hits, 1u);
    EXPECT_EQ(buf.stats().misses, 3u);
}

TEST(buffer, fetch_range_returns_contiguous_present)
{
    retransmission_buffer buf;
    for (std::uint64_t s : {1, 2, 3, 5, 6}) buf.store(make_entry(s), sim_time{0});
    const auto got = range_of(buf, 42, 0, 2, 5, sim_time{0});
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].sequence, 2u);
    EXPECT_EQ(got[1].sequence, 3u);
    EXPECT_EQ(got[2].sequence, 5u);
}

TEST(buffer, capacity_eviction_oldest_first)
{
    buffer_config cfg;
    cfg.capacity_bytes = 2500;
    retransmission_buffer buf(cfg);
    buf.store(make_entry(1), sim_time{0});
    buf.store(make_entry(2), sim_time{0});
    buf.store(make_entry(3), sim_time{0}); // 3000 bytes: evict seq 1
    EXPECT_EQ(buf.entries(), 2u);
    EXPECT_FALSE(buf.fetch(42, 0, 1, sim_time{0}).has_value());
    EXPECT_TRUE(buf.fetch(42, 0, 3, sim_time{0}).has_value());
    EXPECT_EQ(buf.stats().evicted_capacity, 1u);
    EXPECT_LE(buf.bytes_used(), cfg.capacity_bytes);
}

TEST(buffer, retention_eviction)
{
    buffer_config cfg;
    cfg.retention = 1_s;
    retransmission_buffer buf(cfg);
    buf.store(make_entry(1), sim_time{0});
    buf.store(make_entry(2), sim_time{(500_ms).ns});
    // at t=1.2s, seq 1 is stale but seq 2 is not
    EXPECT_FALSE(buf.fetch(42, 0, 1, sim_time{(1200_ms).ns}).has_value());
    EXPECT_TRUE(buf.fetch(42, 0, 2, sim_time{(1200_ms).ns}).has_value());
    EXPECT_EQ(buf.stats().evicted_retention, 1u);
}

TEST(buffer, replacement_same_key_updates_bytes)
{
    retransmission_buffer buf;
    buf.store(make_entry(7, 1000), sim_time{0});
    buf.store(make_entry(7, 2000), sim_time{0});
    EXPECT_EQ(buf.entries(), 1u);
    EXPECT_EQ(buf.bytes_used(), 2000u);
    const auto hit = buf.fetch(42, 0, 7, sim_time{0});
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->size_bytes, 2000u);
}

TEST(buffer, streams_are_isolated_by_experiment)
{
    retransmission_buffer buf;
    buf.store(make_entry(1, 100, 1), sim_time{0});
    buf.store(make_entry(1, 100, 2), sim_time{0});
    EXPECT_EQ(buf.entries(), 2u);
    const auto r1 = range_of(buf, 1, 0, 0, 10, sim_time{0});
    ASSERT_EQ(r1.size(), 1u);
    EXPECT_EQ(r1[0].experiment, 1u);
}

TEST(buffer, peak_bytes_tracked)
{
    retransmission_buffer buf;
    buf.store(make_entry(1, 3000), sim_time{0});
    buf.store(make_entry(2, 1000), sim_time{0});
    EXPECT_EQ(buf.stats().peak_bytes, 4000u);
}

// A same-key re-store is the newest record: its first FIFO turn must not
// stand in for it.
TEST(buffer, restore_does_not_stall_retention)
{
    buffer_config cfg;
    cfg.retention = 1_s;
    retransmission_buffer buf(cfg);
    buf.store(make_entry(1), sim_time{0});
    buf.store(make_entry(2), sim_time{(100_ms).ns});
    buf.store(make_entry(1), sim_time{(500_ms).ns});
    // At 1.2 s seq 2 is 1.1 s old; the re-stored seq 1 is 0.7 s old.
    EXPECT_FALSE(buf.fetch(42, 0, 2, sim_time{(1200_ms).ns}).has_value());
    EXPECT_TRUE(buf.fetch(42, 0, 1, sim_time{(1200_ms).ns}).has_value());
    EXPECT_EQ(buf.stats().evicted_retention, 1u);
    EXPECT_EQ(buf.entries(), 1u);
}

TEST(buffer, restore_then_capacity_evicts_oldest_store)
{
    buffer_config cfg;
    cfg.capacity_bytes = 2500;
    retransmission_buffer buf(cfg);
    buf.store(make_entry(1), sim_time{0});
    buf.store(make_entry(2), sim_time{0});
    buf.store(make_entry(1), sim_time{0});
    buf.store(make_entry(3), sim_time{0}); // 3000 bytes: seq 2 is the oldest store
    EXPECT_TRUE(buf.fetch(42, 0, 1, sim_time{0}).has_value());
    EXPECT_FALSE(buf.fetch(42, 0, 2, sim_time{0}).has_value());
    EXPECT_TRUE(buf.fetch(42, 0, 3, sim_time{0}).has_value());
    EXPECT_EQ(buf.stats().evicted_capacity, 1u);
    EXPECT_EQ(buf.bytes_used(), 2000u);
}

TEST(buffer, sparse_stream_is_two_records)
{
    constexpr std::uint64_t far = 1ull << 47;
    retransmission_buffer buf;
    buf.store(make_entry(0), sim_time{0});
    buf.store(make_entry(far), sim_time{0});
    const auto got = range_of(buf, 42, 0, 0, (1ull << 48) - 1, sim_time{0});
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].sequence, 0u);
    EXPECT_EQ(got[1].sequence, far);
    EXPECT_TRUE(buf.fetch(42, 0, far, sim_time{0}).has_value());
    EXPECT_FALSE(buf.fetch(42, 0, far - 1, sim_time{0}).has_value());
    EXPECT_EQ(buf.entries(), 2u);
}

namespace {

/// A datagram with its own copy of the inline bytes.
struct owned_datagram {
    buffered_datagram d; // inline_payload unused: see payload
    std::vector<std::uint8_t> payload;

    explicit owned_datagram(const buffered_datagram& from)
        : d(from), payload(from.inline_payload.begin(), from.inline_payload.end())
    {
        d.inline_payload = {};
    }
};

/// The ordered-map buffer the sequence-indexed one replaced, with the
/// same ticket rule: a FIFO entry is live only while its key holds the
/// record stored under that entry's ticket.
class reference_buffer {
public:
    explicit reference_buffer(buffer_config cfg) : cfg_(cfg) {}

    void store(const buffered_datagram& in, sim_time now)
    {
        owned_datagram d(in);
        const key k{d.d.experiment, d.d.epoch, d.d.sequence};
        auto it = by_key_.find(k);
        if (it != by_key_.end()) {
            bytes_ -= it->second.d.d.size_bytes;
            by_key_.erase(it);
        }
        d.d.stored_at = now;
        bytes_ += d.d.size_bytes;
        stats_.stored++;
        if (bytes_ > stats_.peak_bytes) stats_.peak_bytes = bytes_;
        by_key_.emplace(k, record{std::move(d), ++next_ticket_});
        fifo_.push_back({k, next_ticket_});
        evict(now);
    }

    std::optional<owned_datagram> fetch(wire::experiment_id experiment, std::uint16_t epoch,
                                        std::uint64_t sequence, sim_time now)
    {
        evict(now);
        auto it = by_key_.find(key{experiment, epoch, sequence});
        if (it == by_key_.end()) {
            stats_.misses++;
            return std::nullopt;
        }
        stats_.hits++;
        return it->second.d;
    }

    std::vector<owned_datagram> fetch_range(wire::experiment_id experiment,
                                            std::uint16_t epoch, std::uint64_t first,
                                            std::uint64_t last, sim_time now)
    {
        evict(now);
        std::vector<owned_datagram> out;
        for (auto it = by_key_.lower_bound(key{experiment, epoch, first});
             it != by_key_.end(); ++it) {
            if (it->first.experiment != experiment || it->first.epoch != epoch) break;
            if (it->first.sequence > last) break;
            stats_.hits++;
            out.push_back(it->second.d);
        }
        if (out.empty()) stats_.misses++;
        return out;
    }

    void sweep(sim_time now) { evict(now); }

    std::uint64_t bytes_used() const { return bytes_; }
    std::size_t entries() const { return by_key_.size(); }
    const buffer_stats& stats() const { return stats_; }

private:
    struct key {
        wire::experiment_id experiment;
        std::uint16_t epoch;
        std::uint64_t sequence;
        auto operator<=>(const key&) const = default;
    };
    struct record {
        owned_datagram d;
        std::uint64_t ticket;
    };

    void evict(sim_time now)
    {
        while (!fifo_.empty()) {
            const auto [k, ticket] = fifo_.front();
            auto it = by_key_.find(k);
            if (it == by_key_.end() || it->second.ticket != ticket) {
                fifo_.pop_front();
                continue;
            }
            const bool too_old = (now - it->second.d.d.stored_at).ns > cfg_.retention.ns;
            const bool over_capacity = bytes_ > cfg_.capacity_bytes;
            if (!too_old && !over_capacity) break;
            bytes_ -= it->second.d.d.size_bytes;
            if (too_old)
                stats_.evicted_retention++;
            else
                stats_.evicted_capacity++;
            by_key_.erase(it);
            fifo_.pop_front();
        }
    }

    buffer_config cfg_;
    std::map<key, record> by_key_;
    std::deque<std::pair<key, std::uint64_t>> fifo_;
    std::uint64_t next_ticket_{0};
    std::uint64_t bytes_{0};
    buffer_stats stats_;
};

void expect_same(const buffered_datagram& got, const owned_datagram& want)
{
    EXPECT_EQ(got.sequence, want.d.sequence);
    EXPECT_EQ(got.epoch, want.d.epoch);
    EXPECT_EQ(got.experiment, want.d.experiment);
    EXPECT_EQ(got.timestamp_ns, want.d.timestamp_ns);
    EXPECT_EQ(got.size_bytes, want.d.size_bytes);
    EXPECT_EQ(std::vector<std::uint8_t>(got.inline_payload.begin(), got.inline_payload.end()),
              want.payload);
    EXPECT_EQ(got.stored_at.ns, want.d.stored_at.ns);
}

void expect_same_state(const retransmission_buffer& got, const reference_buffer& want)
{
    EXPECT_EQ(got.stats().stored, want.stats().stored);
    EXPECT_EQ(got.stats().evicted_capacity, want.stats().evicted_capacity);
    EXPECT_EQ(got.stats().evicted_retention, want.stats().evicted_retention);
    EXPECT_EQ(got.stats().hits, want.stats().hits);
    EXPECT_EQ(got.stats().misses, want.stats().misses);
    EXPECT_EQ(got.stats().peak_bytes, want.stats().peak_bytes);
    EXPECT_EQ(got.entries(), want.entries());
    EXPECT_EQ(got.bytes_used(), want.bytes_used());
}

/// Inline payload lengths a store draws from: the 0 and 24 bytes the
/// workloads relay, 1, either side of the 8-byte padding unit, and
/// (one store in 50) either side of the longest payload a block holds.
std::size_t payload_length(auto& pick)
{
    constexpr std::size_t room = retransmission_buffer::max_inline_bytes;
    constexpr std::size_t lengths[] = {0, 1, 7, 8, 9, 24, 25, room - 1, room, room + 1};
    return pick(50) == 0 ? lengths[7 + pick(3)] : lengths[pick(7)];
}

/// The operation mix of one differential run.
struct mix {
    std::uint64_t streams{6};
    /// Operations per 1,000 that empty both buffers: half jump past the
    /// retention so every record ages out (each stream is released, and
    /// later stores reuse it), half rebuild both buffers the way
    /// buffer_service::crash() does.
    std::uint64_t restarts_per_mille{10};
};

/// Drives both buffers through one seeded random mix of appends,
/// replacements, out-of-order and sparse stores, fetches, range fetches,
/// sweeps and restarts, comparing after every operation.
void run_differential(std::uint64_t seed, buffer_config cfg, int ops, mix m = {})
{
    constexpr std::uint64_t max_seq = (1ull << 48) - 1;
    std::mt19937_64 rng(seed);
    auto pick = [&](std::uint64_t n) { return rng() % n; };
    retransmission_buffer got(cfg);
    reference_buffer want(cfg);
    std::vector<std::vector<std::uint64_t>> stored(m.streams); // per stream, for re-stores
    std::vector<std::uint64_t> next(m.streams, 0);
    std::vector<std::uint8_t> bytes;
    sim_time now{0};

    for (int op = 0; op < ops; ++op) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " op " + std::to_string(op));
        now.ns += static_cast<std::int64_t>(pick(2000));
        const auto st = pick(m.streams);
        const auto experiment = static_cast<wire::experiment_id>(1 + st / 2);
        const auto epoch = static_cast<std::uint16_t>(st % 2);
        auto& seqs = stored[st];
        auto known = [&] { return seqs.empty() ? pick(64) : seqs[pick(seqs.size())]; };
        const auto roll = pick(1000);

        if (roll < 600) {
            std::uint64_t seq = 0;
            if (roll < 400 || seqs.empty()) {
                seq = next[st]; // in order
            } else if (roll < 480) {
                seq = known(); // same-key re-store
            } else if (roll < 560) {
                seq = next[st] > 0 ? pick(next[st]) : 0; // out of order
            } else {
                seq = next[st] + pick(max_seq - next[st] + 1); // sparse jump
            }
            if (seq >= next[st]) next[st] = seq < max_seq ? seq + 1 : max_seq;
            seqs.push_back(seq);
            auto d = make_entry(seq, 100 + static_cast<std::uint32_t>(pick(1900)),
                                experiment, epoch);
            bytes.resize(payload_length(pick));
            for (std::size_t i = 0; i < bytes.size(); ++i)
                bytes[i] = static_cast<std::uint8_t>(op + i);
            d.inline_payload = bytes;
            got.store(d, now);
            want.store(d, now);
        } else if (roll < 800) {
            const auto seq = known();
            const auto a = got.fetch(experiment, epoch, seq, now);
            const auto b = want.fetch(experiment, epoch, seq, now);
            ASSERT_EQ(a.has_value(), b.has_value());
            if (a) expect_same(*a, *b);
        } else if (roll < 950) {
            std::uint64_t first = known();
            std::uint64_t last = first + pick(64);
            if (roll >= 920) {
                first = 0;
                last = max_seq;
            }
            const auto a = range_of(got, experiment, epoch, first, last, now);
            const auto b = want.fetch_range(experiment, epoch, first, last, now);
            ASSERT_EQ(a.size(), b.size());
            for (std::size_t i = 0; i < a.size(); ++i) expect_same(a[i], b[i]);
        } else if (roll < 1000 - m.restarts_per_mille) {
            got.sweep(now);
            want.sweep(now);
        } else if (roll % 2 == 0) {
            now.ns += cfg.retention.ns + 1;
            got.sweep(now);
            want.sweep(now);
            EXPECT_EQ(got.entries(), 0u);
        } else {
            got = retransmission_buffer(cfg);
            want = reference_buffer(cfg);
        }
        expect_same_state(got, want);
        if (::testing::Test::HasFailure()) return;
    }
}

} // namespace

TEST(buffer, matches_reference_model_under_tight_retention)
{
    buffer_config cfg;
    cfg.retention = sim_duration{40000}; // about 40 operations
    for (std::uint64_t seed = 1; seed <= 4; ++seed) run_differential(seed, cfg, 20000);
}

TEST(buffer, matches_reference_model_under_tight_capacity)
{
    buffer_config cfg;
    cfg.capacity_bytes = 30000; // about 30 records
    for (std::uint64_t seed = 11; seed <= 14; ++seed) run_differential(seed, cfg, 20000);
}

TEST(buffer, matches_reference_model_under_both_limits)
{
    buffer_config cfg;
    cfg.retention = sim_duration{200000};
    cfg.capacity_bytes = 60000;
    for (std::uint64_t seed = 21; seed <= 24; ++seed) run_differential(seed, cfg, 20000);
}

// Two streams hold thousands of records each, so their slots span
// several blocks and the log many more, while records age out from the
// front; no restarts.
TEST(buffer, matches_reference_model_across_blocks)
{
    buffer_config cfg;
    cfg.retention = sim_duration{16000000}; // about 16,000 operations
    for (std::uint64_t seed = 31; seed <= 32; ++seed)
        run_differential(seed, cfg, 40000, mix{2, 0});
}
