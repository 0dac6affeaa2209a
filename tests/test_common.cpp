// Unit tests for src/common: byte codecs, small_bytes, rng, crc32c,
// histogram, interval_set, and the unit types.
#include "common/bytes.hpp"
#include "common/crc32c.hpp"
#include "common/histogram.hpp"
#include "common/inline_task.hpp"
#include "common/interval_set.hpp"
#include "common/rng.hpp"
#include "common/small_bytes.hpp"
#include "common/units.hpp"
#include "netsim/packet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

using namespace mmtp;
using namespace mmtp::literals;

// ---------------------------------------------------------------- bytes

TEST(bytes, round_trip_all_widths)
{
    byte_writer w;
    w.u8(0xab);
    w.u16(0x1234);
    w.u24(0xabcdef);
    w.u32(0xdeadbeef);
    w.u48(0x0000123456789abcull);
    w.u64(0x1122334455667788ull);

    byte_reader r(w.view());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0x1234);
    EXPECT_EQ(r.u24(), 0xabcdefu);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u48(), 0x123456789abcull);
    EXPECT_EQ(r.u64(), 0x1122334455667788ull);
    EXPECT_FALSE(r.failed());
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(bytes, u24_masks_high_bits)
{
    byte_writer w;
    w.u24(0xff123456);
    byte_reader r(w.view());
    EXPECT_EQ(r.u24(), 0x123456u);
}

TEST(bytes, reader_overrun_is_sticky_and_returns_zero)
{
    const std::uint8_t data[2] = {0xff, 0xff};
    byte_reader r(std::span<const std::uint8_t>(data, 2));
    EXPECT_EQ(r.u32(), 0u);
    EXPECT_TRUE(r.failed());
    // subsequent reads also fail, even ones that would fit
    EXPECT_EQ(r.u8(), 0u);
    EXPECT_TRUE(r.failed());
}

TEST(bytes, bytes_view_and_skip)
{
    byte_writer w;
    const std::uint8_t src[4] = {1, 2, 3, 4};
    w.bytes(src);
    w.zeros(2);
    byte_reader r(w.view());
    auto v = r.bytes(3);
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[2], 3);
    r.skip(3);
    EXPECT_FALSE(r.failed());
    r.skip(1);
    EXPECT_TRUE(r.failed());
}

TEST(bytes, patch_u16)
{
    byte_writer w;
    w.u16(0);
    w.u8(7);
    w.patch_u16(0, 0xbeef);
    byte_reader r(w.view());
    EXPECT_EQ(r.u16(), 0xbeef);
}

TEST(bytes, reader_ensure_cannot_overflow)
{
    const std::uint8_t data[4] = {1, 2, 3, 4};
    byte_reader r(data);
    r.u16();
    // pos + n would wrap to a small value; n > size - pos does not.
    EXPECT_TRUE(r.bytes(std::numeric_limits<std::size_t>::max()).empty());
    EXPECT_TRUE(r.failed());
    EXPECT_EQ(r.position(), 2u);
}

TEST(bytes, cursors_match_the_checked_codecs)
{
    std::uint8_t buf[24] = {};
    write_cursor w(buf);
    w.u8(0xab);
    w.u16(0x1234);
    w.u24(0xabcdef);
    w.u32(0xdeadbeef);
    w.u48(0x0000123456789abcull);
    w.u64(0x1122334455667788ull);

    byte_writer bw;
    bw.u8(0xab);
    bw.u16(0x1234);
    bw.u24(0xabcdef);
    bw.u32(0xdeadbeef);
    bw.u48(0x0000123456789abcull);
    bw.u64(0x1122334455667788ull);
    ASSERT_EQ(bw.size(), sizeof buf);
    EXPECT_TRUE(std::equal(bw.view().begin(), bw.view().end(), buf));

    read_cursor r(buf);
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0x1234);
    EXPECT_EQ(r.u24(), 0xabcdefu);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u48(), 0x123456789abcull);
    EXPECT_EQ(r.u64(), 0x1122334455667788ull);
}

// ---------------------------------------------------------- small_bytes

namespace {

constexpr std::size_t inline_cap = small_bytes::inline_capacity;

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed = 1)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(seed + i * 7);
    return v;
}

} // namespace

TEST(small_bytes, layouts_are_pinned)
{
    // A packet rides inside engine closures next to their captures; a
    // larger packet or closure costs peak memory on every workload.
    EXPECT_EQ(sizeof(small_bytes), 104u);
    EXPECT_EQ(sizeof(netsim::packet), 160u);
    EXPECT_EQ(inline_task::inline_capacity, 192u);
}

TEST(small_bytes, copy_across_inline_and_heap)
{
    const small_bytes small(pattern(inline_cap));
    const small_bytes big(pattern(inline_cap + 1, 9));
    EXPECT_TRUE(small.is_inline());
    EXPECT_FALSE(big.is_inline());

    small_bytes a(small); // inline -> inline
    EXPECT_TRUE(a.is_inline());
    EXPECT_EQ(a, small);
    small_bytes b(big); // heap -> heap, own storage
    EXPECT_FALSE(b.is_inline());
    EXPECT_NE(b.data(), big.data());
    EXPECT_EQ(b, big);

    a = big; // inline destination grows to the heap
    EXPECT_FALSE(a.is_inline());
    EXPECT_EQ(a, big);
    b = small; // heap destination keeps its buffer, takes the bytes
    EXPECT_EQ(b, small);
    EXPECT_GE(b.capacity(), big.size());
}

TEST(small_bytes, move_across_inline_and_heap)
{
    small_bytes inl(pattern(10));
    small_bytes moved_inl(std::move(inl));
    EXPECT_TRUE(moved_inl.is_inline());
    EXPECT_EQ(moved_inl, pattern(10));
    EXPECT_TRUE(inl.empty());
    EXPECT_TRUE(inl.is_inline());

    small_bytes heap(pattern(200));
    const auto* storage = heap.data();
    small_bytes moved_heap(std::move(heap));
    EXPECT_EQ(moved_heap.data(), storage) << "a heap buffer moves by pointer";
    EXPECT_EQ(moved_heap, pattern(200));
    EXPECT_TRUE(heap.empty());
    EXPECT_TRUE(heap.is_inline());
    EXPECT_EQ(heap.capacity(), inline_cap);

    // Move-assigning over a heap-backed buffer releases it (ASan checks
    // the leak) and takes the source's inline bytes.
    small_bytes dst(pattern(300));
    small_bytes src(pattern(5, 3));
    dst = std::move(src);
    EXPECT_TRUE(dst.is_inline());
    EXPECT_EQ(dst, pattern(5, 3));
    EXPECT_TRUE(src.empty());
}

TEST(small_bytes, self_assignment_keeps_contents)
{
    for (const std::size_t n : {std::size_t{7}, inline_cap + 50}) {
        small_bytes a(pattern(n));
        auto& alias = a;
        a = alias;
        EXPECT_EQ(a, pattern(n)) << n;
        a = std::move(alias);
        EXPECT_EQ(a, pattern(n)) << n;
        EXPECT_EQ(a.is_inline(), n <= inline_cap) << n;
    }
}

TEST(small_bytes, assign_from_vector_and_span)
{
    small_bytes a;
    a = pattern(20);
    EXPECT_TRUE(a.is_inline());
    EXPECT_EQ(a, pattern(20));

    const auto big = pattern(inline_cap * 3, 4);
    a = std::span<const std::uint8_t>(big);
    EXPECT_FALSE(a.is_inline());
    EXPECT_EQ(a, big);

    auto shorter = pattern(inline_cap + 2, 6);
    a = std::move(shorter); // rvalue vector: bytes copied, vector cleared
    EXPECT_EQ(a, pattern(inline_cap + 2, 6));
    EXPECT_TRUE(shorter.empty());

    const auto tiny = pattern(3, 8);
    a = std::span<const std::uint8_t>(tiny); // heap buffer reused
    EXPECT_EQ(a, tiny);
    EXPECT_FALSE(a.is_inline());

    small_bytes fresh;
    fresh = pattern(inline_cap + 1); // a vector straight to the heap
    EXPECT_FALSE(fresh.is_inline());
    EXPECT_EQ(fresh, pattern(inline_cap + 1));
}

TEST(small_bytes, grows_across_the_inline_boundary)
{
    const auto want = pattern(inline_cap + 40);
    small_bytes b;
    for (std::size_t i = 0; i < want.size(); ++i) {
        b.push_back(want[i]);
        EXPECT_EQ(b.is_inline(), i + 1 <= inline_cap) << i;
    }
    EXPECT_EQ(b, want);

    // extend() and append() cross it the same way, keeping the prefix.
    small_bytes e(pattern(inline_cap - 2));
    std::uint8_t* at = e.extend(4);
    EXPECT_FALSE(e.is_inline());
    EXPECT_EQ(at, e.data() + inline_cap - 2);
    for (int i = 0; i < 4; ++i) at[i] = 0xee;
    auto expect = pattern(inline_cap - 2);
    expect.insert(expect.end(), 4, 0xee);
    EXPECT_EQ(e, expect);

    small_bytes c(pattern(inline_cap));
    const auto tail = pattern(5, 2);
    c.append(tail);
    auto joined = pattern(inline_cap);
    joined.insert(joined.end(), tail.begin(), tail.end());
    EXPECT_EQ(c, joined);

    // resize() zero-fills what it adds; insert() shifts the tail.
    small_bytes r(pattern(4));
    r.resize(inline_cap + 8);
    EXPECT_FALSE(r.is_inline());
    EXPECT_EQ(r[3], pattern(4)[3]);
    EXPECT_EQ(r[inline_cap + 7], 0u);
    small_bytes ins(pattern(inline_cap));
    const std::uint8_t mid[2] = {0xaa, 0xbb};
    ins.insert(ins.begin() + 1, mid, mid + 2);
    EXPECT_EQ(ins.size(), inline_cap + 2);
    EXPECT_EQ(ins[0], pattern(1)[0]);
    EXPECT_EQ(ins[1], 0xaa);
    EXPECT_EQ(ins[2], 0xbb);
    EXPECT_EQ(ins[3], pattern(inline_cap)[1]);
}

TEST(small_bytes, moved_from_heap_buffer_is_reusable)
{
    small_bytes a(pattern(150));
    small_bytes b(std::move(a));
    EXPECT_EQ(b, pattern(150));

    a.append(pattern(10, 5)); // back in the inline buffer
    EXPECT_TRUE(a.is_inline());
    EXPECT_EQ(a, pattern(10, 5));
    a.append(pattern(inline_cap, 2)); // and out to a fresh heap buffer
    EXPECT_FALSE(a.is_inline());
    EXPECT_NE(a.data(), b.data());
    auto both = pattern(10, 5);
    const auto more = pattern(inline_cap, 2);
    both.insert(both.end(), more.begin(), more.end());
    EXPECT_EQ(a, both);
    EXPECT_EQ(b, pattern(150)) << "the moved-to buffer is untouched";
}

// ------------------------------------------------------------------ rng

TEST(rng, deterministic_for_same_seed)
{
    rng a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(rng, different_seeds_diverge)
{
    rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next()) same++;
    EXPECT_LT(same, 2);
}

TEST(rng, uniform_in_unit_interval)
{
    rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(rng, uniform_int_bounds_inclusive)
{
    rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.uniform_int(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        saw_lo |= v == 5;
        saw_hi |= v == 8;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(rng, chance_extremes)
{
    rng r(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(rng, chance_mid_probability_reasonable)
{
    rng r(13);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        if (r.chance(0.3)) hits++;
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(rng, exponential_mean)
{
    rng r(17);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
    EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(rng, normal_moments)
{
    rng r(19);
    double sum = 0, sq = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = r.normal(10.0, 2.0);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(rng, fork_is_independent)
{
    rng a(21);
    rng b = a.fork();
    // forked stream should not mirror the parent
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next()) same++;
    EXPECT_LT(same, 2);
}

// --------------------------------------------------------------- crc32c

TEST(crc32c, known_vector_rfc3720)
{
    // CRC-32C of 32 zero bytes = 0x8a9136aa (RFC 3720 test vector)
    std::vector<std::uint8_t> zeros(32, 0);
    EXPECT_EQ(crc32c(zeros), 0x8a9136aau);
}

TEST(crc32c, known_vector_ones)
{
    std::vector<std::uint8_t> ones(32, 0xff);
    EXPECT_EQ(crc32c(ones), 0x62a8ab43u);
}

TEST(crc32c, incremental_matches_oneshot)
{
    std::vector<std::uint8_t> data;
    rng r(23);
    for (int i = 0; i < 300; ++i) data.push_back(static_cast<std::uint8_t>(r.next()));

    auto state = crc32c_init();
    state = crc32c_update(state, std::span<const std::uint8_t>(data).first(100));
    state = crc32c_update(state, std::span<const std::uint8_t>(data).subspan(100));
    EXPECT_EQ(crc32c_finish(state), crc32c(data));
}

TEST(crc32c, detects_single_bit_flip)
{
    std::vector<std::uint8_t> data(64, 0x5a);
    const auto before = crc32c(data);
    data[20] ^= 0x01;
    EXPECT_NE(crc32c(data), before);
}

namespace {

/// The definition: one bit at a time through the reflected polynomial.
std::uint32_t bitwise_crc32c(std::span<const std::uint8_t> data)
{
    std::uint32_t c = 0xffffffffu;
    for (const auto b : data) {
        c ^= b;
        for (int k = 0; k < 8; ++k) c = (c & 1) ? (0x82f63b78u ^ (c >> 1)) : (c >> 1);
    }
    return c ^ 0xffffffffu;
}

std::vector<std::uint8_t> random_bytes(std::uint64_t seed, std::size_t n)
{
    rng r(seed);
    std::vector<std::uint8_t> out(n);
    for (auto& b : out) b = static_cast<std::uint8_t>(r.next());
    return out;
}

} // namespace

// Every length 0–1024 at every start offset 0–7, so the eight-byte loop,
// the bytewise tail and unaligned starts all meet the reference.
TEST(crc32c, matches_bitwise_reference_at_every_length_and_offset)
{
    const auto data = random_bytes(31, 1024 + 8);
    const std::span<const std::uint8_t> all(data);
    for (std::size_t offset = 0; offset < 8; ++offset)
        for (std::size_t len = 0; len <= 1024; ++len) {
            const auto s = all.subspan(offset, len);
            ASSERT_EQ(crc32c(s), bitwise_crc32c(s)) << "offset " << offset << " len " << len;
        }
}

// Feeding the same bytes through crc32c_update in pieces split at random
// points gives the one-shot CRC.
TEST(crc32c, random_split_points_match_oneshot)
{
    rng r(57);
    for (int round = 0; round < 200; ++round) {
        const auto n = static_cast<std::size_t>(r.uniform_int(0, 700));
        const auto data = random_bytes(1000 + round, n);
        const std::span<const std::uint8_t> all(data);
        auto state = crc32c_init();
        std::size_t at = 0;
        while (at < n) {
            const auto piece = static_cast<std::size_t>(r.uniform_int(0, n - at));
            state = crc32c_update(state, all.subspan(at, piece));
            at += piece;
        }
        ASSERT_EQ(crc32c_finish(state), bitwise_crc32c(all)) << "round " << round;
    }
}

// ------------------------------------------------------------ histogram

TEST(histogram, empty)
{
    histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(50), 0u);
}

TEST(histogram, exact_small_values)
{
    histogram h;
    for (std::uint64_t v = 0; v < 64; ++v) h.record(v);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 63u);
    EXPECT_EQ(h.percentile(0), 0u);
    EXPECT_EQ(h.percentile(100), 63u);
}

TEST(histogram, percentile_bounded_relative_error)
{
    histogram h;
    rng r(29);
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.uniform_int(1, 1000000);
        values.push_back(v);
        h.record(v);
    }
    std::sort(values.begin(), values.end());
    for (double p : {10.0, 50.0, 90.0, 99.0}) {
        const auto exact = values[static_cast<std::size_t>(p / 100.0 * (values.size() - 1))];
        const auto approx = h.percentile(p);
        EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                    static_cast<double>(exact) * 0.05 + 2.0)
            << "p=" << p;
    }
}

// Regression: percentile() must clamp estimates into [min, max] — the
// bucket midpoint of a lone large sample can otherwise exceed the
// largest value ever recorded (log buckets are wide at the top).
TEST(histogram, percentile_clamped_to_observed_range)
{
    histogram h;
    h.record(1000000); // one sample, bucket midpoint != value
    for (double p : {0.0, 50.0, 99.9, 100.0}) {
        EXPECT_EQ(h.percentile(p), 1000000u) << "p=" << p;
    }

    histogram pair;
    pair.record(100);
    pair.record(1048575); // top of a wide bucket
    EXPECT_GE(pair.percentile(99), 100u);
    EXPECT_LE(pair.percentile(99), 1048575u);
    EXPECT_GE(pair.percentile(1), 100u);
}

// Regression: p outside [0, 100] — including NaN, which fails every
// comparison — must behave like the nearest valid percentile instead of
// indexing out of range or invoking UB in the float → int cast.
TEST(histogram, percentile_out_of_range_p)
{
    histogram h;
    for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
    EXPECT_EQ(h.percentile(-5.0), h.percentile(0.0));
    EXPECT_EQ(h.percentile(250.0), h.percentile(100.0));
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(h.percentile(nan), h.percentile(0.0));
}

// --------------------------------------------------------- interval_set

TEST(interval_set, insert_and_contains)
{
    interval_set s;
    s.insert(10, 20);
    EXPECT_TRUE(s.contains(10));
    EXPECT_TRUE(s.contains(19));
    EXPECT_FALSE(s.contains(20));
    EXPECT_FALSE(s.contains(9));
}

TEST(interval_set, merging_adjacent_and_overlapping)
{
    interval_set s;
    s.insert(0, 10);
    s.insert(10, 20); // touching: must merge
    EXPECT_EQ(s.interval_count(), 1u);
    s.insert(15, 30); // overlapping
    EXPECT_EQ(s.interval_count(), 1u);
    EXPECT_TRUE(s.covers(0, 30));
    s.insert(40, 50);
    EXPECT_EQ(s.interval_count(), 2u);
    s.insert(25, 45); // bridges the gap
    EXPECT_EQ(s.interval_count(), 1u);
    EXPECT_TRUE(s.covers(0, 50));
}

TEST(interval_set, erase_splits)
{
    interval_set s;
    s.insert(0, 100);
    s.erase(40, 60);
    EXPECT_EQ(s.interval_count(), 2u);
    EXPECT_TRUE(s.covers(0, 40));
    EXPECT_FALSE(s.contains(40));
    EXPECT_FALSE(s.contains(59));
    EXPECT_TRUE(s.covers(60, 100));
    EXPECT_EQ(s.covered(), 80u);
}

TEST(interval_set, next_missing)
{
    interval_set s;
    EXPECT_EQ(s.next_missing(5), 5u);
    s.insert(5, 10);
    EXPECT_EQ(s.next_missing(5), 10u);
    EXPECT_EQ(s.next_missing(7), 10u);
    EXPECT_EQ(s.next_missing(10), 10u);
    s.insert(10, 12);
    EXPECT_EQ(s.next_missing(5), 12u);
}

TEST(interval_set, gaps)
{
    interval_set s;
    s.insert(10, 20);
    s.insert(30, 40);
    const auto g = s.gaps(0, 50);
    ASSERT_EQ(g.size(), 3u);
    EXPECT_EQ(g[0].first, 0u);
    EXPECT_EQ(g[0].second, 10u);
    EXPECT_EQ(g[1].first, 20u);
    EXPECT_EQ(g[1].second, 30u);
    EXPECT_EQ(g[2].first, 40u);
    EXPECT_EQ(g[2].second, 50u);
}

TEST(interval_set, gaps_none_when_covered)
{
    interval_set s;
    s.insert(0, 100);
    EXPECT_TRUE(s.gaps(0, 100).empty());
    EXPECT_TRUE(s.gaps(20, 30).empty());
}

// Property test: random inserts/erases tracked against a reference bitmap.
TEST(interval_set, random_ops_match_reference_bitmap)
{
    constexpr std::uint64_t universe = 512;
    interval_set s;
    std::vector<bool> ref(universe, false);
    rng r(31);
    for (int op = 0; op < 2000; ++op) {
        const auto a = r.uniform_int(0, universe - 1);
        const auto b = r.uniform_int(0, universe);
        const auto lo = a < b ? a : b;
        const auto hi = a < b ? b : a;
        if (r.chance(0.6)) {
            s.insert(lo, hi);
            for (auto i = lo; i < hi; ++i) ref[i] = true;
        } else {
            s.erase(lo, hi);
            for (auto i = lo; i < hi; ++i) ref[i] = false;
        }
    }
    std::uint64_t ref_covered = 0;
    for (std::uint64_t i = 0; i < universe; ++i) {
        EXPECT_EQ(s.contains(i), static_cast<bool>(ref[i])) << "at " << i;
        if (ref[i]) ref_covered++;
    }
    EXPECT_EQ(s.covered(), ref_covered);
    // Canonical form: one interval per maximal run of the reference, so
    // touching or overlapping inserts always merged.
    std::size_t runs = 0;
    for (std::uint64_t i = 0; i < universe; ++i)
        if (ref[i] && (i == 0 || !ref[i - 1])) runs++;
    EXPECT_EQ(s.interval_count(), runs);
    // next_missing agrees with the reference
    for (std::uint64_t i = 0; i < universe; ++i) {
        std::uint64_t expect = i;
        while (expect < universe && ref[expect]) expect++;
        EXPECT_EQ(s.next_missing(i), expect) << "from " << i;
    }
}

// ---------------------------------------------------------------- units

TEST(units, transmission_time)
{
    const auto rate = data_rate::from_gbps(100);
    // 1250 bytes = 10000 bits at 100 Gbps = 100 ns
    EXPECT_EQ(rate.transmission_time(1250).ns, 100);
}

TEST(units, transmission_time_zero_rate_is_huge)
{
    const data_rate rate{0};
    EXPECT_GT(rate.transmission_time(1).ns, 1'000'000'000'000ll);
}

TEST(units, literals)
{
    EXPECT_EQ((5_ms).ns, 5'000'000);
    EXPECT_EQ((2_s).ns, 2'000'000'000);
    EXPECT_EQ((10_gbps).bits_per_sec, 10'000'000'000ull);
    EXPECT_EQ(1_mib, 1024ull * 1024);
}

TEST(units, time_arithmetic)
{
    const sim_time t{1000};
    const auto t2 = t + 5_us;
    EXPECT_EQ(t2.ns, 6000);
    EXPECT_EQ((t2 - t).ns, 5000);
    EXPECT_TRUE(sim_time::never().is_never());
    EXPECT_LT(t, t2);
}
