// Unit tests for src/wire: the MMTP header codec (including an exhaustive
// parameterized sweep over every feature combination), control bodies,
// the L2/L3 codecs and the header-stack builders.
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "netsim/packet.hpp"
#include "wire/build.hpp"
#include "wire/control.hpp"
#include "wire/header.hpp"
#include "wire/ids.hpp"
#include "wire/lower.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace mmtp;
using namespace mmtp::wire;

namespace {

/// Builds a fully-populated header for a given feature mask.
header make_header(std::uint32_t cfg_data)
{
    header h;
    h.m.cfg_id = 0;
    h.m.cfg_data = cfg_data;
    h.experiment = make_experiment_id(experiments::dune, 7);
    if (h.m.has(feature::sequencing)) h.sequencing = sequencing_field{0x123456789abull, 3};
    if (h.m.has(feature::retransmission))
        h.retransmission = retransmission_field{0x0a000102};
    if (h.m.has(feature::timeliness)) {
        timeliness_field t;
        t.deadline_us = 5000;
        t.age_us = 1200;
        t.flags = timeliness_flag_bit(timeliness_flag::aged);
        t.notify_addr = 0x0a000103;
        h.timeliness = t;
    }
    if (h.m.has(feature::pacing)) h.pacing = pacing_field{40000};
    if (h.m.has(feature::control)) h.control = control_type::nak;
    if (h.m.has(feature::timestamped)) h.timestamp_ns = 0xdeadbeefcafe1234ull;
    return h;
}

/// The byte_writer path, field by field in the documented layout, with
/// no shared code with the in-place serializers: Ethernet + IPv4 (when
/// `ip` is given) + MMTP header.
std::vector<std::uint8_t> reference_stack(const eth_header& eth, const ipv4_header* ip,
                                          const header& h)
{
    byte_writer w;
    w.u48(eth.dst);
    w.u48(eth.src);
    w.u16(eth.ethertype);
    if (ip != nullptr) {
        w.u8(0x45);
        w.u8(ip->dscp);
        w.u16(ip->total_length);
        w.u16(0);
        w.u16(0x4000);
        w.u8(ip->ttl);
        w.u8(ip->protocol);
        w.u16(0);
        w.u32(ip->src);
        w.u32(ip->dst);
    }
    w.u8(h.m.cfg_id);
    w.u24(h.m.cfg_data);
    w.u32(h.experiment);
    if (h.sequencing) {
        w.u48(h.sequencing->sequence);
        w.u16(h.sequencing->epoch);
    }
    if (h.retransmission) w.u32(h.retransmission->buffer_addr);
    if (h.timeliness) {
        w.u32(h.timeliness->deadline_us);
        w.u32(h.timeliness->age_us);
        w.u16(h.timeliness->flags);
        w.u32(h.timeliness->notify_addr);
    }
    if (h.pacing) w.u32(h.pacing->pace_mbps);
    if (h.control) w.u8(static_cast<std::uint8_t>(*h.control));
    if (h.timestamp_ns) w.u64(*h.timestamp_ns);
    return w.take();
}

} // namespace

// Exhaustive round-trip over all 2^9 feature combinations.
class header_roundtrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(header_roundtrip, serialize_parse_identity)
{
    const auto h = make_header(GetParam());
    ASSERT_TRUE(h.consistent());

    byte_writer w;
    ASSERT_TRUE(serialize(h, w));
    EXPECT_EQ(w.size(), h.wire_size());
    EXPECT_EQ(w.size(), header_size_for(h.m));

    const auto parsed = parse(w.view());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->m, h.m);
    EXPECT_EQ(parsed->experiment, h.experiment);
    EXPECT_EQ(parsed->sequencing.has_value(), h.sequencing.has_value());
    if (h.sequencing) {
        EXPECT_EQ(parsed->sequencing->sequence, h.sequencing->sequence);
        EXPECT_EQ(parsed->sequencing->epoch, h.sequencing->epoch);
    }
    if (h.retransmission) {
        EXPECT_EQ(parsed->retransmission->buffer_addr, h.retransmission->buffer_addr);
    }
    if (h.timeliness) {
        EXPECT_EQ(parsed->timeliness->deadline_us, h.timeliness->deadline_us);
        EXPECT_EQ(parsed->timeliness->age_us, h.timeliness->age_us);
        EXPECT_EQ(parsed->timeliness->flags, h.timeliness->flags);
        EXPECT_EQ(parsed->timeliness->notify_addr, h.timeliness->notify_addr);
    }
    if (h.pacing) {
        EXPECT_EQ(parsed->pacing->pace_mbps, h.pacing->pace_mbps);
    }
    if (h.control) {
        EXPECT_EQ(*parsed->control, *h.control);
    }
    if (h.timestamp_ns) {
        EXPECT_EQ(*parsed->timestamp_ns, *h.timestamp_ns);
    }
}

TEST_P(header_roundtrip, truncation_always_rejected)
{
    const auto h = make_header(GetParam());
    byte_writer w;
    ASSERT_TRUE(serialize(h, w));
    const auto bytes = w.view();
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        EXPECT_FALSE(parse(bytes.first(cut)).has_value()) << "cut=" << cut;
    }
}

TEST_P(header_roundtrip, stack_builders_write_the_byte_writer_bytes_inline)
{
    const auto h = make_header(GetParam());

    // serialize() into a byte_writer is the reference path's header.
    byte_writer w;
    ASSERT_TRUE(serialize(h, w));
    const auto ref_header = reference_stack({}, nullptr, h);
    ASSERT_GE(ref_header.size(), eth_header_size);
    EXPECT_TRUE(std::equal(w.view().begin(), w.view().end(),
                           ref_header.begin() + eth_header_size, ref_header.end()));

    eth_header eth{0, 0x020000000001ull, ethertype_ipv4};
    ipv4_header ip;
    ip.dscp = 0x2e;
    ip.protocol = ipproto_mmtp;
    ip.src = 0x0a000001;
    ip.dst = 0x0a000002;
    ip.total_length = static_cast<std::uint16_t>(ipv4_header_size + h.wire_size() + 1000);
    netsim::packet over_ip;
    build_mmtp_over_ipv4(over_ip.headers, eth.src, ip.src, ip.dst, h, 1000, ip.dscp);
    EXPECT_EQ(over_ip.headers, reference_stack(eth, &ip, h));
    EXPECT_TRUE(over_ip.headers.is_inline()) << over_ip.headers.size() << " bytes";

    const eth_header l2{0x030000000002ull, 0x020000000001ull, ethertype_mmtp};
    const auto l2_stack = reference_stack(l2, nullptr, h);
    netsim::packet over_l2;
    build_mmtp_over_l2(over_l2.headers, l2.src, l2.dst, h);
    EXPECT_EQ(over_l2.headers, l2_stack);
    EXPECT_TRUE(over_l2.headers.is_inline());

    // Building over a used buffer replaces its contents.
    build_mmtp_over_l2(over_ip.headers, l2.src, l2.dst, h);
    EXPECT_EQ(over_ip.headers, l2_stack);
    build_mmtp_over_ipv4(over_l2.headers, eth.src, ip.src, ip.dst, h, 1000, ip.dscp);
    EXPECT_EQ(over_l2.headers, reference_stack(eth, &ip, h));
}

INSTANTIATE_TEST_SUITE_P(all_feature_combinations, header_roundtrip,
                         ::testing::Range(0u, 512u));

TEST(header, nonzero_cfg_id_is_policy_epoch)
{
    // cfg_id carries the control plane's policy epoch; every epoch uses the
    // cfg-0 layout, so any value must parse and round-trip unchanged.
    auto h = make_header(0x17); // a few feature bits, to exercise extensions
    byte_writer w;
    ASSERT_TRUE(serialize(h, w));
    auto bytes = std::vector<std::uint8_t>(w.view().begin(), w.view().end());
    for (std::uint32_t epoch : {1u, 7u, 255u}) {
        bytes[0] = static_cast<std::uint8_t>(epoch);
        const auto parsed = parse(bytes);
        ASSERT_TRUE(parsed.has_value()) << "epoch=" << epoch;
        EXPECT_EQ(parsed->m.cfg_id, epoch);
        EXPECT_EQ(parsed->m.cfg_data, h.m.cfg_data);
    }
}

TEST(header, reserved_feature_bits_rejected)
{
    byte_writer w;
    w.u8(0);
    w.u24(known_feature_mask + 1); // a reserved bit
    w.u32(0);
    EXPECT_FALSE(parse(w.view()).has_value());
}

TEST(header, inconsistent_header_not_serialized)
{
    header h;
    h.m.set(feature::sequencing); // bit set but field missing
    byte_writer w;
    EXPECT_FALSE(serialize(h, w));
    EXPECT_EQ(w.size(), 0u);

    header h2; // field present but bit missing
    h2.sequencing = sequencing_field{1, 0};
    EXPECT_FALSE(serialize(h2, w));
}

TEST(header, parse_core_ignores_extensions)
{
    const auto h = make_header(known_feature_mask);
    byte_writer w;
    ASSERT_TRUE(serialize(h, w));
    const auto core = parse_core(w.view());
    ASSERT_TRUE(core.has_value());
    EXPECT_EQ(core->m, h.m);
    EXPECT_EQ(core->experiment, h.experiment);
}

TEST(header, mode_to_string)
{
    mode m;
    m.set(feature::sequencing).set(feature::timeliness);
    EXPECT_EQ(to_string(m), "cfg0[seq,time]");
    EXPECT_EQ(to_string(mode{}), "cfg0[]");
}

TEST(header, pilot_modes_have_expected_features)
{
    EXPECT_EQ(modes::identification.cfg_data, 0u);
    EXPECT_TRUE(modes::wan_reliable.has(feature::sequencing));
    EXPECT_TRUE(modes::wan_reliable.has(feature::retransmission));
    EXPECT_TRUE(modes::wan_reliable.has(feature::timeliness));
    EXPECT_FALSE(modes::wan_reliable.has(feature::control));
    EXPECT_TRUE(modes::destination_check.has(feature::timeliness));
    EXPECT_FALSE(modes::destination_check.has(feature::retransmission));
}

// ------------------------------------------------------------------- ids

TEST(ids, experiment_slice_packing)
{
    const auto id = make_experiment_id(experiments::dune, 0xabc);
    EXPECT_EQ(experiment_of(id), experiments::dune);
    EXPECT_EQ(slice_of(id), 0xabcu);
    // slice overflow is masked
    const auto id2 = make_experiment_id(3, 0x1fff);
    EXPECT_EQ(slice_of(id2), 0xfffu);
    EXPECT_EQ(experiment_of(id2), 3u);
}

// --------------------------------------------------------------- control

TEST(control, nak_roundtrip)
{
    nak_body b;
    b.epoch = 42;
    b.requester = 0x0a0a0a0a;
    b.ranges = {{5, 9}, {100, 100}, {1ull << 40, (1ull << 40) + 3}};
    byte_writer w;
    serialize(b, w);
    const auto parsed = parse_nak(w.view());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
}

TEST(control, nak_range_cap)
{
    nak_body b;
    for (std::uint64_t i = 0; i < 30; ++i) b.ranges.push_back({i * 10, i * 10 + 1});
    byte_writer w;
    serialize(b, w);
    const auto parsed = parse_nak(w.view());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->ranges.size(), max_nak_ranges);
}

TEST(control, nak_rejects_inverted_range)
{
    byte_writer w;
    w.u16(0);
    w.u32(0);
    w.u8(1);
    w.u48(10);
    w.u48(5); // last < first
    EXPECT_FALSE(parse_nak(w.view()).has_value());
}

TEST(control, backpressure_roundtrip)
{
    backpressure_body b{200, 0x0a000105, 12345};
    byte_writer w;
    serialize(b, w);
    const auto parsed = parse_backpressure(w.view());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
}

TEST(control, deadline_exceeded_roundtrip)
{
    deadline_exceeded_body b{0xabcdef, 3, 15000, 10000, 0x0a0001ff};
    byte_writer w;
    serialize(b, w);
    const auto parsed = parse_deadline_exceeded(w.view());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
}

TEST(control, buffer_advert_roundtrip)
{
    buffer_advert_body b{0x0a000102, 1ull << 33, 5000, 0x0a000103};
    byte_writer w;
    serialize(b, w);
    const auto parsed = parse_buffer_advert(w.view());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
}

TEST(control, stream_flush_roundtrip)
{
    stream_flush_body b{make_experiment_id(2, 5), 3, 0x1234567890ull};
    byte_writer w;
    serialize(b, w);
    const auto parsed = parse_stream_flush(w.view());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
    EXPECT_FALSE(parse_stream_flush(w.view().first(w.size() - 1)).has_value());
}

TEST(control, subscribe_roundtrip)
{
    subscribe_body b{make_experiment_id(5, 1), 0x0a00010a};
    byte_writer w;
    serialize(b, w);
    const auto parsed = parse_subscribe(w.view());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
}

TEST(control, truncated_bodies_rejected)
{
    nak_body b;
    b.ranges = {{1, 2}};
    byte_writer w;
    serialize(b, w);
    EXPECT_FALSE(parse_nak(w.view().first(w.size() - 1)).has_value());

    backpressure_body bp;
    byte_writer w2;
    serialize(bp, w2);
    EXPECT_FALSE(parse_backpressure(w2.view().first(w2.size() - 1)).has_value());
}

// ----------------------------------------------------------------- lower

TEST(lower, eth_roundtrip)
{
    eth_header h{0x0000aabbccddeeffull & 0xffffffffffffull, 0x020000000001ull,
                 ethertype_mmtp};
    byte_writer w;
    serialize(h, w);
    EXPECT_EQ(w.size(), eth_header_size);
    byte_reader r(w.view());
    const auto parsed = parse_eth(r);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, h);
}

TEST(lower, ipv4_roundtrip)
{
    ipv4_header h;
    h.dscp = 0x2e;
    h.total_length = 1500;
    h.ttl = 17;
    h.protocol = ipproto_mmtp;
    h.src = 0x0a000001;
    h.dst = 0x0a000002;
    byte_writer w;
    serialize(h, w);
    EXPECT_EQ(w.size(), ipv4_header_size);
    byte_reader r(w.view());
    const auto parsed = parse_ipv4(r);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, h);
}

TEST(lower, udp_roundtrip)
{
    udp_header h{4000, 7000, 512};
    byte_writer w;
    serialize(h, w);
    EXPECT_EQ(w.size(), udp_header_size);
    byte_reader r(w.view());
    const auto parsed = parse_udp(r);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, h);
}

TEST(lower, addr_string_roundtrip)
{
    const ipv4_addr a = 0x0a016322; // 10.1.99.34
    EXPECT_EQ(addr_to_string(a), "10.1.99.34");
    const auto back = addr_from_string("10.1.99.34");
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, a);
    EXPECT_FALSE(addr_from_string("10.1.99").has_value());
    EXPECT_FALSE(addr_from_string("300.1.1.1").has_value());
    EXPECT_FALSE(addr_from_string("1.2.3.4x").has_value());
}

// ----------------------------------------------------------------- build

TEST(build, mmtp_over_ipv4_stack_parses_back)
{
    header h;
    h.m.set(feature::timestamped);
    h.experiment = make_experiment_id(experiments::iceberg, 0);
    h.timestamp_ns = 12345;
    small_bytes bytes;
    build_mmtp_over_ipv4(bytes, 0x02, 0x0a000001, 0x0a000002, h, 100);

    byte_reader r(bytes);
    const auto eth = parse_eth(r);
    ASSERT_TRUE(eth.has_value());
    EXPECT_EQ(eth->ethertype, ethertype_ipv4);
    const auto ip = parse_ipv4(r);
    ASSERT_TRUE(ip.has_value());
    EXPECT_EQ(ip->protocol, ipproto_mmtp);
    EXPECT_EQ(ip->src, 0x0a000001u);
    EXPECT_EQ(ip->dst, 0x0a000002u);
    EXPECT_EQ(ip->total_length, ipv4_header_size + h.wire_size() + 100);
    const auto parsed =
        parse(std::span<const std::uint8_t>(bytes).subspan(r.position()));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed->timestamp_ns, 12345u);
}

TEST(build, mmtp_over_l2_stack_parses_back)
{
    header h;
    h.experiment = make_experiment_id(experiments::mu2e, 2);
    small_bytes bytes;
    build_mmtp_over_l2(bytes, 0x02, 0x03, h);
    byte_reader r(bytes);
    const auto eth = parse_eth(r);
    ASSERT_TRUE(eth.has_value());
    EXPECT_EQ(eth->ethertype, ethertype_mmtp);
    const auto parsed =
        parse(std::span<const std::uint8_t>(bytes).subspan(r.position()));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->experiment, h.experiment);
}
