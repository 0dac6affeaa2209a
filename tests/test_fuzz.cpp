// Robustness ("fuzz-lite") tests: every parser in the system must either
// reject arbitrary bytes or produce a value that re-serializes to a
// canonical form — never crash, never read out of bounds, never loop.
// Deterministic random inputs keep the suite reproducible.
#include "common/rng.hpp"
#include "daq/archive.hpp"
#include "daq/message.hpp"
#include "daq/wib.hpp"
#include "mmtp/stack.hpp"
#include "netsim/network.hpp"
#include "tcp/segment.hpp"
#include "wire/control.hpp"
#include "wire/header.hpp"
#include "wire/lower.hpp"

#include <gtest/gtest.h>

using namespace mmtp;

namespace {

std::vector<std::uint8_t> random_bytes(rng& r, std::size_t max_len)
{
    std::vector<std::uint8_t> out(r.uniform_int(0, max_len));
    for (auto& b : out) b = static_cast<std::uint8_t>(r.next());
    return out;
}

} // namespace

class fuzz_seeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(fuzz_seeds, mmtp_header_parser_total_and_idempotent)
{
    rng r(GetParam());
    for (int i = 0; i < 2000; ++i) {
        const auto bytes = random_bytes(r, 80);
        const auto h = wire::parse(bytes);
        if (!h) continue;
        // anything accepted must be internally consistent and
        // round-trip to an identical parse
        EXPECT_TRUE(h->consistent());
        byte_writer w;
        ASSERT_TRUE(serialize(*h, w));
        const auto again = wire::parse(w.view());
        ASSERT_TRUE(again.has_value());
        EXPECT_EQ(again->m, h->m);
        EXPECT_EQ(again->experiment, h->experiment);
    }
}

TEST_P(fuzz_seeds, control_body_parsers_total)
{
    rng r(GetParam() + 1);
    for (int i = 0; i < 2000; ++i) {
        const auto bytes = random_bytes(r, 64);
        // none of these may crash or loop; results are optional
        (void)wire::parse_nak(bytes);
        (void)wire::parse_backpressure(bytes);
        (void)wire::parse_deadline_exceeded(bytes);
        (void)wire::parse_buffer_advert(bytes);
    }
    SUCCEED();
}

TEST_P(fuzz_seeds, lower_layer_parsers_total)
{
    rng r(GetParam() + 2);
    for (int i = 0; i < 2000; ++i) {
        const auto bytes = random_bytes(r, 64);
        byte_reader br(bytes);
        if (auto eth = wire::parse_eth(br)) {
            byte_reader br2(bytes);
            (void)wire::parse_eth(br2);
            (void)wire::parse_ipv4(br2);
        }
        byte_reader br3(bytes);
        (void)wire::parse_udp(br3);
    }
    SUCCEED();
}

TEST_P(fuzz_seeds, tcp_segment_parser_total_and_idempotent)
{
    rng r(GetParam() + 3);
    for (int i = 0; i < 2000; ++i) {
        const auto bytes = random_bytes(r, 120);
        const auto seg = tcp::segment_header::parse(bytes);
        if (!seg) continue;
        byte_writer w;
        seg->serialize(w);
        const auto again = tcp::segment_header::parse(w.view());
        ASSERT_TRUE(again.has_value());
        EXPECT_EQ(*again, *seg);
    }
}

TEST_P(fuzz_seeds, wib_frame_parser_rejects_random_bytes)
{
    rng r(GetParam() + 4);
    int accepted = 0;
    for (int i = 0; i < 500; ++i) {
        std::vector<std::uint8_t> bytes(daq::wib_frame_bytes);
        for (auto& b : bytes) b = static_cast<std::uint8_t>(r.next());
        if (daq::wib_frame::parse(bytes)) accepted++;
    }
    // a random 532-byte blob passing a CRC32C check is a ~2^-32 event
    EXPECT_EQ(accepted, 0);
}

TEST_P(fuzz_seeds, daq_header_parser_total)
{
    rng r(GetParam() + 5);
    for (int i = 0; i < 2000; ++i) {
        const auto bytes = random_bytes(r, 48);
        (void)daq::daq_header::parse(bytes);
    }
    SUCCEED();
}

TEST_P(fuzz_seeds, archive_reader_rejects_random_blobs)
{
    rng r(GetParam() + 6);
    for (int i = 0; i < 200; ++i) {
        auto blob = random_bytes(r, 512);
        EXPECT_FALSE(daq::archive_reader::open(std::move(blob)).has_value());
    }
}

TEST_P(fuzz_seeds, archive_reader_survives_bit_flips_of_valid_blob)
{
    rng r(GetParam() + 7);
    daq::archive_writer w;
    const auto exp = wire::make_experiment_id(1, 0);
    for (std::uint64_t i = 0; i < 40; ++i) {
        daq::archived_record rec;
        rec.sequence = i;
        rec.payload = random_bytes(r, 64);
        rec.size_bytes = static_cast<std::uint32_t>(rec.payload.size());
        w.append(exp, std::move(rec));
    }
    const auto blob = w.finalize();
    for (int i = 0; i < 300; ++i) {
        auto mutated = blob;
        const auto pos = r.uniform_int(0, mutated.size() - 1);
        mutated[pos] ^= static_cast<std::uint8_t>(1u << r.uniform_int(0, 7));
        // must either reject, or open with data that still parses
        auto reader = daq::archive_reader::open(std::move(mutated));
        if (reader) {
            // the flip landed in dead space or an attribute; reading must
            // still be safe
            for (const auto id : reader->dataset_ids()) (void)reader->read_all(id);
        }
    }
    SUCCEED();
}

TEST_P(fuzz_seeds, stack_counts_corrupted_control_payloads)
{
    // Truncated/corrupted control bodies dispatched through a real stack
    // must be dropped *and accounted* (stack_stats::control_parse_errors),
    // never crash, and never invoke a typed handler. The oracle is the
    // standalone parser: the stack must agree with it payload for payload.
    rng r(GetParam() + 8);
    netsim::network net(GetParam() + 800);
    auto& a = net.add_host("a");
    auto& b = net.add_host("b");
    net.connect(a, b, {});
    net.compute_routes();
    core::stack sa(a, net.ids());
    core::stack sb(b, net.ids());

    std::uint64_t handled = 0;
    sb.set_nak_handler(
        [&](const wire::nak_body&, wire::experiment_id, wire::ipv4_addr) { handled++; });
    sb.add_backpressure_handler([&](const wire::backpressure_body&) { handled++; });
    sb.set_deadline_handler([&](const wire::deadline_exceeded_body&) { handled++; });
    sb.set_flush_handler([&](const wire::stream_flush_body&) { handled++; });
    sb.set_advert_handler([&](const wire::buffer_advert_body&) { handled++; });

    // A valid specimen of each body, so truncation/bit-flips start from
    // bytes the parser would otherwise accept.
    auto specimen = [&](wire::control_type t) {
        byte_writer w;
        switch (t) {
        case wire::control_type::nak: {
            wire::nak_body nak;
            nak.requester = a.address();
            nak.ranges = {{3, 9}, {20, 21}};
            serialize(nak, w);
            break;
        }
        case wire::control_type::backpressure: {
            wire::backpressure_body bp;
            bp.level = 200;
            bp.origin = a.address();
            serialize(bp, w);
            break;
        }
        case wire::control_type::deadline_exceeded: {
            wire::deadline_exceeded_body d;
            d.sequence = 42;
            serialize(d, w);
            break;
        }
        case wire::control_type::stream_flush: {
            wire::stream_flush_body f;
            f.next_sequence = 77;
            serialize(f, w);
            break;
        }
        default: {
            wire::buffer_advert_body ad;
            ad.buffer_addr = b.address();
            serialize(ad, w);
            break;
        }
        }
        return w.take();
    };
    auto parses = [](wire::control_type t, std::span<const std::uint8_t> bytes) {
        switch (t) {
        case wire::control_type::nak: return wire::parse_nak(bytes).has_value();
        case wire::control_type::backpressure:
            return wire::parse_backpressure(bytes).has_value();
        case wire::control_type::deadline_exceeded:
            return wire::parse_deadline_exceeded(bytes).has_value();
        case wire::control_type::stream_flush:
            return wire::parse_stream_flush(bytes).has_value();
        default: return wire::parse_buffer_advert(bytes).has_value();
        }
    };

    constexpr wire::control_type types[] = {
        wire::control_type::nak,           wire::control_type::backpressure,
        wire::control_type::deadline_exceeded, wire::control_type::stream_flush,
        wire::control_type::buffer_advert,
    };
    std::uint64_t sent = 0, expect_ok = 0, expect_bad = 0;
    for (int i = 0; i < 400; ++i) {
        const auto type = types[r.uniform_int(0, std::size(types) - 1)];
        auto payload = specimen(type);
        switch (r.uniform_int(0, 2)) {
        case 0: // truncate (possibly to empty)
            payload.resize(r.uniform_int(0, payload.size() - 1));
            break;
        case 1: { // bit-flip a byte
            if (!payload.empty()) {
                const auto pos = r.uniform_int(0, payload.size() - 1);
                payload[pos] ^= static_cast<std::uint8_t>(1u << r.uniform_int(0, 7));
            }
            break;
        }
        default: // replace with arbitrary bytes
            payload = random_bytes(r, 48);
            break;
        }
        (parses(type, payload) ? expect_ok : expect_bad)++;
        sa.send_control(b.address(), 7, type, std::move(payload));
        sent++;
    }
    net.sim().run();

    EXPECT_EQ(sb.stats().control_in, sent);
    EXPECT_EQ(sb.stats().control_parse_errors, expect_bad);
    EXPECT_EQ(handled, expect_ok);
    EXPECT_GT(expect_bad, 0u); // the corpus actually exercised the drop path
}

INSTANTIATE_TEST_SUITE_P(seeds, fuzz_seeds, ::testing::Values(1u, 2u, 3u, 4u, 5u));
