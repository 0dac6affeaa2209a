// Tests for the HDF5-style archival container (§6 challenge 2):
// round-trips, chunking, checksum validation, attributes, random access,
// an end-to-end transcode of received MMTP datagrams, a byte-level format
// pin, and chunks whose body disagrees with the index.
#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "daq/archive.hpp"
#include "daq/trigger.hpp"
#include "daq/wib.hpp"
#include "dtn/durable_store.hpp"

#include <gtest/gtest.h>

using namespace mmtp;
using namespace mmtp::daq;

namespace {

archived_record make_record(std::uint64_t seq, std::size_t payload_len = 32)
{
    archived_record r;
    r.sequence = seq;
    r.timestamp_ns = seq * 1000;
    r.size_bytes = static_cast<std::uint32_t>(payload_len + 100);
    r.payload.resize(payload_len);
    for (std::size_t i = 0; i < payload_len; ++i)
        r.payload[i] = static_cast<std::uint8_t>(seq + i);
    return r;
}

} // namespace

TEST(archive, empty_round_trip)
{
    archive_writer w;
    const auto blob = w.finalize();
    const auto r = archive_reader::open(blob);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->dataset_ids().empty());
}

TEST(archive, single_dataset_round_trip)
{
    archive_writer w;
    const auto exp = wire::make_experiment_id(wire::experiments::dune, 1);
    std::vector<archived_record> originals;
    for (std::uint64_t i = 0; i < 100; ++i) {
        originals.push_back(make_record(i));
        w.append(exp, originals.back());
    }
    EXPECT_EQ(w.records_written(), 100u);
    const auto blob = w.finalize();

    const auto r = archive_reader::open(blob);
    ASSERT_TRUE(r.has_value());
    ASSERT_EQ(r->dataset_ids().size(), 1u);
    EXPECT_EQ(r->record_count(exp), 100u);
    const auto records = r->read_all(exp);
    ASSERT_EQ(records.size(), 100u);
    for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(records[i], originals[i]) << i;
}

TEST(archive, chunking_respects_limits)
{
    archive_writer w(16);
    const auto exp = wire::make_experiment_id(1, 0);
    for (std::uint64_t i = 0; i < 50; ++i) w.append(exp, make_record(i));
    const auto blob = w.finalize();
    const auto r = archive_reader::open(blob);
    ASSERT_TRUE(r.has_value());
    // 50 records over chunks of 16 => order preserved across chunk seams
    const auto records = r->read_all(exp);
    ASSERT_EQ(records.size(), 50u);
    for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(records[i].sequence, i);
}

TEST(archive, multiple_datasets_are_isolated)
{
    archive_writer w;
    const auto a = wire::make_experiment_id(1, 0);
    const auto b = wire::make_experiment_id(2, 0);
    for (std::uint64_t i = 0; i < 10; ++i) w.append(a, make_record(i));
    for (std::uint64_t i = 100; i < 105; ++i) w.append(b, make_record(i));
    const auto blob = w.finalize();
    const auto r = archive_reader::open(blob);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->record_count(a), 10u);
    EXPECT_EQ(r->record_count(b), 5u);
    EXPECT_EQ(r->read_all(b).front().sequence, 100u);
    EXPECT_EQ(r->record_count(wire::make_experiment_id(3, 0)), 0u);
}

TEST(archive, attributes_round_trip)
{
    archive_writer w;
    const auto exp = wire::make_experiment_id(wire::experiments::iceberg, 0);
    w.set_attribute("facility", "dune-far-site");
    w.set_attribute("schema", "trigger-records-v1");
    w.append(exp, make_record(0));
    w.set_dataset_attribute(exp, "detector", "iceberg-lartpc");
    const auto blob = w.finalize();

    const auto r = archive_reader::open(blob);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->attribute("facility").value_or(""), "dune-far-site");
    EXPECT_EQ(r->attribute("schema").value_or(""), "trigger-records-v1");
    EXPECT_FALSE(r->attribute("missing").has_value());
    EXPECT_EQ(r->dataset_attribute(exp, "detector").value_or(""), "iceberg-lartpc");
    EXPECT_FALSE(r->dataset_attribute(exp, "missing").has_value());
}

TEST(archive, random_access_by_index)
{
    archive_writer w(8);
    const auto exp = wire::make_experiment_id(1, 0);
    for (std::uint64_t i = 0; i < 30; ++i) w.append(exp, make_record(i));
    const auto blob = w.finalize();
    const auto r = archive_reader::open(blob);
    ASSERT_TRUE(r.has_value());
    for (std::uint64_t i : {0ull, 7ull, 8ull, 15ull, 29ull}) {
        const auto rec = r->read_at(exp, i);
        ASSERT_TRUE(rec.has_value()) << i;
        EXPECT_EQ(rec->sequence, i);
    }
    EXPECT_FALSE(r->read_at(exp, 30).has_value());
    EXPECT_FALSE(r->read_at(wire::make_experiment_id(9, 0), 0).has_value());
}

TEST(archive, corruption_detected_at_open)
{
    archive_writer w;
    const auto exp = wire::make_experiment_id(1, 0);
    for (std::uint64_t i = 0; i < 20; ++i) w.append(exp, make_record(i));
    auto blob = w.finalize();

    // flip one payload byte inside the chunk area
    auto corrupted = blob;
    corrupted[40] ^= 0x01;
    EXPECT_FALSE(archive_reader::open(corrupted).has_value());

    // truncation
    auto truncated = blob;
    truncated.resize(truncated.size() / 2);
    EXPECT_FALSE(archive_reader::open(truncated).has_value());

    // wrong magic
    auto wrong = blob;
    wrong[0] ^= 0xff;
    EXPECT_FALSE(archive_reader::open(wrong).has_value());

    // pristine blob still opens
    EXPECT_TRUE(archive_reader::open(blob).has_value());
}

TEST(archive_limits, append_accounting_identities_hold)
{
    constexpr std::uint32_t chunk_records = 4;
    archive_writer w(chunk_records);
    const auto exp = wire::make_experiment_id(1, 0);

    for (std::uint64_t i = 0; i < 18; ++i) w.append(exp, make_record(i, i % 5 == 0 ? 80 : 16));

    const auto& s = w.stats();
    EXPECT_EQ(s.appended, 18u);
    EXPECT_EQ(s.appended, w.records_written());
    EXPECT_EQ(s.appended, w.sealed_records() + w.open_records());
    EXPECT_EQ(w.open_records(), 2u); // 4 full chunks and 2 records

    // Sealing is observable: every full chunk was counted as it sealed,
    // and finalize seals the remainder.
    EXPECT_EQ(s.chunks_sealed, w.sealed_records() / chunk_records);
    const auto blob = w.finalize();
    const auto r = archive_reader::open(blob);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->record_count(exp), 18u);
}

TEST(archive, transcodes_materialized_wib_frames_losslessly)
{
    // end-to-end shape of §6 (2): detector frames -> messages -> archive
    // -> reader -> frames, with every CRC intact.
    iceberg_stream::config cfg;
    cfg.frames_per_record = 3;
    cfg.record_limit = 5;
    cfg.materialize_frames = true;
    iceberg_stream src(rng(99), cfg);

    archive_writer w;
    const auto exp = wire::make_experiment_id(wire::experiments::iceberg, 0);
    while (auto tm = src.next()) {
        archived_record rec;
        rec.sequence = tm->msg.sequence;
        rec.timestamp_ns = tm->msg.timestamp_ns;
        rec.size_bytes = tm->msg.size_bytes;
        rec.payload = tm->msg.inline_payload;
        w.append(exp, std::move(rec));
    }
    const auto blob = w.finalize();
    const auto r = archive_reader::open(blob);
    ASSERT_TRUE(r.has_value());
    const auto records = r->read_all(exp);
    ASSERT_EQ(records.size(), 5u);
    for (const auto& rec : records) {
        // the shared DAQ header parses, and each WIB frame CRC-checks
        const auto dh = daq_header::parse(rec.payload);
        ASSERT_TRUE(dh.has_value());
        for (int f = 0; f < 3; ++f) {
            const auto frame =
                wib_frame::parse(std::span<const std::uint8_t>(rec.payload)
                                     .subspan(daq_header::wire_bytes + f * wib_frame_bytes,
                                              wib_frame_bytes));
            ASSERT_TRUE(frame.has_value());
        }
    }
}

TEST(archive, large_payload_stress)
{
    rng r(7);
    archive_writer w(32);
    const auto exp = wire::make_experiment_id(1, 0);
    std::vector<std::uint32_t> sizes;
    for (std::uint64_t i = 0; i < 500; ++i) {
        const auto len = r.uniform_int(0, 4096);
        sizes.push_back(static_cast<std::uint32_t>(len));
        w.append(exp, make_record(i, len));
    }
    const auto blob = w.finalize();
    const auto reader = archive_reader::open(blob);
    ASSERT_TRUE(reader.has_value());
    const auto records = reader->read_all(exp);
    ASSERT_EQ(records.size(), 500u);
    for (std::uint64_t i = 0; i < 500; ++i)
        EXPECT_EQ(records[i].payload.size(), sizes[i]) << i;
}

// The on-disk format, pinned: a fixed script through every writer path
// (three datasets, payloads of 0, 2 and 37 bytes, full chunks, partial
// chunks sealed early, a discarded open tail, file and dataset
// attributes) must keep producing these exact bytes.
TEST(archive, format_pin)
{
    archive_writer w(4);
    const auto a = wire::make_experiment_id(1, 0);
    const auto b = wire::make_experiment_id(2, 5);
    const auto c = wire::make_experiment_id(wire::experiments::dune, 3);
    const std::size_t lengths[] = {0, 2, 37};
    w.set_attribute("facility", "pin-site");
    for (std::uint64_t i = 0; i < 11; ++i) w.append(a, make_record(i, lengths[i % 3]));
    for (std::uint64_t i = 0; i < 6; ++i) w.append(b, make_record(100 + i, lengths[(i + 1) % 3]));
    w.seal_open_chunks(); // partial chunks: 3 records of a, 2 of b
    for (std::uint64_t i = 0; i < 3; ++i) w.append(c, make_record(200 + i, lengths[i]));
    for (std::uint64_t i = 11; i < 13; ++i) w.append(a, make_record(i, lengths[i % 3]));
    EXPECT_EQ(w.discard_open_chunks(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i) w.append(c, make_record(300 + i, lengths[(i + 2) % 3]));
    w.append(b, make_record(106, 37));
    w.set_dataset_attribute(b, "detector", "pin-tpc");
    w.set_dataset_attribute(c, "schema", "v1");
    w.set_attribute("seq.7", "12");
    const auto blob = w.finalize();

    EXPECT_EQ(blob.size(), 1226u);
    EXPECT_EQ(crc32c(blob), 0xc5e616e6u);

    const auto r = archive_reader::open(blob);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->record_count(a), 11u);
    EXPECT_EQ(r->record_count(b), 7u);
    EXPECT_EQ(r->record_count(c), 5u);
    EXPECT_EQ(r->read_all(c).front().sequence, 300u);
}

namespace {

// One dataset of three sealed chunks, four records each, every payload
// `chunk_payload` bytes: chunk k starts at chunk_at(k).
constexpr std::size_t chunk_payload = 10;
constexpr std::size_t chunk_length =
    chunk_header_bytes + 4 * (record_header_bytes + chunk_payload);

std::size_t chunk_at(std::size_t k)
{
    return 18 + k * chunk_length; // after magic, version and index offset
}

std::vector<std::uint8_t> three_chunk_blob(wire::experiment_id exp)
{
    archive_writer w(4);
    for (std::uint64_t i = 0; i < 12; ++i) w.append(exp, make_record(i, chunk_payload));
    return w.finalize();
}

/// Rewrites chunk k's CRC so the chunk checksums valid again.
void recompute_crc(std::vector<std::uint8_t>& blob, std::size_t k)
{
    const auto at = chunk_at(k);
    const auto crc = crc32c(std::span<const std::uint8_t>(blob).subspan(at + 4, chunk_length - 4));
    write_cursor(blob.data() + at).u32(crc);
}

std::vector<std::uint64_t> sequences_of(const std::vector<archived_record>& records)
{
    std::vector<std::uint64_t> out;
    for (const auto& r : records) out.push_back(r.sequence);
    return out;
}

} // namespace

// A chunk whose body disagrees with its index entry — another record
// count, or a payload length that over- or under-runs the chunk — yields
// no records on any read path, even with its CRC recomputed to match.
// The other chunks still read: the check is all-or-nothing per chunk.
TEST(archive, chunk_disagreeing_with_index_yields_nothing)
{
    const auto exp = wire::make_experiment_id(wire::experiments::dune, 0);
    const auto pristine = three_chunk_blob(exp);
    const auto body = chunk_at(1) + chunk_header_bytes;
    const auto len_field = [&](std::size_t record) { // closes the record header
        return body + record * (record_header_bytes + chunk_payload) + record_header_bytes - 4;
    };
    struct mutation {
        const char* what;
        std::size_t at;
        std::uint32_t value;
    };
    const mutation mutations[] = {
        {"count 3", chunk_at(1) + 4, 3},
        {"count 5", chunk_at(1) + 4, 5},
        {"payload_len overruns", len_field(2), chunk_payload + 1},
        {"payload_len underruns", len_field(3), chunk_payload - 1},
    };
    const std::vector<std::uint64_t> survivors = {0, 1, 2, 3, 8, 9, 10, 11};

    for (const auto& m : mutations) {
        SCOPED_TRACE(m.what);
        auto blob = pristine;
        write_cursor(blob.data() + m.at).u32(m.value);
        recompute_crc(blob, 1);

        const auto r = archive_reader::open(blob);
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(r->record_count(exp), 12u); // the index still says 12

        EXPECT_EQ(sequences_of(r->read_all(exp)), survivors);

        std::vector<std::uint64_t> visited;
        r->visit(exp, [&](const record_view& v) { visited.push_back(v.sequence); });
        EXPECT_EQ(visited, survivors);

        for (std::uint64_t i = 0; i < 12; ++i)
            EXPECT_EQ(r->read_at(exp, i).has_value(), i < 4 || i >= 8) << i;

        dtn::durable_store store(256, blob);
        std::vector<std::uint64_t> recovered;
        const auto rec =
            store.recover([&](const dtn::buffered_datagram& d) { recovered.push_back(d.sequence); });
        EXPECT_EQ(rec.records, recovered.size());
        EXPECT_EQ(recovered, survivors);
        EXPECT_EQ(store.durable_records(), survivors.size());
    }

    // the same rewrite without a disagreement reads every record
    auto blob = pristine;
    recompute_crc(blob, 1);
    const auto r = archive_reader::open(blob);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->read_all(exp).size(), 12u);
}
