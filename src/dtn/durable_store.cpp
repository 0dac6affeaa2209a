#include "dtn/durable_store.hpp"

#include <array>
#include <cstdlib>
#include <string>

namespace mmtp::dtn {

namespace {

constexpr const char* journal_prefix = "seq.";

/// Bytes of the epoch prefix in front of each record's inline payload.
constexpr std::size_t epoch_bytes = 2;

} // namespace

durable_store::durable_store(std::uint32_t chunk_records, std::vector<std::uint8_t> image)
    : chunk_records_(chunk_records),
      writer_(chunk_records),
      image_(std::move(image)),
      crashed_(true)
{
}

bool durable_store::append(const buffered_datagram& d)
{
    if (crashed_) {
        stats_.rejected++;
        return false;
    }
    append_impl(d);
    stats_.appended++;
    return true;
}

void durable_store::append_impl(const buffered_datagram& d)
{
    std::array<std::uint8_t, epoch_bytes> epoch{};
    write_cursor(epoch.data()).u16(d.epoch);
    writer_.append(d.experiment, d.sequence, d.timestamp_ns, d.size_bytes, epoch,
                          d.inline_payload);
}

void durable_store::note_sequence(wire::experiment_id experiment, std::uint64_t next)
{
    auto& slot = journal_[experiment];
    if (next > slot) slot = next;
}

void durable_store::write_journal()
{
    for (const auto& [id, next] : journal_) {
        auto& sealed = sealed_journal_[id];
        if (next > sealed) sealed = next;
    }
    write_sealed_journal();
}

void durable_store::write_sealed_journal()
{
    for (const auto& [id, next] : sealed_journal_)
        writer_.set_attribute(journal_prefix + std::to_string(id), std::to_string(next));
}

void durable_store::seal()
{
    if (crashed_) return;
    writer_.seal_open_chunks();
    write_journal();
}

std::uint64_t durable_store::crash()
{
    if (crashed_) return 0;
    const auto tail = writer_.discard_open_chunks();
    stats_.tail_lost += tail;
    stats_.crashes++;
    // what was sealed — chunks and the last-sealed journal — is the disk
    // image the revived node comes back to
    write_sealed_journal();
    image_ = writer_.finalize();
    writer_ = daq::archive_writer(chunk_records_);
    journal_.clear();
    crashed_ = true;
    return tail;
}

durable_store::recovery durable_store::recover(const record_fn& on_record)
{
    recovery out;
    if (!crashed_) return out;

    auto reader = daq::archive_reader::open(std::move(image_));
    image_.clear();
    sealed_journal_.clear();
    crashed_ = false;
    stats_.recoveries++;
    if (!reader) return out; // corrupt image: revive empty, fail closed

    for (const auto& [key, value] : reader->attributes()) {
        if (key.rfind(journal_prefix, 0) != 0) continue;
        const auto id = static_cast<wire::experiment_id>(
            std::strtoul(key.c_str() + 4, nullptr, 10));
        out.next_sequences[id] = std::strtoull(value.c_str(), nullptr, 10);
    }

    // one walk over the image hands back each record and compacts it
    // into the fresh writer, so a second crash still finds it on disk
    for (const auto id : reader->dataset_ids()) {
        reader->visit(id, [&](const daq::record_view& rec) {
            if (rec.payload.size() < epoch_bytes) return; // malformed: no epoch prefix
            buffered_datagram d;
            d.sequence = rec.sequence;
            d.epoch = read_cursor(rec.payload.data()).u16();
            d.experiment = id;
            d.timestamp_ns = rec.timestamp_ns;
            d.size_bytes = rec.size_bytes;
            d.inline_payload = rec.payload.subspan(epoch_bytes);
            auto& next = out.next_sequences[id];
            if (d.sequence + 1 > next) next = d.sequence + 1;
            append_impl(d);
            out.records++;
            if (on_record) on_record(d);
        });
    }
    for (const auto& [id, next] : out.next_sequences) note_sequence(id, next);
    seal();

    stats_.recovered += out.records;
    return out;
}

} // namespace mmtp::dtn
