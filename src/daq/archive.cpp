#include "daq/archive.hpp"

#include "common/crc32c.hpp"

#include <algorithm>

namespace mmtp::daq {

namespace {

void write_string(byte_writer& w, const std::string& s)
{
    w.u16(static_cast<std::uint16_t>(s.size()));
    w.bytes(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

std::optional<std::string> read_string(byte_reader& r)
{
    const auto n = r.u16();
    const auto bytes = r.bytes(n);
    if (r.failed()) return std::nullopt;
    return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

void write_attributes(byte_writer& w, const std::map<std::string, std::string>& attrs)
{
    w.u16(static_cast<std::uint16_t>(attrs.size()));
    for (const auto& [k, v] : attrs) {
        write_string(w, k);
        write_string(w, v);
    }
}

/// Bytes write_attributes() emits for `attrs`.
std::size_t attributes_bytes(const std::map<std::string, std::string>& attrs)
{
    std::size_t n = 2;
    for (const auto& [k, v] : attrs) n += 2 + k.size() + 2 + v.size();
    return n;
}

std::optional<std::map<std::string, std::string>> read_attributes(byte_reader& r)
{
    std::map<std::string, std::string> out;
    const auto n = r.u16();
    if (r.failed()) return std::nullopt; // truncated count must fail closed
    for (std::uint16_t i = 0; i < n; ++i) {
        auto k = read_string(r);
        auto v = read_string(r);
        if (!k || !v) return std::nullopt;
        out[*k] = *v;
    }
    return out;
}

archived_record to_record(const record_view& v)
{
    return {v.sequence, v.timestamp_ns, v.size_bytes, {v.payload.begin(), v.payload.end()}};
}

/// Superblock: magic, version, index offset.
constexpr std::size_t superblock_bytes = 8 + 2 + 8;
/// One chunk's index entry: offset, length, records.
constexpr std::size_t chunk_index_bytes = 8 + 8 + 4;

} // namespace

// ----------------------------------------------------------- writer

archive_writer::archive_writer(std::uint32_t chunk_records) : chunk_records_(chunk_records) {}

void archive_writer::set_attribute(const std::string& key, const std::string& value)
{
    attributes_[key] = value;
}

void archive_writer::set_dataset_attribute(wire::experiment_id experiment,
                                           const std::string& key,
                                           const std::string& value)
{
    datasets_[experiment].attributes[key] = value;
}

void archive_writer::append(wire::experiment_id experiment, std::uint64_t sequence,
                            std::uint64_t timestamp_ns, std::uint32_t size_bytes,
                            std::span<const std::uint8_t> prefix,
                            std::span<const std::uint8_t> body)
{
    const std::size_t payload = prefix.size() + body.size();
    auto& ds = datasets_[experiment];
    // the open chunk's header comes with its first record
    const std::size_t header = ds.open_records == 0 ? chunk_header_bytes : 0;
    const std::size_t at = ds.bytes.size();
    ds.bytes.resize(at + header + record_header_bytes + payload);
    std::uint8_t* p = ds.bytes.data() + at + header;
    write_cursor w(p);
    w.u64(sequence);
    w.u64(timestamp_ns);
    w.u32(size_bytes);
    w.u32(static_cast<std::uint32_t>(payload));
    p = std::copy(prefix.begin(), prefix.end(), p + record_header_bytes);
    std::copy(body.begin(), body.end(), p);

    ds.open_records++;
    ds.record_count++;
    records_++;
    stats_.appended++;
    if (ds.open_records >= chunk_records_) seal_chunk(ds);
}

void archive_writer::seal_open_chunks()
{
    for (auto& [id, ds] : datasets_) seal_chunk(ds);
}

std::uint64_t archive_writer::discard_open_chunks()
{
    std::uint64_t dropped = 0;
    for (auto& [id, ds] : datasets_) {
        dropped += ds.open_records;
        ds.record_count -= ds.open_records;
        records_ -= ds.open_records;
        ds.open_records = 0;
        ds.bytes.resize(ds.sealed_bytes());
    }
    return dropped;
}

std::uint64_t archive_writer::sealed_records() const
{
    std::uint64_t n = 0;
    for (const auto& [id, ds] : datasets_)
        for (const auto& c : ds.chunks) n += c.records;
    return n;
}

std::uint64_t archive_writer::open_records() const
{
    std::uint64_t n = 0;
    for (const auto& [id, ds] : datasets_) n += ds.open_records;
    return n;
}

void archive_writer::seal_chunk(dataset& ds)
{
    if (ds.open_records == 0) return;
    const std::size_t offset = ds.sealed_bytes();
    const std::size_t length = ds.bytes.size() - offset;
    std::uint8_t* chunk = ds.bytes.data() + offset;
    write_cursor(chunk + 4).u32(ds.open_records);
    write_cursor(chunk).u32(crc32c({chunk + 4, length - 4}));
    ds.chunks.push_back({offset, length, ds.open_records});
    ds.open_records = 0;
    stats_.chunks_sealed++;
}

std::vector<std::uint8_t> archive_writer::finalize()
{
    seal_open_chunks();

    std::size_t chunk_bytes = 0;
    std::size_t index_bytes = attributes_bytes(attributes_) + 4;
    for (const auto& [id, ds] : datasets_) {
        chunk_bytes += ds.bytes.size();
        index_bytes += 4 + 8 + attributes_bytes(ds.attributes) + 4
            + ds.chunks.size() * chunk_index_bytes;
    }
    byte_writer w(superblock_bytes + chunk_bytes + index_bytes);
    w.u64(archive_magic);
    w.u16(archive_version);
    w.u64(superblock_bytes + chunk_bytes); // the index follows the chunks

    for (const auto& [id, ds] : datasets_) w.bytes(ds.bytes);

    // index: file attributes, then datasets with absolute chunk offsets
    write_attributes(w, attributes_);
    w.u32(static_cast<std::uint32_t>(datasets_.size()));
    std::uint64_t base = superblock_bytes;
    for (const auto& [id, ds] : datasets_) {
        w.u32(id);
        w.u64(ds.record_count);
        write_attributes(w, ds.attributes);
        w.u32(static_cast<std::uint32_t>(ds.chunks.size()));
        for (const auto& c : ds.chunks) {
            w.u64(base + c.offset);
            w.u64(c.length);
            w.u32(c.records);
        }
        base += ds.bytes.size();
    }
    datasets_.clear();
    return w.take();
}

// ----------------------------------------------------------- reader

std::optional<archive_reader> archive_reader::open(std::vector<std::uint8_t> blob)
{
    archive_reader out;
    out.blob_ = std::move(blob);

    byte_reader r(out.blob_);
    if (r.u64() != archive_magic) return std::nullopt;
    if (r.u16() != archive_version) return std::nullopt;
    const auto index_offset = r.u64();
    if (r.failed() || index_offset >= out.blob_.size()) return std::nullopt;

    byte_reader idx(std::span<const std::uint8_t>(out.blob_).subspan(index_offset));
    auto attrs = read_attributes(idx);
    if (!attrs) return std::nullopt;
    out.attributes_ = std::move(*attrs);

    const auto n_datasets = idx.u32();
    if (idx.failed()) return std::nullopt;
    for (std::uint32_t d = 0; d < n_datasets; ++d) {
        const auto id = idx.u32();
        dataset_view view;
        view.record_count = idx.u64();
        if (idx.failed()) return std::nullopt; // fail closed before attr parse
        auto ds_attrs = read_attributes(idx);
        if (!ds_attrs) return std::nullopt;
        view.attributes = std::move(*ds_attrs);
        const auto n_chunks = idx.u32();
        if (idx.failed()) return std::nullopt; // huge n_chunks from garbage
        view.chunks.reserve(std::min<std::size_t>(n_chunks, idx.remaining() / chunk_index_bytes));
        std::uint64_t indexed = 0;
        for (std::uint32_t c = 0; c < n_chunks; ++c) {
            chunk_ref ref;
            ref.offset = idx.u64();
            ref.length = idx.u64();
            ref.records = idx.u32();
            if (idx.failed()) return std::nullopt;
            // overflow-safe span check: offset + length can wrap in u64
            if (ref.length > out.blob_.size()
                || ref.offset > out.blob_.size() - ref.length)
                return std::nullopt;
            if (ref.length < chunk_header_bytes) return std::nullopt;
            indexed += ref.records;
            view.chunks.push_back(ref);
        }
        // the index must agree with itself: chunk record counts sum to
        // the dataset's declared record_count
        if (indexed != view.record_count) return std::nullopt;
        out.datasets_[id] = std::move(view);
    }
    if (idx.failed()) return std::nullopt;

    // validate every chunk checksum up front (HDF5's filter check)
    for (const auto& [id, view] : out.datasets_) {
        for (const auto& c : view.chunks) {
            byte_reader cr(
                std::span<const std::uint8_t>(out.blob_).subspan(c.offset, c.length));
            const auto crc = cr.u32();
            const auto body = cr.bytes(c.length - 4);
            if (cr.failed() || crc32c(body) != crc) return std::nullopt;
        }
    }
    return out;
}

std::vector<wire::experiment_id> archive_reader::dataset_ids() const
{
    std::vector<wire::experiment_id> out;
    for (const auto& [id, view] : datasets_) out.push_back(id);
    return out;
}

std::uint64_t archive_reader::record_count(wire::experiment_id experiment) const
{
    const auto* view = find(experiment);
    return view == nullptr ? 0 : view->record_count;
}

const archive_reader::dataset_view* archive_reader::find(wire::experiment_id experiment) const
{
    auto it = datasets_.find(experiment);
    return it == datasets_.end() ? nullptr : &it->second;
}

bool archive_reader::agrees_with_index(const chunk_ref& c) const
{
    byte_reader r(std::span<const std::uint8_t>(blob_).subspan(c.offset + 4, c.length - 4));
    if (r.u32() != c.records) return false;
    for (std::uint32_t i = 0; i < c.records && !r.failed(); ++i) {
        r.skip(record_header_bytes - 4);
        r.skip(r.u32());
    }
    return !r.failed() && r.remaining() == 0;
}

std::vector<archived_record> archive_reader::read_all(wire::experiment_id experiment) const
{
    std::vector<archived_record> out;
    visit(experiment, [&](const record_view& v) { out.push_back(to_record(v)); });
    return out;
}

std::optional<archived_record> archive_reader::read_at(wire::experiment_id experiment,
                                                       std::uint64_t index) const
{
    const auto* view = find(experiment);
    if (view == nullptr) return std::nullopt;
    std::uint64_t base = 0;
    for (const auto& c : view->chunks) {
        if (index < base + c.records) {
            std::optional<archived_record> out;
            auto at = base;
            walk(c, [&](const record_view& v) {
                if (at++ == index) out = to_record(v);
            });
            return out;
        }
        base += c.records;
    }
    return std::nullopt;
}

std::optional<std::string> archive_reader::attribute(const std::string& key) const
{
    auto it = attributes_.find(key);
    if (it == attributes_.end()) return std::nullopt;
    return it->second;
}

std::optional<std::string> archive_reader::dataset_attribute(
    wire::experiment_id experiment, const std::string& key) const
{
    const auto* view = find(experiment);
    if (view == nullptr) return std::nullopt;
    auto it = view->attributes.find(key);
    if (it == view->attributes.end()) return std::nullopt;
    return it->second;
}

} // namespace mmtp::daq
