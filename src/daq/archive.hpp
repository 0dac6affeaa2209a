// archive.hpp — HDF5-style archival container for DAQ data (§6 (2)).
//
// The paper's future work asks how on-path or end-site resources can
// "transcode into other formats, such as HDF5 which is ubiquitously used
// for storage in scientific computing". This module is the storage-side
// substrate for that: a self-describing chunked container with the
// HDF5 properties that matter for DAQ archiving —
//   * a superblock with magic, version and a root index offset,
//   * per-experiment datasets of fixed-format records,
//   * chunked layout with per-chunk CRC32C (like HDF5's Fletcher filter),
//   * string attributes attached to the file and each dataset,
//   * an index footer so readers can open without scanning.
// It is not the HDF5 wire format (substitution documented in DESIGN.md);
// it is format-shaped the same way, and round-trips losslessly.
#pragma once

#include "common/bytes.hpp"
#include "daq/message.hpp"

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mmtp::daq {

/// One archived record: the transport-level metadata plus payload bytes.
struct archived_record {
    std::uint64_t sequence{0};
    std::uint64_t timestamp_ns{0};
    std::uint32_t size_bytes{0}; // original message size (payload may be smaller)
    std::vector<std::uint8_t> payload;

    bool operator==(const archived_record&) const = default;
};

/// A record read in place: `payload` points into the reader's blob and
/// stays valid as long as the reader does.
struct record_view {
    std::uint64_t sequence{0};
    std::uint64_t timestamp_ns{0};
    std::uint32_t size_bytes{0};
    std::span<const std::uint8_t> payload;
};

/// Append-path accounting.
struct archive_writer_stats {
    std::uint64_t appended{0};
    std::uint64_t chunks_sealed{0};
};

/// Where one sealed chunk sits in its dataset's bytes (the writer) or in
/// the blob (the reader), and how many records it holds: one index entry.
struct chunk_ref {
    std::uint64_t offset{0};
    std::uint64_t length{0};
    std::uint32_t records{0};
};

/// Chunk layout: CRC-32C (over the rest of the chunk), record count,
/// then the records back to back. Record layout: sequence, timestamp,
/// size_bytes, payload length, payload. All integers are big-endian.
constexpr std::size_t chunk_header_bytes = 4 + 4;
constexpr std::size_t record_header_bytes = 8 + 8 + 4 + 4;

/// Serializes datasets of records into a single byte blob. Each record is
/// encoded straight into its dataset's open chunk: the bytes after its
/// sealed chunks. Sealing patches the chunk's record count and CRC in
/// place. The writer takes every record it is given; only the reader
/// checks what it is handed.
class archive_writer {
public:
    /// `chunk_records`: records per chunk before the chunk is sealed and
    /// checksummed.
    explicit archive_writer(std::uint32_t chunk_records = 256);

    /// File-level attribute (e.g. "facility" -> "dune-far-site").
    void set_attribute(const std::string& key, const std::string& value);

    /// Appends a record whose payload is `prefix` followed by `body` to
    /// the dataset of `experiment` (created lazily).
    void append(wire::experiment_id experiment, std::uint64_t sequence,
                std::uint64_t timestamp_ns, std::uint32_t size_bytes,
                std::span<const std::uint8_t> prefix, std::span<const std::uint8_t> body);

    void append(wire::experiment_id experiment, const archived_record& r)
    {
        append(experiment, r.sequence, r.timestamp_ns, r.size_bytes, {}, r.payload);
    }

    /// Seals every open chunk now (the durability point a crash cannot
    /// take back), without finalizing. Chunks sealed early may hold
    /// fewer than chunk_records records; readers do not care.
    void seal_open_chunks();

    /// Drops every record still in an open (unsealed) chunk — the model
    /// of a crash losing the buffered tail that never reached disk.
    /// Returns how many records were discarded.
    std::uint64_t discard_open_chunks();

    /// Dataset-level attribute.
    void set_dataset_attribute(wire::experiment_id experiment, const std::string& key,
                               const std::string& value);

    /// Seals all chunks, writes the index footer, returns the blob.
    /// The writer is spent afterwards.
    std::vector<std::uint8_t> finalize();

    std::uint64_t records_written() const { return records_; }
    /// Records currently durable (inside sealed chunks).
    std::uint64_t sealed_records() const;
    /// Records still in open chunks (lost if discard_open_chunks runs).
    std::uint64_t open_records() const;
    const archive_writer_stats& stats() const { return stats_; }

private:
    struct dataset {
        /// The sealed chunks back to back, then the open chunk: its
        /// header (zeros until sealed) and records, once it has any.
        std::vector<std::uint8_t> bytes;
        std::vector<chunk_ref> chunks; // sealed; offsets into `bytes`
        std::uint32_t open_records{0};
        std::map<std::string, std::string> attributes;
        std::uint64_t record_count{0};

        std::size_t sealed_bytes() const
        {
            return chunks.empty() ? 0 : chunks.back().offset + chunks.back().length;
        }
    };

    void seal_chunk(dataset& ds);

    std::uint32_t chunk_records_;
    std::map<wire::experiment_id, dataset> datasets_;
    std::map<std::string, std::string> attributes_;
    std::uint64_t records_{0};
    archive_writer_stats stats_;
};

/// Parses a blob produced by archive_writer; validates magic, version and
/// every chunk checksum up front. Records are read in place.
class archive_reader {
public:
    /// Returns std::nullopt on malformed input or checksum mismatch.
    static std::optional<archive_reader> open(std::vector<std::uint8_t> blob);

    std::vector<wire::experiment_id> dataset_ids() const;
    std::uint64_t record_count(wire::experiment_id experiment) const;

    /// Calls fn(const record_view&) for every record of a dataset, in
    /// append order. A chunk whose body disagrees with its index entry
    /// (another record count, or payloads that do not fill it exactly)
    /// yields no records at all.
    template <typename Fn>
    void visit(wire::experiment_id experiment, Fn&& fn) const
    {
        if (const auto* view = find(experiment))
            for (const auto& c : view->chunks) walk(c, fn);
    }

    /// All records of a dataset, in append order.
    std::vector<archived_record> read_all(wire::experiment_id experiment) const;

    /// Random access by dataset-relative index (chunk-granular seek).
    std::optional<archived_record> read_at(wire::experiment_id experiment,
                                           std::uint64_t index) const;

    std::optional<std::string> attribute(const std::string& key) const;
    std::optional<std::string> dataset_attribute(wire::experiment_id experiment,
                                                 const std::string& key) const;
    /// All file-level attributes (for journal-style metadata scans).
    const std::map<std::string, std::string>& attributes() const { return attributes_; }

private:
    archive_reader() = default;

    struct dataset_view {
        std::vector<chunk_ref> chunks;
        std::map<std::string, std::string> attributes;
        std::uint64_t record_count{0};
    };

    const dataset_view* find(wire::experiment_id experiment) const;

    /// Whether chunk `c`'s body agrees with its index entry: the same
    /// record count, and records that fill the chunk exactly.
    bool agrees_with_index(const chunk_ref& c) const;

    /// The one chunk walk: yields each record of `c` if it agrees.
    template <typename Fn>
    void walk(const chunk_ref& c, Fn&& fn) const
    {
        if (!agrees_with_index(c)) return;
        read_cursor r(blob_.data() + c.offset + chunk_header_bytes);
        for (std::uint32_t i = 0; i < c.records; ++i) {
            record_view v;
            v.sequence = r.u64();
            v.timestamp_ns = r.u64();
            v.size_bytes = r.u32();
            const auto len = r.u32();
            v.payload = {r.at(), len};
            r.skip(len);
            fn(v);
        }
    }

    std::vector<std::uint8_t> blob_;
    std::map<wire::experiment_id, dataset_view> datasets_;
    std::map<std::string, std::string> attributes_;
};

constexpr std::uint64_t archive_magic = 0x4d4d545041524348ull; // "MMTPARCH"
constexpr std::uint16_t archive_version = 1;

} // namespace mmtp::daq
