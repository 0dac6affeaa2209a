// durable_store.hpp — archive-backed persistence for the DTN buffer.
//
// Models the paper's §6 challenge 2 ("data comes back from disk"): every
// datagram relayed through a DTN buffer node is also appended to an
// HDF5-style archive (daq::archive_writer). Sealed chunks are durable;
// the open tail is not. A modeled crash (crash()) finalizes what was
// sealed into an on-disk image and discards the tail; a later recover()
// reopens the image, hands each surviving record to its caller as it walks
// the image, and returns the per-experiment sequence journal so a revived
// buffer_service can re-enter NAK repair with correct sequence/epoch state.
//
// The store is owned *outside* the buffer service (by the testbed or
// scenario) precisely because it models the disk: the service process
// dies in a blackout, the disk does not.
#pragma once

#include "daq/archive.hpp"
#include "dtn/buffer.hpp"

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

namespace mmtp::dtn {

struct durable_store_stats {
    std::uint64_t appended{0};
    std::uint64_t rejected{0}; // appends while crashed
    std::uint64_t crashes{0};
    std::uint64_t tail_lost{0}; // records in unsealed chunks at crash time
    std::uint64_t recovered{0};
    std::uint64_t recoveries{0};
};

class durable_store {
public:
    /// `chunk_records`: the archive's records per sealed chunk.
    explicit durable_store(std::uint32_t chunk_records = 256)
        : chunk_records_(chunk_records), writer_(chunk_records)
    {
    }

    /// A store whose node comes up on an existing disk image (a blob
    /// from archive_writer::finalize): it starts crashed, and recover()
    /// reads the image.
    durable_store(std::uint32_t chunk_records, std::vector<std::uint8_t> image);

    /// Appends one buffered datagram to the archive (epoch is carried as
    /// a u16 prefix inside the record payload). Returns false and counts
    /// when refused because the node is crashed.
    bool append(const buffered_datagram& d);

    /// Journals "next expected sequence" for an experiment. The journal
    /// becomes durable at the next seal() (it rides the archive's
    /// attribute table); between seals it can be lost like the tail.
    void note_sequence(wire::experiment_id experiment, std::uint64_t next);

    /// Durability point: seals open chunks and persists the sequence
    /// journal. What is sealed here survives any later crash.
    void seal();

    /// Models the node dying: the unsealed tail is dropped (returned as
    /// the loss count), sealed chunks + last-sealed journal become the
    /// crash image, and appends are refused until recover().
    std::uint64_t crash();

    struct recovery {
        std::uint64_t records{0};
        /// Highest journalled/derived next-sequence per experiment.
        std::map<wire::experiment_id, std::uint64_t> next_sequences;
    };

    /// Reopens the crash image and walks it once: each surviving record
    /// goes to on_record (its payload view lasts only the call) and is
    /// re-seeded into the (fresh) writer, so the revived node keeps
    /// accumulating into the same store. Returns the record count and
    /// the sequence journal.
    using record_fn = std::function<void(const buffered_datagram&)>;
    recovery recover(const record_fn& on_record = {});

    bool crashed() const { return crashed_; }
    std::uint64_t durable_records() const { return writer_.sealed_records(); }
    std::uint64_t open_records() const { return writer_.open_records(); }
    const durable_store_stats& stats() const { return stats_; }

private:
    void append_impl(const buffered_datagram& d);
    void write_journal();
    /// Writes the sealed journal into the writer's `seq.<id>` attributes.
    void write_sealed_journal();

    std::uint32_t chunk_records_;
    daq::archive_writer writer_;
    std::map<wire::experiment_id, std::uint64_t> journal_; // pending, durable at seal()
    std::map<wire::experiment_id, std::uint64_t> sealed_journal_;
    std::vector<std::uint8_t> image_; // crash image, set by crash()
    bool crashed_{false};
    durable_store_stats stats_;
};

} // namespace mmtp::dtn
