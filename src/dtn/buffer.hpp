// buffer.hpp — DTN retransmission buffer store.
//
// The pilot's DTN 1 "represents the processing and buffering stage in the
// DAQ network" (Fig. 4): it holds recently forwarded datagrams so that
// downstream receivers can recover loss from a *nearby* buffer instead of
// the source (§5.3's generalization of X.25 hop-by-hop behaviour, "closer
// to short-term publish-subscribe"). Entries age out by retention time
// and total capacity, oldest stored first.
//
// Layout (DESIGN.md §14, "The repair path holds no trees"): everything
// lives in fixed-size blocks the buffer recycles itself. One log holds
// every store in store order: a 40-byte entry (stream, sequence,
// timestamp, size, stored_at) followed by the datagram's inline payload
// bytes. The log is the eviction FIFO, and an entry's log position is
// its store's ticket: positions only grow, so they are never reused.
// One record stream per (experiment, epoch) indexes the log with 16-byte
// slots (sequence, log position) in ascending sequence order. DAQ
// sequences arrive in order, so a store appends at the back and a lookup
// finds `seq` at index `seq - front.seq`; anything else falls back to a
// binary search. Memory follows the stored records, not the sequence
// span: seq 0 and seq 2^47 are two slots. A log entry whose slot has
// since been evicted or re-stored no longer matches it and is skipped.
#pragma once

#include "common/units.hpp"
#include "wire/ids.hpp"

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

namespace mmtp::dtn {

/// One datagram as the buffer takes and hands it out. A view: the inline
/// payload points at bytes owned elsewhere. store() copies them; a fetch
/// points them into the buffer's blocks, valid until its next store,
/// sweep or fetch.
struct buffered_datagram {
    std::uint64_t sequence{0};
    std::uint16_t epoch{0};
    wire::experiment_id experiment{0};
    std::uint64_t timestamp_ns{0};
    std::uint32_t size_bytes{0};
    std::span<const std::uint8_t> inline_payload;
    sim_time stored_at{sim_time::zero()};
};

struct buffer_config {
    std::uint64_t capacity_bytes{512ull * 1024 * 1024};
    sim_duration retention{sim_duration{5000000000}}; // 5 s
};

struct buffer_stats {
    std::uint64_t stored{0};
    std::uint64_t evicted_capacity{0};
    std::uint64_t evicted_retention{0};
    std::uint64_t hits{0};
    std::uint64_t misses{0};
    std::uint64_t peak_bytes{0};
};

/// Keyed by (experiment, epoch, sequence); per-experiment streams.
class retransmission_buffer {
public:
    /// Bytes per pooled block. Well under glibc's 128 KiB mmap threshold,
    /// so blocks come from the heap and freeing them never raises the
    /// allocator's dynamic threshold.
    static constexpr std::size_t block_bytes = 16 * 1024;
    /// Longest inline payload a block holds, after its 40-byte entry.
    /// Longer ones (never on the wire: link_mtu is 9000 bytes) are held
    /// on the heap instead.
    static constexpr std::size_t max_inline_bytes = block_bytes - 40;

    explicit retransmission_buffer(buffer_config cfg = {}) : cfg_(cfg) {}

    /// Stores a copy of a datagram, then evicts by retention and capacity.
    /// A same-key entry is replaced; the replacement ages and waits its
    /// eviction turn from `now`.
    void store(const buffered_datagram& d, sim_time now);

    /// Looks up one datagram; counts hit/miss.
    std::optional<buffered_datagram> fetch(wire::experiment_id experiment,
                                           std::uint16_t epoch, std::uint64_t sequence,
                                           sim_time now);

    /// Calls fn(const buffered_datagram&) for each stored datagram in
    /// [first, last] of (experiment, epoch), ascending, read in place;
    /// returns how many. Walks the stored records from `first` on, never
    /// the requested span. fn must not store into or fetch from the buffer.
    template <typename Fn>
    std::size_t fetch_range(wire::experiment_id experiment, std::uint16_t epoch,
                            std::uint64_t first, std::uint64_t last, sim_time now, Fn&& fn)
    {
        evict(now);
        std::size_t found = 0;
        if (const auto* s = find_stream(experiment, epoch)) {
            for (auto i = seek(*s, first); i < s->size && (*s)[i].sequence <= last; ++i) {
                if ((*s)[i].at == tombstone) continue;
                stats_.hits++;
                found++;
                fn(view((*s)[i].at, experiment, epoch));
            }
        }
        if (found == 0) stats_.misses++;
        return found;
    }

    /// Applies retention/capacity eviction now — lets occupancy-watermark
    /// pollers observe decay between stores.
    void sweep(sim_time now) { evict(now); }

    std::uint64_t bytes_used() const { return bytes_; }
    std::size_t entries() const { return entries_; }
    const buffer_stats& stats() const { return stats_; }
    const buffer_config& config() const { return cfg_; }

private:
    /// A log position, or (tombstone) an evicted record behind a live one,
    /// which keeps its sequence so the stream stays sorted.
    static constexpr std::uint64_t tombstone = ~std::uint64_t{0};
    struct slot {
        std::uint64_t sequence;
        std::uint64_t at; // log position of the record's entry
    };
    /// A block is an array of slots; the log reads and writes its blocks
    /// as bytes, through std::memcpy only.
    static constexpr std::size_t slots_per_block = block_bytes / sizeof(slot);

    /// Slots of one (experiment, epoch), ascending by sequence, packed
    /// into blocks. The front slot is always live; tombstones never
    /// outnumber live slots.
    struct stream {
        std::vector<slot*> blocks;
        std::size_t head{0}; // the front slot's index in blocks[0]
        std::size_t size{0};
        std::size_t live{0};
        std::uint64_t key{0}; // packed (experiment, epoch)

        slot& operator[](std::size_t i) const
        {
            const auto j = head + i;
            return blocks[j / slots_per_block][j % slots_per_block];
        }
    };

    /// A log entry; its inline payload follows, padded to 8 bytes.
    /// Entries never straddle blocks: where the next one does not fit,
    /// a skip mark ends the block.
    struct entry {
        std::uint32_t stream; // index in streams_, or skip_mark
        std::uint32_t payload_bytes;
        std::uint64_t sequence;
        std::uint64_t timestamp_ns;
        sim_time stored_at;
        std::uint32_t size_bytes;
        std::uint32_t pad_;
    };
    static_assert(sizeof(entry) + max_inline_bytes == block_bytes);
    static constexpr std::uint32_t skip_mark = ~std::uint32_t{0};

    static std::size_t padded(std::size_t n) { return (n + 7) & ~std::size_t{7}; }
    static std::size_t entry_bytes(std::uint32_t payload_bytes)
    {
        return sizeof(entry) + (payload_bytes <= max_inline_bytes ? padded(payload_bytes) : 0);
    }
    std::byte* log_at(std::uint64_t pos) const
    {
        return reinterpret_cast<std::byte*>(log_[(pos - log_base_) / block_bytes])
            + pos % block_bytes;
    }
    entry read_entry(std::uint64_t pos) const
    {
        entry e{};
        std::memcpy(&e, log_at(pos), sizeof e);
        return e;
    }
    buffered_datagram view(std::uint64_t at, wire::experiment_id experiment,
                           std::uint16_t epoch) const;

    /// Index of the first slot whose sequence is >= seq.
    static std::size_t seek(const stream& s, std::uint64_t seq);
    const stream* find_stream(wire::experiment_id experiment, std::uint16_t epoch) const;
    /// Lookup-or-create; returns the stream's index in streams_.
    std::uint32_t stream_for(wire::experiment_id experiment, std::uint16_t epoch);
    void push_back(stream& s, slot x);
    void pop_front(stream& s);
    void insert(stream& s, std::size_t i, slot x);
    /// Keeps the first n slots, returning the blocks past them.
    void truncate(stream& s, std::size_t n);

    /// Writes d's entry at the log's back; returns its position.
    std::uint64_t append(std::uint32_t stream_id, const buffered_datagram& d, sim_time now);
    /// The log position of the oldest entry, past any skip mark.
    std::uint64_t log_front();
    /// Moves the log's front to `pos`, returning the blocks before it.
    void pop_log_to(std::uint64_t pos);
    void evict(sim_time now);

    /// A block off the free list, or a new one from the heap.
    slot* take_block();
    void give_block(slot* b) { free_.push_back(b); }

    buffer_config cfg_;
    std::vector<stream> streams_;
    std::vector<std::uint32_t> free_streams_; // indices of released streams
    std::unordered_map<std::uint64_t, std::uint32_t> stream_ids_;
    std::vector<slot*> log_;          // the log's blocks, oldest first
    std::uint64_t log_base_{0};       // position of log_[0]'s first byte
    std::uint64_t front_{0};          // oldest entry (or a skip mark before it)
    std::uint64_t back_{0};           // where the next entry goes
    std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> spilled_; // by position
    std::vector<std::unique_ptr<slot[]>> owned_; // every block, freed with the buffer
    std::vector<slot*> free_;
    std::size_t entries_{0};
    std::uint64_t bytes_{0};
    buffer_stats stats_;
};

} // namespace mmtp::dtn
