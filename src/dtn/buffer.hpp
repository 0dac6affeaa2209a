// buffer.hpp — DTN retransmission buffer store.
//
// The pilot's DTN 1 "represents the processing and buffering stage in the
// DAQ network" (Fig. 4): it holds recently forwarded datagrams so that
// downstream receivers can recover loss from a *nearby* buffer instead of
// the source (§5.3's generalization of X.25 hop-by-hop behaviour, "closer
// to short-term publish-subscribe"). Entries age out by retention time
// and total capacity, oldest stored first.
//
// Layout (DESIGN.md §14, "The repair path holds no trees"): one record
// stream per (experiment, epoch), a deque of slots in ascending sequence
// order. DAQ sequences arrive in order, so a store appends at the back
// and a lookup finds `seq` at index `seq - front.seq`; anything else
// falls back to a binary search. Memory follows the stored records, not
// the sequence span: seq 0 and seq 2^47 are two slots. One FIFO of
// (stream, sequence, ticket) entries gives the eviction order; every
// store takes a fresh ticket, so an entry whose slot has since been
// evicted or re-stored no longer matches and is skipped.
#pragma once

#include "common/units.hpp"
#include "wire/ids.hpp"

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

namespace mmtp::dtn {

struct buffered_datagram {
    std::uint64_t sequence{0};
    std::uint16_t epoch{0};
    wire::experiment_id experiment{0};
    std::uint64_t timestamp_ns{0};
    std::uint32_t size_bytes{0};
    std::vector<std::uint8_t> inline_payload;
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
    explicit retransmission_buffer(buffer_config cfg = {}) : cfg_(cfg) {}

    /// Stores a datagram, then evicts by retention and capacity. A
    /// same-key entry is replaced; the replacement ages and waits its
    /// eviction turn from `now`.
    void store(buffered_datagram d, sim_time now);

    /// Looks up one datagram; counts hit/miss.
    std::optional<buffered_datagram> fetch(wire::experiment_id experiment,
                                           std::uint16_t epoch, std::uint64_t sequence,
                                           sim_time now);

    /// All stored datagrams in [first, last] for (experiment, epoch). Walks
    /// the stored records from `first` on, never the requested span.
    std::vector<buffered_datagram> fetch_range(wire::experiment_id experiment,
                                               std::uint16_t epoch, std::uint64_t first,
                                               std::uint64_t last, sim_time now);

    /// Applies retention/capacity eviction now — lets occupancy-watermark
    /// pollers observe decay between stores.
    void sweep(sim_time now) { evict(now); }

    std::uint64_t bytes_used() const { return bytes_; }
    std::size_t entries() const { return entries_; }
    const buffer_stats& stats() const { return stats_; }
    const buffer_config& config() const { return cfg_; }

private:
    /// A stored record, or (ticket 0) a tombstone: an evicted record
    /// behind a live one keeps its sequence so the stream stays sorted.
    struct slot {
        std::uint64_t ticket{0};
        buffered_datagram d;
    };
    /// Slots of one (experiment, epoch), ascending by sequence. The front
    /// slot is always live; tombstones never outnumber live slots.
    struct stream {
        std::deque<slot> slots;
        std::size_t live{0};
        std::uint64_t key{0}; // packed (experiment, epoch)
    };
    /// One store, in store order.
    struct fifo_entry {
        std::uint32_t stream;
        std::uint64_t sequence;
        std::uint64_t ticket;
    };

    /// Index of the first slot whose sequence is >= seq.
    static std::size_t seek(const std::deque<slot>& slots, std::uint64_t seq);
    const stream* find_stream(wire::experiment_id experiment, std::uint16_t epoch) const;
    /// Lookup-or-create; returns the stream's index in streams_.
    std::uint32_t stream_for(wire::experiment_id experiment, std::uint16_t epoch);
    void evict(sim_time now);

    buffer_config cfg_;
    std::deque<stream> streams_; // a deque: growing never copies a stream's slots
    std::vector<std::uint32_t> free_streams_; // indices of released streams
    std::unordered_map<std::uint64_t, std::uint32_t> stream_ids_;
    std::deque<fifo_entry> fifo_; // store order, for eviction
    std::uint64_t next_ticket_{0};
    std::size_t entries_{0};
    std::uint64_t bytes_{0};
    buffer_stats stats_;
};

} // namespace mmtp::dtn
