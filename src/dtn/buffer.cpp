#include "dtn/buffer.hpp"

#include <algorithm>

namespace mmtp::dtn {

namespace {

/// (experiment, epoch) as one hash key.
std::uint64_t pack(wire::experiment_id experiment, std::uint16_t epoch)
{
    return (static_cast<std::uint64_t>(experiment) << 16) | epoch;
}

} // namespace

// Sequences strictly increase along the deque, so the slot at offset
// seq - front.seq holds seq or more: in-order streams hit it directly, the
// rest binary-search the slots before it.
std::size_t retransmission_buffer::seek(const std::deque<slot>& slots, std::uint64_t seq)
{
    if (slots.empty() || seq <= slots.front().d.sequence) return 0;
    const std::uint64_t off = seq - slots.front().d.sequence;
    if (off < slots.size() && slots[off].d.sequence == seq) return off;
    const auto end = slots.begin()
        + static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(off, slots.size()));
    return static_cast<std::size_t>(
        std::lower_bound(slots.begin(), end, seq,
                         [](const slot& s, std::uint64_t q) { return s.d.sequence < q; })
        - slots.begin());
}

const retransmission_buffer::stream* retransmission_buffer::find_stream(
    wire::experiment_id experiment, std::uint16_t epoch) const
{
    auto it = stream_ids_.find(pack(experiment, epoch));
    return it == stream_ids_.end() ? nullptr : &streams_[it->second];
}

std::uint32_t retransmission_buffer::stream_for(wire::experiment_id experiment,
                                                std::uint16_t epoch)
{
    auto [it, inserted] = stream_ids_.try_emplace(pack(experiment, epoch));
    if (inserted) {
        if (free_streams_.empty()) {
            it->second = static_cast<std::uint32_t>(streams_.size());
            streams_.emplace_back();
        } else {
            it->second = free_streams_.back();
            free_streams_.pop_back();
        }
        streams_[it->second].key = it->first;
    }
    return it->second;
}

void retransmission_buffer::store(buffered_datagram d, sim_time now)
{
    const auto id = stream_for(d.experiment, d.epoch);
    auto& s = streams_[id];
    const std::uint64_t seq = d.sequence;
    const std::uint64_t ticket = ++next_ticket_;
    d.stored_at = now;
    bytes_ += d.size_bytes;
    bool replaced = false;
    if (s.slots.empty() || seq > s.slots.back().d.sequence) {
        s.slots.push_back({ticket, std::move(d)});
    } else if (const auto i = seek(s.slots, seq); s.slots[i].d.sequence != seq) {
        s.slots.insert(s.slots.begin() + static_cast<std::ptrdiff_t>(i),
                       slot{ticket, std::move(d)});
    } else {
        // Same key (or a tombstone's): the old record's FIFO entry goes
        // stale with its ticket.
        auto& at = s.slots[i];
        replaced = at.ticket != 0;
        if (replaced) bytes_ -= at.d.size_bytes;
        at = slot{ticket, std::move(d)};
    }
    if (!replaced) {
        s.live++;
        entries_++;
    }
    stats_.stored++;
    if (bytes_ > stats_.peak_bytes) stats_.peak_bytes = bytes_;
    fifo_.push_back({id, seq, ticket});
    evict(now);
}

void retransmission_buffer::evict(sim_time now)
{
    // Oldest store first: by retention, then by capacity.
    while (!fifo_.empty()) {
        const auto e = fifo_.front();
        auto& s = streams_[e.stream];
        const auto i = seek(s.slots, e.sequence);
        if (i == s.slots.size() || s.slots[i].ticket != e.ticket) {
            fifo_.pop_front();
            continue; // stale: evicted or re-stored since
        }
        auto& victim = s.slots[i];
        const bool too_old = (now - victim.d.stored_at).ns > cfg_.retention.ns;
        const bool over_capacity = bytes_ > cfg_.capacity_bytes;
        if (!too_old && !over_capacity) break;
        bytes_ -= victim.d.size_bytes;
        if (too_old)
            stats_.evicted_retention++;
        else
            stats_.evicted_capacity++;
        entries_--;
        fifo_.pop_front();

        if (--s.live == 0) {
            // Last record of the stream: release it for reuse. Tickets are
            // never reused, so stale entries naming this index stay stale.
            s.slots.clear();
            stream_ids_.erase(s.key);
            free_streams_.push_back(e.stream);
            continue;
        }
        victim = slot{}; // a tombstone keeps only its sequence
        victim.d.sequence = e.sequence;
        while (s.slots.front().ticket == 0) s.slots.pop_front();
        if (s.slots.size() > 2 * s.live)
            std::erase_if(s.slots, [](const slot& x) { return x.ticket == 0; });
    }
}

std::optional<buffered_datagram> retransmission_buffer::fetch(wire::experiment_id experiment,
                                                              std::uint16_t epoch,
                                                              std::uint64_t sequence,
                                                              sim_time now)
{
    evict(now);
    if (const auto* s = find_stream(experiment, epoch)) {
        const auto i = seek(s->slots, sequence);
        if (i < s->slots.size() && s->slots[i].ticket != 0
            && s->slots[i].d.sequence == sequence) {
            stats_.hits++;
            return s->slots[i].d;
        }
    }
    stats_.misses++;
    return std::nullopt;
}

std::vector<buffered_datagram> retransmission_buffer::fetch_range(
    wire::experiment_id experiment, std::uint16_t epoch, std::uint64_t first,
    std::uint64_t last, sim_time now)
{
    evict(now);
    std::vector<buffered_datagram> out;
    if (const auto* s = find_stream(experiment, epoch)) {
        for (auto i = seek(s->slots, first);
             i < s->slots.size() && s->slots[i].d.sequence <= last; ++i) {
            if (s->slots[i].ticket == 0) continue;
            stats_.hits++;
            out.push_back(s->slots[i].d);
        }
    }
    if (out.empty()) stats_.misses++;
    return out;
}

} // namespace mmtp::dtn
