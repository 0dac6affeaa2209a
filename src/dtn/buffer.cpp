#include "dtn/buffer.hpp"

#include <algorithm>
#include <utility>

namespace mmtp::dtn {

namespace {

/// (experiment, epoch) as one hash key.
std::uint64_t pack(wire::experiment_id experiment, std::uint16_t epoch)
{
    return (static_cast<std::uint64_t>(experiment) << 16) | epoch;
}

} // namespace

retransmission_buffer::slot* retransmission_buffer::take_block()
{
    if (free_.empty()) {
        owned_.push_back(std::make_unique_for_overwrite<slot[]>(slots_per_block));
        return owned_.back().get();
    }
    auto* b = free_.back();
    free_.pop_back();
    return b;
}

// Sequences strictly increase along the stream, so the slot at offset
// seq - front.seq holds seq or more: in-order streams hit it directly, the
// rest binary-search the slots before it.
std::size_t retransmission_buffer::seek(const stream& s, std::uint64_t seq)
{
    if (s.size == 0 || seq <= s[0].sequence) return 0;
    const std::uint64_t off = seq - s[0].sequence;
    if (off < s.size && s[off].sequence == seq) return off;
    std::size_t lo = 0;
    auto hi = static_cast<std::size_t>(std::min<std::uint64_t>(off, s.size));
    while (lo < hi) {
        const auto mid = lo + (hi - lo) / 2;
        if (s[mid].sequence < seq)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

void retransmission_buffer::push_back(stream& s, slot x)
{
    if (s.head + s.size == s.blocks.size() * slots_per_block)
        s.blocks.push_back(take_block());
    s[s.size] = x;
    s.size++;
}

void retransmission_buffer::pop_front(stream& s)
{
    s.size--;
    if (++s.head == slots_per_block) {
        give_block(s.blocks.front());
        s.blocks.erase(s.blocks.begin());
        s.head = 0;
    }
}

void retransmission_buffer::insert(stream& s, std::size_t i, slot x)
{
    push_back(s, x);
    for (auto j = s.size - 1; j > i; --j) std::swap(s[j], s[j - 1]);
}

void retransmission_buffer::truncate(stream& s, std::size_t n)
{
    s.size = n;
    if (n == 0) s.head = 0;
    const auto used = n == 0 ? 0 : (s.head + n + slots_per_block - 1) / slots_per_block;
    while (s.blocks.size() > used) {
        give_block(s.blocks.back());
        s.blocks.pop_back();
    }
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

std::uint64_t retransmission_buffer::append(std::uint32_t stream_id,
                                            const buffered_datagram& d, sim_time now)
{
    const auto payload_bytes = static_cast<std::uint32_t>(d.inline_payload.size());
    const auto need = entry_bytes(payload_bytes);
    if (const auto used = back_ % block_bytes; used != 0 && block_bytes - used < need) {
        std::memcpy(log_at(back_), &skip_mark, sizeof skip_mark);
        back_ += block_bytes - used;
    }
    if (back_ == log_base_ + log_.size() * block_bytes) log_.push_back(take_block());

    const entry e{stream_id, payload_bytes, d.sequence, d.timestamp_ns, now, d.size_bytes, 0};
    auto* p = log_at(back_);
    std::memcpy(p, &e, sizeof e);
    if (payload_bytes > max_inline_bytes)
        spilled_.emplace(back_, std::vector<std::uint8_t>(d.inline_payload.begin(),
                                                          d.inline_payload.end()));
    else if (payload_bytes != 0)
        std::memcpy(p + sizeof e, d.inline_payload.data(), payload_bytes);
    const auto at = back_;
    back_ += need;
    return at;
}

std::uint64_t retransmission_buffer::log_front()
{
    if (front_ != back_ && front_ % block_bytes != 0) {
        std::uint32_t mark = 0;
        std::memcpy(&mark, log_at(front_), sizeof mark);
        if (mark == skip_mark) pop_log_to(front_ + block_bytes - front_ % block_bytes);
    }
    return front_;
}

void retransmission_buffer::pop_log_to(std::uint64_t pos)
{
    front_ = pos;
    while (front_ - log_base_ >= block_bytes) {
        give_block(log_.front());
        log_.erase(log_.begin());
        log_base_ += block_bytes;
    }
}

buffered_datagram retransmission_buffer::view(std::uint64_t at, wire::experiment_id experiment,
                                              std::uint16_t epoch) const
{
    const auto e = read_entry(at);
    buffered_datagram d;
    d.sequence = e.sequence;
    d.epoch = epoch;
    d.experiment = experiment;
    d.timestamp_ns = e.timestamp_ns;
    d.size_bytes = e.size_bytes;
    d.stored_at = e.stored_at;
    if (e.payload_bytes > max_inline_bytes)
        d.inline_payload = spilled_.at(at);
    else
        d.inline_payload = {reinterpret_cast<const std::uint8_t*>(log_at(at) + sizeof e),
                            e.payload_bytes};
    return d;
}

void retransmission_buffer::store(const buffered_datagram& d, sim_time now)
{
    const auto id = stream_for(d.experiment, d.epoch);
    const auto at = append(id, d, now);
    auto& s = streams_[id];
    const std::uint64_t seq = d.sequence;
    bytes_ += d.size_bytes;
    bool replaced = false;
    if (s.size == 0 || seq > s[s.size - 1].sequence) {
        push_back(s, {seq, at});
    } else if (const auto i = seek(s, seq); s[i].sequence != seq) {
        insert(s, i, {seq, at});
    } else {
        // Same key (or a tombstone's): the old record's log entry goes
        // stale with its position.
        replaced = s[i].at != tombstone;
        if (replaced) bytes_ -= read_entry(s[i].at).size_bytes;
        s[i].at = at;
    }
    if (!replaced) {
        s.live++;
        entries_++;
    }
    stats_.stored++;
    if (bytes_ > stats_.peak_bytes) stats_.peak_bytes = bytes_;
    evict(now);
}

void retransmission_buffer::evict(sim_time now)
{
    // Oldest store first: by retention, then by capacity.
    while (log_front() != back_) {
        const auto at = front_;
        const auto e = read_entry(at);
        const auto next = at + entry_bytes(e.payload_bytes);
        auto& s = streams_[e.stream];
        const auto i = seek(s, e.sequence);
        const bool live = i < s.size && s[i].at == at; // else evicted or re-stored since
        if (live) {
            const bool too_old = (now - e.stored_at).ns > cfg_.retention.ns;
            const bool over_capacity = bytes_ > cfg_.capacity_bytes;
            if (!too_old && !over_capacity) break;
            bytes_ -= e.size_bytes;
            if (too_old)
                stats_.evicted_retention++;
            else
                stats_.evicted_capacity++;
            entries_--;
        }
        if (e.payload_bytes > max_inline_bytes) spilled_.erase(at);
        pop_log_to(next);
        if (!live) continue;

        if (--s.live == 0) {
            // Last record of the stream: release it for reuse. Positions
            // are never reused, so stale entries naming this index stay
            // stale.
            truncate(s, 0);
            stream_ids_.erase(s.key);
            free_streams_.push_back(e.stream);
            continue;
        }
        s[i].at = tombstone; // a tombstone keeps only its sequence
        while (s[0].at == tombstone) pop_front(s);
        if (s.size > 2 * s.live) {
            std::size_t kept = 0;
            for (std::size_t j = 0; j < s.size; ++j)
                if (s[j].at != tombstone) s[kept++] = s[j];
            truncate(s, kept);
        }
    }
}

std::optional<buffered_datagram> retransmission_buffer::fetch(wire::experiment_id experiment,
                                                              std::uint16_t epoch,
                                                              std::uint64_t sequence,
                                                              sim_time now)
{
    evict(now);
    if (const auto* s = find_stream(experiment, epoch)) {
        const auto i = seek(*s, sequence);
        if (i < s->size && (*s)[i].at != tombstone && (*s)[i].sequence == sequence) {
            stats_.hits++;
            return view((*s)[i].at, experiment, epoch);
        }
    }
    stats_.misses++;
    return std::nullopt;
}

} // namespace mmtp::dtn
