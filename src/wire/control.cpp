#include "wire/control.hpp"

namespace mmtp::wire {

void serialize(const nak_body& b, byte_writer& w)
{
    w.u16(b.epoch);
    w.u32(b.requester);
    const auto n = b.ranges.size() > max_nak_ranges ? max_nak_ranges : b.ranges.size();
    w.u8(static_cast<std::uint8_t>(n));
    for (std::size_t i = 0; i < n; ++i) {
        w.u48(b.ranges[i].first);
        w.u48(b.ranges[i].last);
    }
}

std::optional<nak_body> parse_nak(std::span<const std::uint8_t> data)
{
    byte_reader r(data);
    nak_body b;
    b.epoch = r.u16();
    b.requester = r.u32();
    const auto n = r.u8();
    if (n > max_nak_ranges) return std::nullopt;
    for (std::size_t i = 0; i < n; ++i) {
        nak_body::range rg;
        rg.first = r.u48();
        rg.last = r.u48();
        if (rg.last < rg.first) return std::nullopt;
        b.ranges.push_back(rg);
    }
    if (r.failed()) return std::nullopt;
    return b;
}

void serialize(const backpressure_body& b, byte_writer& w)
{
    w.u8(b.level);
    w.u32(b.origin);
    w.u32(b.queue_depth_pkts);
}

std::optional<backpressure_body> parse_backpressure(std::span<const std::uint8_t> data)
{
    byte_reader r(data);
    backpressure_body b;
    b.level = r.u8();
    b.origin = r.u32();
    b.queue_depth_pkts = r.u32();
    if (r.failed()) return std::nullopt;
    return b;
}

void serialize(const deadline_exceeded_body& b, byte_writer& w)
{
    w.u48(b.sequence);
    w.u16(b.epoch);
    w.u32(b.age_us);
    w.u32(b.deadline_us);
    w.u32(b.where);
}

std::optional<deadline_exceeded_body> parse_deadline_exceeded(std::span<const std::uint8_t> data)
{
    byte_reader r(data);
    deadline_exceeded_body b;
    b.sequence = r.u48();
    b.epoch = r.u16();
    b.age_us = r.u32();
    b.deadline_us = r.u32();
    b.where = r.u32();
    if (r.failed()) return std::nullopt;
    return b;
}

void serialize(const buffer_advert_body& b, byte_writer& w)
{
    w.u32(b.buffer_addr);
    w.u64(b.capacity_bytes);
    w.u32(b.retention_ms);
    w.u32(b.secondary_addr);
}

std::optional<buffer_advert_body> parse_buffer_advert(std::span<const std::uint8_t> data)
{
    byte_reader r(data);
    buffer_advert_body b;
    b.buffer_addr = r.u32();
    b.capacity_bytes = r.u64();
    b.retention_ms = r.u32();
    b.secondary_addr = r.u32();
    if (r.failed()) return std::nullopt;
    return b;
}

void serialize(const stream_flush_body& b, byte_writer& w)
{
    w.u32(b.experiment);
    w.u16(b.epoch);
    w.u64(b.next_sequence);
}

std::optional<stream_flush_body> parse_stream_flush(std::span<const std::uint8_t> data)
{
    byte_reader r(data);
    stream_flush_body b;
    b.experiment = r.u32();
    b.epoch = r.u16();
    b.next_sequence = r.u64();
    if (r.failed()) return std::nullopt;
    return b;
}

} // namespace mmtp::wire
