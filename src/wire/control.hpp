// control.hpp — bodies of MMTP control messages (§5.3, §5.4).
//
// A control message is an MMTP datagram whose header has feature::control
// set; its payload is one of the bodies below, selected by the header's
// control_type field. Control messages are small, fixed-format, and —
// like everything in MMTP — parseable by header-only network elements.
#pragma once

#include "common/bytes.hpp"
#include "wire/header.hpp"

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace mmtp::wire {

/// NAK: "retransmit these sequence ranges of epoch E to me".
/// Sent by a receiver to the nearest retransmission buffer (the address
/// carried in the retransmission extension field) — §5.4's loss recovery.
struct nak_body {
    std::uint16_t epoch{0};
    ipv4_addr requester{0}; // where to send the retransmitted data
    /// Inclusive [first, last] sequence ranges; at most 16 per NAK.
    struct range {
        std::uint64_t first{0};
        std::uint64_t last{0};
        bool operator==(const range&) const = default;
    };
    std::vector<range> ranges;

    bool operator==(const nak_body&) const = default;
};

constexpr std::size_t max_nak_ranges = 16;

/// Backpressure: relayed hop-by-hop toward the source (Fig. 3 ⑤→①).
/// `level` expresses severity 0-255; senders scale their pace by it.
struct backpressure_body {
    std::uint8_t level{0};
    ipv4_addr origin{0};          // element that observed congestion
    std::uint32_t queue_depth_pkts{0};

    bool operator==(const backpressure_body&) const = default;
};

/// Deadline-exceeded notification sent to the timeliness notify address.
struct deadline_exceeded_body {
    std::uint64_t sequence{0};
    std::uint16_t epoch{0};
    std::uint32_t age_us{0};
    std::uint32_t deadline_us{0};
    ipv4_addr where{0}; // element at which the violation was detected

    bool operator==(const deadline_exceeded_body&) const = default;
};

/// A retransmission buffer announcing itself to a receiver.
/// `secondary_addr` (0 = none) names an alternate buffer holding the
/// same streams — receivers fail NAKs over to it when the primary stops
/// answering ("another retransmission buffer becomes available", §5.1);
/// a revived buffer's re-announcement makes them fail back.
struct buffer_advert_body {
    ipv4_addr buffer_addr{0};
    std::uint64_t capacity_bytes{0};
    std::uint32_t retention_ms{0};
    ipv4_addr secondary_addr{0};

    bool operator==(const buffer_advert_body&) const = default;
};

/// Stream flush: tells receivers how far a stream's sequence space has
/// advanced, so loss of the *final* datagrams of a window (which no later
/// arrival would ever reveal) still triggers NAK recovery.
struct stream_flush_body {
    wire::experiment_id experiment{0};
    std::uint16_t epoch{0};
    std::uint64_t next_sequence{0}; // one past the highest assigned
    bool operator==(const stream_flush_body&) const = default;
};

void serialize(const nak_body& b, byte_writer& w);
void serialize(const backpressure_body& b, byte_writer& w);
void serialize(const deadline_exceeded_body& b, byte_writer& w);
void serialize(const buffer_advert_body& b, byte_writer& w);
void serialize(const stream_flush_body& b, byte_writer& w);

std::optional<nak_body> parse_nak(std::span<const std::uint8_t> data);
std::optional<backpressure_body> parse_backpressure(std::span<const std::uint8_t> data);
std::optional<deadline_exceeded_body> parse_deadline_exceeded(std::span<const std::uint8_t> data);
std::optional<buffer_advert_body> parse_buffer_advert(std::span<const std::uint8_t> data);
std::optional<stream_flush_body> parse_stream_flush(std::span<const std::uint8_t> data);

} // namespace mmtp::wire
