// header.hpp — the MMTP wire header (§5.2).
//
// Layout (big-endian):
//
//   core header, always present (8 bytes):
//     u8  cfg_id          configuration identifier (the policy epoch)
//     u24 cfg_data        feature bits for the current segment
//     u32 experiment_id   experiment + instrument slice (Req 8)
//
//   then, for each feature bit set in cfg_data, a fixed-size extension
//   field, in the fixed order below (so the offset of every field is a
//   pure function of cfg_data — P4-parseable without loops):
//
//     sequencing      u48 seq, u16 epoch                        (8 bytes)
//     retransmission  u32 buffer IPv4                           (4 bytes)
//     timeliness      u32 deadline_us, u32 age_us, u16 flags,
//                     u32 notify IPv4                          (14 bytes)
//     pacing          u32 pace_mbps                             (4 bytes)
//     control         u8 control type                           (1 byte)
//     timestamped     u64 source timestamp ns                   (8 bytes)
//
// The payload (never inspected in-network) follows the header.
#pragma once

#include "common/bytes.hpp"
#include "wire/features.hpp"
#include "wire/ids.hpp"

#include <cstdint>
#include <optional>
#include <span>

namespace mmtp::wire {

/// IPv4 address in host byte order (the simulator's node addresses).
using ipv4_addr = std::uint32_t;

/// Timeliness flags (u16).
enum class timeliness_flag : std::uint16_t {
    /// Set by a network element when accumulated age exceeded the deadline
    /// by the time the packet reached that element (§5.4).
    aged = 1u << 0,
    /// A deadline-exceeded notification has already been emitted for this
    /// datagram (suppresses duplicate notifications downstream).
    notified = 1u << 1,
};

constexpr std::uint16_t timeliness_flag_bit(timeliness_flag f)
{
    return static_cast<std::uint16_t>(f);
}

struct sequencing_field {
    std::uint64_t sequence{0}; // 48 bits significant
    std::uint16_t epoch{0};
};

struct retransmission_field {
    ipv4_addr buffer_addr{0};
};

struct timeliness_field {
    std::uint32_t deadline_us{0}; // total age budget for the journey
    std::uint32_t age_us{0};      // accumulated so far, updated in-network
    std::uint16_t flags{0};
    ipv4_addr notify_addr{0};

    bool aged() const { return (flags & timeliness_flag_bit(timeliness_flag::aged)) != 0; }
    void set_aged() { flags |= timeliness_flag_bit(timeliness_flag::aged); }
    bool notified() const
    {
        return (flags & timeliness_flag_bit(timeliness_flag::notified)) != 0;
    }
    void set_notified() { flags |= timeliness_flag_bit(timeliness_flag::notified); }
};

struct pacing_field {
    std::uint32_t pace_mbps{0};
};

/// Control-message type carried when feature::control is set; the body
/// layout for each type lives in wire/control.hpp.
enum class control_type : std::uint8_t {
    nak = 1,               // request retransmission of sequence ranges
    backpressure = 2,      // slow-down signal relayed toward the source
    deadline_exceeded = 3, // timeliness violation notification
    buffer_advert = 4,     // a buffer announces itself (resource map)
    subscribe = 5,         // request in-network duplication of a stream
    stream_flush = 6,      // end-of-window marker: reveals tail loss
};

/// Parsed/composed MMTP header. Optional members mirror feature bits:
/// serialization requires that a member is present iff its bit is set.
struct header {
    mode m{};
    experiment_id experiment{0};

    std::optional<sequencing_field> sequencing;
    std::optional<retransmission_field> retransmission;
    std::optional<timeliness_field> timeliness;
    std::optional<pacing_field> pacing;
    std::optional<control_type> control;
    std::optional<std::uint64_t> timestamp_ns;

    /// Serialized size in bytes for this header's mode.
    std::size_t wire_size() const;

    /// True when every optional member matches its feature bit.
    bool consistent() const;
};

constexpr std::size_t core_header_size = 8;
constexpr std::size_t sequencing_size = 8;
constexpr std::size_t retransmission_size = 4;
constexpr std::size_t timeliness_size = 14;
constexpr std::size_t pacing_size = 4;
constexpr std::size_t control_size = 1;
constexpr std::size_t timestamp_size = 8;
/// Largest possible header (all features active).
constexpr std::size_t max_header_size = core_header_size + sequencing_size
    + retransmission_size + timeliness_size + pacing_size + control_size + timestamp_size;

/// Serialized size implied by a mode alone.
constexpr std::size_t header_size_for(const mode& m)
{
    std::size_t n = core_header_size;
    if (m.has(feature::sequencing)) n += sequencing_size;
    if (m.has(feature::retransmission)) n += retransmission_size;
    if (m.has(feature::timeliness)) n += timeliness_size;
    if (m.has(feature::pacing)) n += pacing_size;
    if (m.has(feature::control)) n += control_size;
    if (m.has(feature::timestamped)) n += timestamp_size;
    return n;
}

inline std::size_t header::wire_size() const
{
    return header_size_for(m);
}

/// Writes the wire_size() bytes of a consistent header with no reserved
/// bits at `out` (serialize() checks both, then calls this).
void write_fields(const header& h, std::uint8_t* out);

/// Appends the header to `out` (a byte_writer or small_bytes) with one
/// extend. Returns false (writing nothing) if the header is inconsistent
/// (optional members not matching feature bits) or sets reserved bits.
template <byte_sink Out>
bool serialize(const header& h, Out& out)
{
    if (!h.consistent() || (h.m.cfg_data & ~known_feature_mask) != 0) return false;
    write_fields(h, out.extend(h.wire_size()));
    return true;
}

/// Parses a header from the front of `data`. Returns std::nullopt on
/// truncation or reserved feature bits. Any cfg_id is accepted: it is
/// the policy epoch the datagram was stamped under, and all epochs use
/// the cfg-0 field layout. The length is checked twice in all: for the
/// core header, then for the size its mode implies.
std::optional<header> parse(std::span<const std::uint8_t> data);

/// Parses only the core header (cfg + experiment) without extensions —
/// what a minimal mode-0 element needs.
std::optional<header> parse_core(std::span<const std::uint8_t> data);

/// Creates default-valued extension fields for any feature bit of h.m
/// whose field is missing (and drops fields whose bit is clear), making
/// the header consistent for serialization. Endpoints use this when an
/// origin mode activates features whose values the *network* fills in.
void materialize_missing_fields(header& h);

} // namespace mmtp::wire
