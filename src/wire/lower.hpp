// lower.hpp — Ethernet / IPv4 / UDP codecs.
//
// MMTP must "operate across different types of networks ... in some cases
// directly over layer 2" (Req 1). These codecs let MMTP datagrams be
// carried either directly in an Ethernet frame (DAQ networks, like Mu2e
// does today) or inside IPv4 (WAN segments); TCP and UDP baselines reuse
// the same IPv4 codec.
#pragma once

#include "common/bytes.hpp"
#include "wire/header.hpp"

#include <array>
#include <cstdint>
#include <optional>
#include <span>

namespace mmtp::wire {

using mac_addr = std::uint64_t; // low 48 bits significant

/// Experimental/private ethertype used when MMTP rides directly on L2
/// (0x88B5 is the IEEE "local experimental" ethertype).
constexpr std::uint16_t ethertype_mmtp = 0x88b5;
constexpr std::uint16_t ethertype_ipv4 = 0x0800;

/// IPv4 protocol numbers.
constexpr std::uint8_t ipproto_tcp = 6;
constexpr std::uint8_t ipproto_udp = 17;
/// RFC 3692 experimental protocol number carrying MMTP over IP.
constexpr std::uint8_t ipproto_mmtp = 253;

struct eth_header {
    mac_addr dst{0};
    mac_addr src{0};
    std::uint16_t ethertype{0};

    bool operator==(const eth_header&) const = default;
};

constexpr std::size_t eth_header_size = 14;

/// Simplified IPv4 header: fixed 20 bytes, no options, no fragmentation
/// (DAQ paths are MTU-engineered to avoid fragmentation, §2.1).
struct ipv4_header {
    std::uint8_t dscp{0};
    std::uint16_t total_length{0}; // header + payload
    std::uint8_t ttl{64};
    std::uint8_t protocol{0};
    ipv4_addr src{0};
    ipv4_addr dst{0};

    bool operator==(const ipv4_header&) const = default;
};

constexpr std::size_t ipv4_header_size = 20;

struct udp_header {
    std::uint16_t src_port{0};
    std::uint16_t dst_port{0};
    std::uint16_t length{0}; // header + payload

    bool operator==(const udp_header&) const = default;
};

constexpr std::size_t udp_header_size = 8;

// Serializers append one header to a byte_sink (byte_writer or
// small_bytes) with a single extend; parsers check the header's whole
// length once. Both then move field by field with no further checks.

template <byte_sink Out>
void serialize(const eth_header& h, Out& out)
{
    write_cursor c(out.extend(eth_header_size));
    c.u48(h.dst);
    c.u48(h.src);
    c.u16(h.ethertype);
}

template <byte_sink Out>
void serialize(const ipv4_header& h, Out& out)
{
    write_cursor c(out.extend(ipv4_header_size));
    c.u8(0x45); // version 4, IHL 5
    c.u8(h.dscp);
    c.u16(h.total_length);
    c.u16(0);      // identification
    c.u16(0x4000); // DF set, no fragmentation in DAQ paths
    c.u8(h.ttl);
    c.u8(h.protocol);
    c.u16(0); // checksum elided in the simulator (corruption modeled at L1)
    c.u32(h.src);
    c.u32(h.dst);
}

template <byte_sink Out>
void serialize(const udp_header& h, Out& out)
{
    write_cursor c(out.extend(udp_header_size));
    c.u16(h.src_port);
    c.u16(h.dst_port);
    c.u16(h.length);
    c.u16(0); // checksum elided
}

std::optional<eth_header> parse_eth(byte_reader& r);
std::optional<ipv4_header> parse_ipv4(byte_reader& r);
std::optional<udp_header> parse_udp(byte_reader& r);

} // namespace mmtp::wire
