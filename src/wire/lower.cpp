#include "wire/lower.hpp"

namespace mmtp::wire {

std::optional<eth_header> parse_eth(byte_reader& r)
{
    const auto b = r.bytes(eth_header_size);
    if (r.failed()) return std::nullopt;
    read_cursor c(b.data());
    eth_header h;
    h.dst = c.u48();
    h.src = c.u48();
    h.ethertype = c.u16();
    return h;
}

std::optional<ipv4_header> parse_ipv4(byte_reader& r)
{
    const auto b = r.bytes(ipv4_header_size);
    if (r.failed()) return std::nullopt;
    read_cursor c(b.data());
    if (c.u8() != 0x45) return std::nullopt;
    ipv4_header h;
    h.dscp = c.u8();
    h.total_length = c.u16();
    c.skip(2); // identification
    const auto flags = c.u16();
    if ((flags & 0x2000) != 0) return std::nullopt; // MF set: unsupported
    h.ttl = c.u8();
    h.protocol = c.u8();
    c.skip(2); // checksum
    h.src = c.u32();
    h.dst = c.u32();
    return h;
}

std::optional<udp_header> parse_udp(byte_reader& r)
{
    const auto b = r.bytes(udp_header_size);
    if (r.failed()) return std::nullopt;
    read_cursor c(b.data());
    udp_header h;
    h.src_port = c.u16();
    h.dst_port = c.u16();
    h.length = c.u16();
    return h;
}

} // namespace mmtp::wire
