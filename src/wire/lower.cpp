#include "wire/lower.hpp"

#include <cstdio>

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

std::string addr_to_string(ipv4_addr a)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (a >> 24) & 0xff, (a >> 16) & 0xff,
                  (a >> 8) & 0xff, a & 0xff);
    return buf;
}

std::optional<ipv4_addr> addr_from_string(const std::string& s)
{
    unsigned a = 0, b = 0, c = 0, d = 0;
    char tail = 0;
    if (std::sscanf(s.c_str(), "%u.%u.%u.%u%c", &a, &b, &c, &d, &tail) != 4) return std::nullopt;
    if (a > 255 || b > 255 || c > 255 || d > 255) return std::nullopt;
    return (a << 24) | (b << 16) | (c << 8) | d;
}

} // namespace mmtp::wire
