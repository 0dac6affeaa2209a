#include "wire/build.hpp"

namespace mmtp::wire {

void build_mmtp_over_ipv4(small_bytes& out, mac_addr src_mac, ipv4_addr src, ipv4_addr dst,
                          const header& h, std::size_t total_payload, std::uint8_t dscp)
{
    out.clear();
    eth_header eth;
    eth.src = src_mac;
    eth.dst = 0;
    eth.ethertype = ethertype_ipv4;
    serialize(eth, out);

    ipv4_header ip;
    ip.dscp = dscp;
    ip.protocol = ipproto_mmtp;
    ip.src = src;
    ip.dst = dst;
    const std::size_t len = ipv4_header_size + h.wire_size() + total_payload;
    ip.total_length = len > 0xffff ? 0 : static_cast<std::uint16_t>(len);
    serialize(ip, out);

    serialize(h, out);
}

void build_mmtp_over_l2(small_bytes& out, mac_addr src_mac, mac_addr dst_mac, const header& h)
{
    out.clear();
    eth_header eth;
    eth.src = src_mac;
    eth.dst = dst_mac;
    eth.ethertype = ethertype_mmtp;
    serialize(eth, out);
    serialize(h, out);
}

} // namespace mmtp::wire
