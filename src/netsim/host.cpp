#include "netsim/host.hpp"

#include "common/bytes.hpp"
#include "netsim/link.hpp"

namespace mmtp::netsim {

void host::receive(packet&& p, unsigned /*ingress_port*/)
{
    if (p.corrupted) {
        // Integrity check (CRC at L2) fails; the frame never reaches L3.
        drops_.corrupted++;
        return;
    }
    byte_reader r(p.headers);
    const auto eth = wire::parse_eth(r);
    if (!eth) {
        drops_.malformed++;
        return;
    }

    if (eth->ethertype == wire::ethertype_ipv4) {
        const auto ip = wire::parse_ipv4(r);
        if (!ip) {
            drops_.malformed++;
            return;
        }
        if (ip->dst != address()) {
            drops_.not_mine++;
            return;
        }
        auto it = l3_handlers_.find(ip->protocol);
        if (it == l3_handlers_.end()) {
            drops_.unclaimed++;
            return;
        }
        const std::size_t offset = r.position();
        it->second(std::move(p), *ip, offset);
        return;
    }

    auto it = l2_handlers_.find(eth->ethertype);
    if (it == l2_handlers_.end()) {
        drops_.unclaimed++;
        return;
    }
    it->second(std::move(p), wire::eth_header_size);
}

void host::send_ipv4(packet&& p, wire::ipv4_addr dst)
{
    const unsigned port = route(dst);
    if (port == no_port || port >= port_count()) {
        drops_.unroutable++;
        return;
    }
    egress(port).send(std::move(p));
}

void host::send_l2(packet&& p, unsigned port)
{
    if (port >= port_count()) {
        drops_.unroutable++;
        return;
    }
    egress(port).send(std::move(p));
}

packet host::make_ipv4_packet(std::uint8_t protocol, wire::ipv4_addr dst,
                              std::uint8_t dscp) const
{
    packet p;
    wire::eth_header eth;
    eth.src = mac();
    eth.dst = 0; // resolved per-hop in the simulator; links are point-to-point
    eth.ethertype = wire::ethertype_ipv4;
    serialize(eth, p.headers);

    wire::ipv4_header ip;
    ip.dscp = dscp;
    ip.protocol = protocol;
    ip.src = address();
    ip.dst = dst;
    ip.total_length = 0; // patched by caller if it cares; simulator
                         // trusts packet.wire_size() instead
    serialize(ip, p.headers);
    return p;
}

} // namespace mmtp::netsim
