#include "udp/udp.hpp"

#include "common/bytes.hpp"
#include "netsim/engine.hpp"

namespace mmtp::udp {

stack::stack(netsim::host& h, netsim::packet_id_source& ids) : host_(h), ids_(ids)
{
    host_.set_protocol_handler(
        wire::ipproto_udp,
        [this](netsim::packet&& p, const wire::ipv4_header& ip, std::size_t offset) {
            on_packet(std::move(p), ip, offset);
        });
}

socket& stack::open(std::uint16_t port)
{
    auto s = std::unique_ptr<socket>(new socket(*this, port));
    auto& ref = *s;
    sockets_[port] = std::move(s);
    return ref;
}

void stack::on_packet(netsim::packet&& p, const wire::ipv4_header& ip, std::size_t offset)
{
    byte_reader r(std::span<const std::uint8_t>(p.headers).subspan(offset));
    const auto uh = wire::parse_udp(r);
    if (!uh) return;
    auto it = sockets_.find(uh->dst_port);
    if (it == sockets_.end()) return;
    socket& s = *it->second;

    datagram d;
    d.src = ip.src;
    d.src_port = uh->src_port;
    d.total_payload_bytes = p.payload.size() + p.virtual_payload;
    d.payload = std::move(p.payload);
    d.received = host_.sim().now();
    d.packet_id = p.id;
    s.stats_.received++;
    s.stats_.bytes_received += d.total_payload_bytes;
    if (s.on_receive_) s.on_receive_(std::move(d));
}

std::uint64_t socket::send_to(wire::ipv4_addr dst, std::uint16_t dst_port,
                              std::vector<std::uint8_t> content, std::uint64_t extra_virtual)
{
    auto& h = stack_.host();
    netsim::packet p = h.make_ipv4_packet(wire::ipproto_udp, dst);
    wire::udp_header uh;
    uh.src_port = port_;
    uh.dst_port = dst_port;
    const std::uint64_t payload_total = content.size() + extra_virtual;
    uh.length = static_cast<std::uint16_t>(
        payload_total + wire::udp_header_size > 0xffff
            ? 0
            : payload_total + wire::udp_header_size);
    serialize(uh, p.headers);
    p.payload = std::move(content);
    p.virtual_payload = extra_virtual;
    p.id = stack_.ids_.next();
    stats_.sent++;
    stats_.bytes_sent += payload_total;
    const auto id = p.id;
    h.send_ipv4(std::move(p), dst);
    return id;
}

} // namespace mmtp::udp
