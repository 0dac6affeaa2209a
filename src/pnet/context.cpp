#include "pnet/context.hpp"

#include "common/bytes.hpp"

namespace mmtp::pnet {

bool parse_context(packet_context& ctx)
{
    byte_reader r(ctx.pkt.headers);
    const auto eth = wire::parse_eth(r);
    if (!eth) return false;
    ctx.eth = *eth;

    if (eth->ethertype == wire::ethertype_mmtp) {
        // MMTP directly over L2 (Req 1).
        const auto h = wire::parse(std::span<const std::uint8_t>(ctx.pkt.headers)
                                       .subspan(r.position()));
        if (!h) return false;
        ctx.mmtp = h;
        ctx.mmtp_over_l2 = true;
        ctx.l4_offset = r.position();
        return true;
    }

    if (eth->ethertype == wire::ethertype_ipv4) {
        const auto ip = wire::parse_ipv4(r);
        if (!ip) return false;
        ctx.ip = ip;
        ctx.l4_offset = r.position();
        if (ip->protocol == wire::ipproto_mmtp) {
            const auto h = wire::parse(std::span<const std::uint8_t>(ctx.pkt.headers)
                                           .subspan(r.position()));
            if (!h) return false;
            ctx.mmtp = h;
        }
        return true;
    }

    // Unknown ethertype: forwarded opaque.
    ctx.l4_offset = r.position();
    return true;
}

namespace {

/// A byte_sink over bytes that already exist: rewrites them in place.
struct overwrite_sink {
    std::uint8_t* at;

    std::uint8_t* extend(std::size_t n)
    {
        std::uint8_t* start = at;
        at += n;
        return start;
    }
};

} // namespace

void deparse_context(packet_context& ctx)
{
    if (!ctx.headers_dirty) return;

    if (ctx.dst_override && ctx.ip) ctx.ip->dst = *ctx.dst_override;

    // Ethernet [+ IPv4] is fixed-size: it is rewritten over the l4_offset
    // bytes it was parsed from, so the L4 bytes of protocols we do not
    // parse stay where they are.
    auto& headers = ctx.pkt.headers;
    overwrite_sink prefix{headers.data()};
    serialize(ctx.eth, prefix);
    if (ctx.ip) serialize(*ctx.ip, prefix);

    if (ctx.mmtp) {
        // MMTP header is re-serialized from the (possibly rewritten)
        // struct; MMTP datagrams keep their payload in pkt.payload /
        // virtual_payload, so headers end here.
        headers.resize(ctx.l4_offset);
        serialize(*ctx.mmtp, headers);
    }
}

} // namespace mmtp::pnet
