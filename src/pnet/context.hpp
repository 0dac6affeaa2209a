// context.hpp — per-packet view given to pipeline stages.
//
// This is the P4 analogy: the parser lifts the header bytes into typed
// structs; stages read/modify *headers and metadata only* (payload bytes
// are deliberately not reachable from here, matching the paper's
// restriction of in-network processing to header processing); the
// deparser re-serializes modified headers back onto the packet.
#pragma once

#include "common/units.hpp"
#include "netsim/packet.hpp"
#include "wire/header.hpp"
#include "wire/lower.hpp"

#include <optional>
#include <vector>

namespace mmtp::pnet {

/// A control message synthesized by a stage (NAK relay, backpressure,
/// deadline-exceeded notification); the element routes it to `dst`.
struct emission {
    netsim::packet pkt;
    wire::ipv4_addr dst{0};
};

struct packet_context {
    netsim::packet pkt;
    unsigned ingress_port{0};
    sim_time now{sim_time::zero()};

    // Parsed headers. `mmtp` is set when the packet carries an MMTP
    // datagram, either directly on L2 or over IPv4 proto 253.
    wire::eth_header eth{};
    std::optional<wire::ipv4_header> ip;
    std::optional<wire::header> mmtp;
    bool mmtp_over_l2{false};
    /// Byte offset of the L4/MMTP payload in pkt.headers (preserved
    /// verbatim for protocols the element does not understand).
    std::size_t l4_offset{0};
    /// True when a stage modified eth/ip/mmtp and the deparser must
    /// re-serialize (otherwise original bytes are forwarded untouched).
    bool headers_dirty{false};

    // Verdicts.
    bool drop{false};
    /// Overrides the IPv4 destination used for forwarding (and written
    /// back into the header by the deparser).
    std::optional<wire::ipv4_addr> dst_override;
    /// Duplicate the packet toward these destinations (Fig. 3 ⑥).
    std::vector<wire::ipv4_addr> clones;
    /// Control messages to inject.
    std::vector<emission> emissions;

    /// Body bytes of an MMTP *control* message. Control bodies are small
    /// fixed-format structures — protocol headers in all but name — so
    /// exposing them here does not violate the header-only restriction.
    /// Empty span for data packets.
    std::span<const std::uint8_t> control_body() const
    {
        if (!mmtp || !mmtp->control) return {};
        return pkt.payload;
    }
};

/// Parses pkt.headers into ctx. Returns false on malformed input
/// (the element then counts and drops the packet).
bool parse_context(packet_context& ctx);

/// Rewrites pkt.headers in place from the (possibly modified) structs
/// when headers_dirty; bytes from l4_offset onward are preserved unless
/// the packet is MMTP (whose header *is* the re-serialized part). `ctx`
/// must have been filled by parse_context.
void deparse_context(packet_context& ctx);

} // namespace mmtp::pnet
