// build.hpp — builders for complete MMTP header stacks.
//
// Endpoints and network elements both need "eth + ipv4 + mmtp" and
// "eth + mmtp" byte sequences; these helpers keep that assembly in one
// place so header layout changes don't ripple through the codebase.
// They write the stack in place into a packet's small_bytes headers,
// one extend per header and no staging buffer.
#pragma once

#include "common/small_bytes.hpp"
#include "wire/header.hpp"
#include "wire/lower.hpp"

#include <cstdint>

namespace mmtp::wire {

static_assert(small_bytes::inline_capacity >= eth_header_size + ipv4_header_size + max_header_size,
              "every header stack the wire layer builds must fit a packet's inline headers");

/// Replaces `out` with the Ethernet + IPv4(proto 253) + MMTP header
/// stack. `total_payload` is only used to fill the IPv4 length field.
void build_mmtp_over_ipv4(small_bytes& out, mac_addr src_mac, ipv4_addr src, ipv4_addr dst,
                          const header& h, std::size_t total_payload, std::uint8_t dscp = 0);

/// Replaces `out` with the Ethernet(ethertype 0x88B5) + MMTP header
/// stack (Req 1).
void build_mmtp_over_l2(small_bytes& out, mac_addr src_mac, mac_addr dst_mac, const header& h);

} // namespace mmtp::wire
