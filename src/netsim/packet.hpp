// packet.hpp — the simulator's unit of transmission.
//
// A packet carries its *headers* as real serialized bytes (network
// elements parse and rewrite them exactly as hardware would) but its DAQ
// payload may be partly virtual: `virtual_payload` adds to the wire size
// without allocating memory, so simulations can push terabytes of
// simulated data through without terabytes of RAM. Small control payloads
// (NAK bodies, alerts) use the real `payload` bytes.
#pragma once

#include "common/small_bytes.hpp"
#include "common/units.hpp"

#include <cstdint>
#include <memory>
#include <vector>

namespace mmtp::netsim {

struct packet {
    /// Unique id assigned at creation (for tracing and dedup checks).
    std::uint64_t id{0};
    /// Serialized protocol headers (Ethernet [+ IPv4 [+ UDP]] + payload
    /// protocol header). Network elements read and rewrite these bytes.
    /// Small-buffer storage: every stack the wire layer builds fits the
    /// 88-byte inline capacity and is written there in place, so building,
    /// rewriting and moving a packet through queues and event closures
    /// never touches the heap.
    small_bytes headers;
    /// Real payload bytes (control bodies, alert contents, TCP segments).
    std::vector<std::uint8_t> payload;
    /// Additional virtual payload bytes counted in wire_size() only.
    std::uint64_t virtual_payload{0};

    // --- metadata (not on the wire) ---
    /// Arrival time at the far end of the link carrying the packet, set
    /// at transmit. The link's in-flight FIFO keys arrivals by
    /// (stamp, reserved seq).
    sim_time stamp{sim_time::zero()};
    /// Set by a link when the corruption model fired; receivers treat the
    /// packet as failing its integrity check and drop it.
    bool corrupted{false};
    /// Hop count so far (diagnostics, loop detection).
    std::uint32_t hops{0};

    std::uint64_t wire_size() const
    {
        return headers.size() + payload.size() + virtual_payload;
    }
};

/// Monotonic packet-id source (netsim::network owns one per simulation).
class packet_id_source {
public:
    std::uint64_t next() { return ++last_; }

private:
    std::uint64_t last_{0};
};

} // namespace mmtp::netsim
