// stack.hpp — per-host TCP demultiplexer.
//
// One stack per host: it claims IPv4 protocol 6, demuxes inbound segments
// to connections by (local port, remote addr, remote port), and spawns
// passive connections for listeners — the way DTN transfer tools accept
// parallel streams.
#pragma once

#include "netsim/host.hpp"
#include "tcp/connection.hpp"

#include <functional>
#include <map>
#include <memory>

namespace mmtp::tcp {

class stack {
public:
    using accept_cb = std::function<void(connection&)>;

    stack(netsim::host& h, netsim::packet_id_source& ids);

    /// Active open toward (addr, port). The connection is owned by the
    /// stack; the reference stays valid until the stack is destroyed.
    connection& connect(wire::ipv4_addr remote_addr, std::uint16_t remote_port,
                        tcp_config cfg = {});

    /// Passive open: segments to `port` from unknown peers create
    /// connections with `cfg`; `on_accept` runs before any data arrives.
    void listen(std::uint16_t port, tcp_config cfg, accept_cb on_accept);

private:
    struct conn_key {
        std::uint16_t local_port;
        wire::ipv4_addr remote_addr;
        std::uint16_t remote_port;
        auto operator<=>(const conn_key&) const = default;
    };
    struct listener {
        tcp_config cfg;
        accept_cb on_accept;
    };

    void on_packet(netsim::packet&& p, const wire::ipv4_header& ip, std::size_t offset);
    std::uint16_t alloc_port();

    netsim::host& host_;
    netsim::packet_id_source& ids_;
    std::map<conn_key, std::unique_ptr<connection>> conns_;
    std::map<std::uint16_t, listener> listeners_;
    std::uint16_t next_ephemeral_{49152};
};

} // namespace mmtp::tcp
