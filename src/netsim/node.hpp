// node.hpp — base class for everything attached to the simulated network.
//
// A node owns its egress links (one per port) and receives packets from
// the links of its neighbours. Routing state (dst address → egress port)
// is populated by netsim::network after the topology is built.
#pragma once

#include "netsim/engine.hpp"
#include "netsim/link.hpp"
#include "netsim/packet.hpp"
#include "wire/lower.hpp"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace mmtp::netsim {

using node_id = std::uint32_t;
constexpr unsigned no_port = ~0u;

class node {
public:
    /// `eng` is the engine the node and everything it hosts schedule on.
    node(engine& eng, std::string name, wire::ipv4_addr addr, wire::mac_addr mac)
        : eng_(eng), name_(std::move(name)), addr_(addr), mac_(mac)
    {
    }
    virtual ~node();

    node(const node&) = delete;
    node& operator=(const node&) = delete;

    /// Delivers a packet arriving from a neighbour on `ingress_port`.
    virtual void receive(packet&& p, unsigned ingress_port) = 0;

    /// Burst variant of receive(): `pkts[0..n)` arrived on this port,
    /// each stamped with its exact arrival time (the delivering event
    /// fires at pkts[0].stamp). The default unrolls to per-packet
    /// receive(); burst-aware nodes (programmable_switch, bench relays)
    /// override to process the whole burst through each step at once.
    virtual void receive_burst(packet* pkts, unsigned n, unsigned ingress_port)
    {
        for (unsigned i = 0; i < n; ++i) receive(std::move(pkts[i]), ingress_port);
    }

    /// Link-arrival entry point: applies power gating, then receive().
    /// Links call this instead of receive() so blackouts need no
    /// cooperation from node subclasses.
    void deliver(packet&& p, unsigned ingress_port)
    {
        if (!powered_) {
            blackout_dropped_++;
            return;
        }
        receive(std::move(p), ingress_port);
    }

    /// Burst-arrival entry point (see deliver()).
    void deliver_burst(packet* pkts, unsigned n, unsigned ingress_port)
    {
        if (!powered_) {
            blackout_dropped_ += n;
            return;
        }
        receive_burst(pkts, n, ingress_port);
    }

    /// Power state (netsim::fault_scheduler blackouts). A blacked-out
    /// node drops every arriving packet; ingress only — packets already
    /// queued on its egress links keep draining, as a NIC FIFO would.
    bool powered() const { return powered_; }
    void set_powered(bool on) { powered_ = on; }
    std::uint64_t blackout_dropped() const { return blackout_dropped_; }

    /// Adds an egress link; returns its port number.
    unsigned attach_link(std::unique_ptr<link> l);

    link& egress(unsigned port);
    const link& egress(unsigned port) const;
    unsigned port_count() const { return static_cast<unsigned>(links_.size()); }

    /// Static L3 route: packets for `dst` leave via `port`.
    void add_route(wire::ipv4_addr dst, unsigned port) { routes_[dst] = port; }
    /// Default route used when no specific entry matches (no_port = none).
    void set_default_route(unsigned port) { default_route_ = port; }
    /// Resolves the egress port for `dst`; no_port when unroutable.
    unsigned route(wire::ipv4_addr dst) const;

    engine& sim() { return eng_; }
    const std::string& name() const { return name_; }
    wire::ipv4_addr address() const { return addr_; }
    wire::mac_addr mac() const { return mac_; }

protected:
    engine& eng_;

private:
    std::string name_;
    wire::ipv4_addr addr_;
    wire::mac_addr mac_;
    std::vector<std::unique_ptr<link>> links_;
    std::unordered_map<wire::ipv4_addr, unsigned> routes_;
    unsigned default_route_{no_port};
    bool powered_{true};
    std::uint64_t blackout_dropped_{0};
};

} // namespace mmtp::netsim
