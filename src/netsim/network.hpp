// network.hpp — topology container and static routing.
//
// Owns the simulation engine, all nodes and the deterministic RNG tree.
// Builders create nodes (addresses auto-assigned from 10.0.0.0/8),
// connect them with duplex links, and finally call compute_routes() to
// install shortest-path forwarding state at every node.
#pragma once

#include "common/rng.hpp"
#include "netsim/engine.hpp"
#include "netsim/host.hpp"
#include "netsim/link.hpp"
#include "netsim/node.hpp"

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace mmtp::netsim {

class network {
public:
    // The engine and the id source live on the heap so their addresses
    // survive moving the network (scenarios move-assign a freshly seeded
    // network into their testbed before they add nodes).
    explicit network(std::uint64_t seed = 1)
        : root_rng_(seed), eng_(std::make_unique<engine>()),
          ids_(std::make_unique<packet_id_source>())
    {
    }

    /// The engine every node, link and component schedules on.
    engine& sim() { return *eng_; }

    packet_id_source& ids() { return *ids_; }

    rng fork_rng() { return root_rng_.fork(); }

    /// Creates a node of type T (host, pnet::programmable_switch, ...).
    /// T's constructor must be (engine&, string, ipv4_addr, mac_addr, ...).
    template <typename T, typename... Args>
    T& emplace(const std::string& name, Args&&... args)
    {
        auto n = std::make_unique<T>(*eng_, name, next_addr(), next_mac(),
                                     std::forward<Args>(args)...);
        T& ref = *n;
        nodes_.push_back(std::move(n));
        return ref;
    }

    host& add_host(const std::string& name) { return emplace<host>(name); }

    /// Connects a → b with one link (a's new egress port). Returns the
    /// port number at `a`. An optional custom egress queue can be given.
    unsigned connect_simplex(node& a, node& b, const link_config& cfg,
                             std::unique_ptr<queue_disc> q = nullptr);

    /// Duplex connection with symmetric config; returns {port@a, port@b}.
    std::pair<unsigned, unsigned> connect(node& a, node& b, const link_config& cfg);

    /// Installs shortest-path (hop count) routes at every node for every
    /// node address. Ties break toward the lower-numbered port.
    void compute_routes();

    const std::vector<std::unique_ptr<node>>& nodes() const { return nodes_; }

private:
    wire::ipv4_addr next_addr() { return 0x0a000000u + (++addr_counter_); } // 10.0.0.x
    wire::mac_addr next_mac() { return 0x020000000000ull + (++addr_counter_); }

    struct edge {
        node* from;
        node* to;
        unsigned from_port;
    };

    rng root_rng_;
    std::unique_ptr<engine> eng_;
    std::unique_ptr<packet_id_source> ids_;
    std::uint32_t addr_counter_{0};
    std::vector<std::unique_ptr<node>> nodes_;
    std::vector<edge> edges_;
};

} // namespace mmtp::netsim
