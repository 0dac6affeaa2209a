#include "netsim/network.hpp"

#include <deque>
#include <unordered_map>

namespace mmtp::netsim {

unsigned network::connect_simplex(node& a, node& b, const link_config& cfg,
                                  std::unique_ptr<queue_disc> q)
{
    // The ingress port at the destination only identifies where the
    // packet came in; use the destination's current link count as a
    // stable identifier (mirrors typical port numbering).
    const unsigned ingress_at_b = b.port_count();
    auto l = std::make_unique<link>(*eng_, root_rng_.fork(), b, ingress_at_b, cfg,
                                    std::move(q));
    const unsigned port = a.attach_link(std::move(l));
    edges_.push_back(edge{&a, &b, port});
    return port;
}

std::pair<unsigned, unsigned> network::connect(node& a, node& b, const link_config& cfg)
{
    const unsigned pa = connect_simplex(a, b, cfg);
    const unsigned pb = connect_simplex(b, a, cfg);
    return {pa, pb};
}

void network::compute_routes()
{
    // Adjacency: node -> [(neighbour, egress port)]
    std::unordered_map<node*, std::vector<std::pair<node*, unsigned>>> adj;
    for (const auto& e : edges_) adj[e.from].push_back({e.to, e.from_port});

    for (const auto& src_owned : nodes_) {
        node* src = src_owned.get();
        // BFS from src; record for each reachable node the first hop port.
        std::unordered_map<node*, unsigned> first_hop;
        std::deque<node*> frontier;
        first_hop[src] = no_port;
        frontier.push_back(src);
        while (!frontier.empty()) {
            node* cur = frontier.front();
            frontier.pop_front();
            auto it = adj.find(cur);
            if (it == adj.end()) continue;
            for (const auto& [next, port] : it->second) {
                if (first_hop.count(next)) continue;
                first_hop[next] = (cur == src) ? port : first_hop[cur];
                frontier.push_back(next);
            }
        }
        for (const auto& [dst, port] : first_hop) {
            if (dst == src || port == no_port) continue;
            src->add_route(dst->address(), port);
        }
    }
}

} // namespace mmtp::netsim
