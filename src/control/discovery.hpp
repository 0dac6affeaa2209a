// discovery.hpp — in-network resource discovery (§6, challenge 1).
//
// "We initially envisage having a map of in-network programmable
// resources that DAQ workloads can use. This map is shared between
// network operators — perhaps by piggy-backing on BGP messages — to
// describe their programmable infrastructure and its capabilities."
//
// This module implements that sketch: each administrative domain runs a
// `domain_directory` that collects the resources of its own domain (from
// static config and in-band buffer adverts) and gossips digests to peer
// domains on a BGP-like session (periodic, incremental, withdraw on
// expiry). Every directory converges to a global resource_map restricted
// to what each peer chose to export — the paper's "not necessarily
// abstracted from communicating peers or other network operators" (§4.2).
#pragma once

#include "control/resource_map.hpp"
#include "netsim/engine.hpp"

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace mmtp::control {

/// One gossiped entry: a resource plus export metadata.
struct advertised_resource {
    resource_record record;
    /// Sequence number of the originating directory when last updated.
    std::uint64_t version{0};
    /// Hop count from the originator (loop/size damping, like AS_PATH).
    std::uint8_t path_length{0};
    bool withdrawn{false};

    bool operator==(const advertised_resource&) const = default;
};

struct directory_config {
    std::string domain;
    /// Gossip interval between peered directories.
    sim_duration gossip_interval{sim_duration{1000000000}}; // 1 s
    /// Entries not refreshed for this long are withdrawn.
    sim_duration holddown{sim_duration{10000000000}}; // 10 s
    /// Maximum AS_PATH-like propagation radius.
    std::uint8_t max_path_length{8};
};

/// Per-domain directory. Peering is in-process (the control plane runs
/// out-of-band of the simulated data network, as BGP sessions do);
/// gossip timing still runs on the simulation clock.
class domain_directory {
public:
    domain_directory(netsim::engine& eng, directory_config cfg);

    /// Adds/updates a resource this domain owns and exports.
    void publish(resource_record r);

    /// Ingests an in-band buffer advert (forwarded from a stack hook).
    void publish_advert(const wire::buffer_advert_body& advert);

    /// Withdraws a previously published resource by address.
    void withdraw(wire::ipv4_addr addr);

    /// Establishes a bidirectional peering; gossip starts immediately
    /// and repeats every gossip_interval.
    static void peer(domain_directory& a, domain_directory& b);

    /// The converged view: everything learned and not withdrawn/expired,
    /// local entries first.
    resource_map snapshot() const;

    /// All entries (incl. withdrawn) for diagnostics.
    const std::map<wire::ipv4_addr, advertised_resource>& entries() const
    {
        return table_;
    }

    const std::string& domain() const { return cfg_.domain; }

    /// Notification when a new (non-local) resource is learned.
    void set_on_learned(std::function<void(const resource_record&)> cb)
    {
        on_learned_ = std::move(cb);
    }

    struct directory_stats {
        std::uint64_t gossip_rounds{0};
        std::uint64_t updates_sent{0};
        std::uint64_t updates_received{0};
        std::uint64_t withdrawals{0};
        std::uint64_t expired{0};
    };
    const directory_stats& stats() const { return stats_; }

private:
    void gossip_to(domain_directory& peer);
    void receive(const std::vector<advertised_resource>& updates);
    void schedule_gossip();
    void expire_stale();

    netsim::engine& eng_;
    directory_config cfg_;
    std::uint64_t next_version_{1};
    std::map<wire::ipv4_addr, advertised_resource> table_;
    std::map<wire::ipv4_addr, sim_time> refreshed_;
    std::vector<domain_directory*> peers_;
    bool gossip_scheduled_{false};
    std::function<void(const resource_record&)> on_learned_;
    directory_stats stats_;
};

} // namespace mmtp::control
