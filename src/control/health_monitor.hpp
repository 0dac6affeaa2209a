// health_monitor.hpp — control-plane observation of data-plane faults.
//
// The capacity planner plans against link budgets; the health monitor is
// what tells it a budget just vanished. It subscribes to the up/down
// state watcher of every watched netsim link, timestamps each transition
// on the simulation clock, drives the planner's failure handling
// (release budgets, re-admit onto backup paths), and fans the event out
// to scenario-level listeners — which is where data-plane reactions
// (route repointing, duplication-subscriber pruning) are wired up.
#pragma once

#include "common/units.hpp"
#include "control/planner.hpp"
#include "netsim/engine.hpp"
#include "netsim/link.hpp"

#include <functional>
#include <vector>

namespace mmtp::control {

struct health_stats {
    std::uint64_t links_watched{0};
    std::uint64_t downs_observed{0};
    std::uint64_t ups_observed{0};
};

class health_monitor {
public:
    health_monitor(netsim::engine& eng, capacity_planner& planner)
        : eng_(eng), planner_(planner)
    {
    }

    /// Observes `l`'s state transitions under budget name `id`.
    /// Installs the link's (single) state watcher — the monitor must
    /// outlive the link's use of it.
    void watch(const link_id& id, netsim::link& l);

    struct transition {
        link_id id;
        bool up;
        sim_time at;
    };
    /// Every transition observed, in simulation order.
    const std::vector<transition>& history() const { return history_; }

    using listener = std::function<void(const link_id&, bool up, sim_time at)>;
    /// Listeners run after the planner has handled the event, so they
    /// observe post-reroute budget state.
    void add_listener(listener cb) { listeners_.push_back(std::move(cb)); }

    const health_stats& stats() const { return stats_; }

private:
    void on_transition(const link_id& id, bool up);

    netsim::engine& eng_;
    capacity_planner& planner_;
    std::vector<transition> history_;
    std::vector<listener> listeners_;
    health_stats stats_;
};

} // namespace mmtp::control
