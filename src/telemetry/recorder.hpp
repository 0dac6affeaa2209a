// recorder.hpp — measurement helpers shared by tests, examples, benches.
//
// recovery_tracker measures time-to-recover after an injected fault;
// rate_sampler turns cumulative counters into a throughput time series.
#pragma once

#include "common/units.hpp"
#include "netsim/engine.hpp"

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace mmtp::telemetry {

/// Measures time-to-recover after an injected fault: from the instant
/// the fault fires, a deterministic periodic probe evaluates a health
/// predicate and records the first instant it holds again. Probes ride
/// the simulation engine, so the measurement is byte-identical across
/// runs with the same seed and fault script.
class recovery_tracker {
public:
    using health_fn = std::function<bool()>;

    recovery_tracker(netsim::engine& eng, sim_duration probe_interval)
        : eng_(eng), interval_(probe_interval)
    {
    }

    /// Schedules probing of `healthy` starting at `fault_at` (the fault
    /// instant) and gives up at `deadline` if health never returns.
    void arm(sim_time fault_at, health_fn healthy, sim_time deadline);

    bool recovered() const { return recovered_at_.has_value(); }
    std::optional<sim_duration> time_to_recover() const
    {
        if (!recovered_at_) return std::nullopt;
        return *recovered_at_ - fault_at_;
    }
    std::uint64_t probes() const { return probes_; }
    /// True once probing stopped at the deadline without health returning.
    bool gave_up() const { return gave_up_; }

private:
    void probe();

    netsim::engine& eng_;
    sim_duration interval_;
    health_fn healthy_;
    sim_time fault_at_{sim_time::zero()};
    sim_time deadline_{sim_time::zero()};
    std::optional<sim_time> recovered_at_;
    std::uint64_t probes_{0};
    bool gave_up_{false};
};

/// Periodically samples a cumulative byte counter into Mbps readings.
class rate_sampler {
public:
    using counter_fn = std::function<std::uint64_t()>;

    rate_sampler(netsim::engine& eng, counter_fn counter, sim_duration interval)
        : eng_(eng), counter_(std::move(counter)), interval_(interval)
    {
    }

    /// Starts sampling until `until`.
    void start(sim_time until);

    struct sample {
        sim_time at;
        double mbps;
    };
    const std::vector<sample>& samples() const { return samples_; }

    double peak_mbps() const;
    double mean_mbps() const;

private:
    void tick(sim_time until);

    netsim::engine& eng_;
    counter_fn counter_;
    sim_duration interval_;
    std::uint64_t last_value_{0};
    std::vector<sample> samples_;
};

} // namespace mmtp::telemetry
