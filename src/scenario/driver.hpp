// driver.hpp — the common scenario-driver interface.
//
// Every topology in this directory is one module, X.{hpp,cpp}: its
// config, its testbed and make_X(), and its X_driver (the four drills
// add X_result and run_X_drill()). The driver names the life cycle they
// share once:
//
//   describe()   one-line banner for logs and example output
//   build()      constructs the testbed and scripts its events; returns
//                a run_context naming the network run() will drain.
//                (Scenarios own their network — and therefore their
//                engine — so build *produces* the context rather than
//                receiving one.)
//   run()        builds on first call, then drains the simulation
//   report(reg)  registers the scenario's standard probes into `reg`
//                and returns the headline table (requires run())
//   accept()     the post-run acceptance numbers the campaign
//                invariants gate on (requires run())
//
// run_example() is the shared example main(): banner, run, report,
// metrics snapshot, and an optional same-seed rerun that checks the
// telemetry bytes are identical.
#pragma once

#include "mmtp/receiver.hpp"
#include "netsim/network.hpp"
#include "pnet/element.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"

#include <cstdint>
#include <string>

namespace mmtp::scenario {

/// What build() hands back: the testbed's network, whose engine run()
/// drains. Value-semantic handle; the driver's testbed owns the network.
class run_context {
public:
    run_context() = default;
    explicit run_context(netsim::network& net) : net_(&net) {}

    bool valid() const { return net_ != nullptr; }
    netsim::network& network() { return *net_; }
    netsim::engine& sim() { return net_->sim(); }
    /// Drains the simulation; returns events executed.
    std::uint64_t run() { return net_->sim().run(); }

private:
    netsim::network* net_{nullptr};
};

class driver {
public:
    virtual ~driver() = default;

    /// One-line human description of the scenario.
    virtual std::string describe() const = 0;

    /// Constructs the testbed and scripts its traffic/faults; returns
    /// the run_context that run() drains. Idempotence is the caller's
    /// job — use prepare()/run() unless you need the context directly.
    virtual run_context build() = 0;

    /// Builds exactly once (so a testbed can be customised before run).
    void prepare()
    {
        if (!ctx_.valid()) ctx_ = build();
    }

    /// Runs the scenario to completion (builds first if needed).
    void run()
    {
        prepare();
        ctx_.run();
    }

    /// The simulation handle (valid after prepare()).
    run_context& context() { return ctx_; }

    /// The testbed's network, for structural invariants (per-link stats
    /// reconciliation). Valid after prepare().
    netsim::network& network() { return ctx_.network(); }

    /// Registers the scenario's standard probes into `reg` and returns
    /// the headline report table. Requires run().
    virtual telemetry::table report(telemetry::metrics_registry& reg) = 0;

    /// Generic acceptance numbers, post-run: what was offered, what
    /// arrived, and the failure counters the campaign invariants gate
    /// on. Whole means everything offered arrived, nothing was given up
    /// and no gap is open.
    struct acceptance {
        std::uint64_t expected{0};
        std::uint64_t delivered{0};
        std::uint64_t duplicates{0};
        std::uint64_t given_up{0};
        std::uint64_t outstanding_gaps{0};
        bool whole{false};
    };
    virtual acceptance accept() = 0;

protected:
    /// The acceptance of a sequenced drill: `expected` offered,
    /// `delivered` arrived, the failure counters read off its receiver.
    static acceptance stream_acceptance(std::uint64_t expected, std::uint64_t delivered,
                                        const core::receiver& rx);

    run_context ctx_;
};

/// Shared example skeleton: prints describe(), runs, prints the report
/// table and the metrics snapshot. When `rerun` names a second, freshly
/// constructed driver of the same configuration, it is run too and the
/// telemetry bytes compared — the determinism check every drill example
/// used to hand-roll. Returns 0 on success (and byte-identical reruns).
int run_example(driver& d, driver* rerun = nullptr);

/// End-of-window flush marker for a stream sequenced in-network: reads
/// the next sequence from `sw`'s mode_seq register and sends three
/// stream_flush copies from `from` to `to`, so the marker crosses a
/// lossy span like everything else.
void send_switch_flush(pnet::programmable_switch& sw, core::stack& from,
                       wire::ipv4_addr to, wire::experiment_id stream);

} // namespace mmtp::scenario
