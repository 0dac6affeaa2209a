// driver.hpp — the common scenario-driver interface.
//
// Every scenario in this directory follows the same life cycle: build a
// testbed (topology + control plane + scripted traffic), drain the
// simulation engine, then report deterministic telemetry. Before this
// interface each example re-implemented that skeleton; `driver` names
// it once:
//
//   describe()   one-line banner for logs and example output
//   build()      constructs the testbed and scripts its events; returns
//                a run_context naming the simulation run() will drain.
//                (Scenarios own their network — and therefore their
//                engine — so build *produces* the context rather than
//                receiving one.)
//   run()        builds on first call, then drains the simulation
//   report(reg)  registers the scenario's standard probes into `reg`
//                and returns the headline table (requires run())
//
// run_example() is the shared example main(): banner, run, report,
// metrics snapshot, and an optional same-seed rerun that checks the
// telemetry bytes are identical.
#pragma once

#include "scenario/chaos.hpp"
#include "scenario/overload.hpp"
#include "scenario/pilot.hpp"
#include "scenario/shapeshift.hpp"
#include "scenario/soak.hpp"
#include "scenario/today.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"

#include <memory>
#include <optional>
#include <string>

namespace mmtp::scenario {

/// What build() hands back: the simulation to drain, the scenario
/// network's engine. Value-semantic handle; the driver's testbed owns
/// the network.
class run_context {
public:
    run_context() = default;
    explicit run_context(netsim::network& net) : eng_(&net.sim()) {}

    bool valid() const { return eng_ != nullptr; }
    netsim::engine& sim() { return *eng_; }
    /// Drains the simulation; returns events executed.
    std::uint64_t run() { return eng_->run(); }

private:
    netsim::engine* eng_{nullptr};
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

    bool built() const { return ctx_.valid(); }

    /// The simulation handle (valid after prepare()).
    run_context& context() { return ctx_; }

    /// Registers the scenario's standard probes into `reg` and returns
    /// the headline report table. Requires run().
    virtual telemetry::table report(telemetry::metrics_registry& reg) = 0;

protected:
    run_context ctx_;
};

/// Shared example skeleton: prints describe(), runs, prints the report
/// table and the metrics snapshot. When `rerun` names a second, freshly
/// constructed driver of the same configuration, it is run too and the
/// telemetry bytes compared — the determinism check every drill example
/// used to hand-roll. Returns 0 on success (and byte-identical reruns).
int run_example(driver& d, driver* rerun = nullptr);

// --- concrete drivers ----------------------------------------------------

/// The §5.4 pilot: ICEBERG trigger records through the Fig. 4 testbed.
class pilot_driver : public driver {
public:
    struct options {
        pilot_config pilot{};
        std::uint64_t records{1000};
        std::uint32_t frames_per_record{10};
    };
    pilot_driver();
    explicit pilot_driver(options opt);

    std::string describe() const override;
    run_context build() override;
    telemetry::table report(telemetry::metrics_registry& reg) override;

    pilot_testbed& testbed() { return *tb_; }
    /// Records the ICEBERG source actually produced (valid after build()).
    std::uint64_t records_driven() const { return records_driven_; }

private:
    options opt_;
    std::unique_ptr<pilot_testbed> tb_;
    std::uint64_t records_driven_{0};
};

/// The status-quo pipeline of Fig. 2 (UDP ingest stage).
class today_driver : public driver {
public:
    struct options {
        today_config today{};
        std::uint32_t message_bytes{5000};
        std::uint64_t messages{200};
        sim_duration message_interval{sim_duration{10000}}; // 10 us
    };
    today_driver();
    explicit today_driver(options opt);

    std::string describe() const override;
    run_context build() override;
    telemetry::table report(telemetry::metrics_registry& reg) override;

    today_testbed& testbed() { return *tb_; }
    /// UDP payload bytes scheduled at the sensor (valid after build()).
    std::uint64_t bytes_scheduled() const { return bytes_scheduled_; }

private:
    options opt_;
    std::unique_ptr<today_testbed> tb_;
    std::uint64_t bytes_scheduled_{0};
};

/// Coordinated WAN + buffer failure mid-transfer (chaos drill).
class chaos_driver : public driver {
public:
    explicit chaos_driver(chaos_config cfg = {}) : cfg_(cfg) {}

    std::string describe() const override;
    run_context build() override;
    telemetry::table report(telemetry::metrics_registry& reg) override;

    chaos_testbed& testbed() { return *tb_; }
    /// Summarized once after run(); report() fills it.
    const chaos_result& result();

private:
    chaos_config cfg_;
    std::unique_ptr<chaos_testbed> tb_;
    std::optional<chaos_result> result_;
};

/// 2× sustained offered load with every overload-control layer engaged.
class overload_driver : public driver {
public:
    explicit overload_driver(overload_config cfg = {}) : cfg_(cfg) {}

    std::string describe() const override;
    run_context build() override;
    telemetry::table report(telemetry::metrics_registry& reg) override;

    overload_testbed& testbed() { return *tb_; }
    const overload_result& result();

private:
    overload_config cfg_;
    std::unique_ptr<overload_testbed> tb_;
    std::optional<overload_result> result_;
};

/// Facility-scale soak: five concurrent experiments over shared spans
/// and DTNs under a fault-and-overload storm.
class soak_driver : public driver {
public:
    explicit soak_driver(soak_config cfg = {}) : cfg_(cfg) {}

    std::string describe() const override;
    run_context build() override;
    telemetry::table report(telemetry::metrics_registry& reg) override;

    soak_testbed& testbed() { return *tb_; }
    const soak_result& result();

private:
    soak_config cfg_;
    std::unique_ptr<soak_testbed> tb_;
    std::optional<soak_result> result_;
};

/// Mid-run WAN degradation answered by a runtime mode shift.
class shapeshift_driver : public driver {
public:
    explicit shapeshift_driver(shapeshift_config cfg = {}) : cfg_(cfg) {}

    std::string describe() const override;
    run_context build() override;
    telemetry::table report(telemetry::metrics_registry& reg) override;

    shapeshift_testbed& testbed() { return *tb_; }
    const shapeshift_result& result();

private:
    shapeshift_config cfg_;
    std::unique_ptr<shapeshift_testbed> tb_;
    std::optional<shapeshift_result> result_;
};

} // namespace mmtp::scenario
