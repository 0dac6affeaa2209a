// pilot.hpp — the pilot-study testbed (Fig. 4), assembled end to end.
//
// Topology (addresses/link rates configurable):
//
//   sensor ──L2──► DAQ switch ──L2──► DTN 1 (Alveo U280-class, buffer)
//                                       │ 100 GbE
//                                  Tofino2 switch   ← mode 0 → mode 1 here
//                                       │ "WAN" link (delay, loss)
//                                  Alveo U55C-class element  ← age check
//                                       │
//                                     DTN 2 (receiver, mode-2 checks)
//
// Three modes, as in §5.4: (1) unreliable sensor→DTN1; (2) age-sensitive,
// recoverable-loss DTN1→DTN2; (3) timeliness check at the destination.
// Mode changes happen entirely in network elements.
#pragma once

#include "control/policy.hpp"
#include "control/policy_engine.hpp"
#include "mmtp/buffer_service.hpp"
#include "mmtp/receiver.hpp"
#include "mmtp/sender.hpp"
#include "netsim/network.hpp"
#include "pnet/stages.hpp"
#include "scenario/driver.hpp"

#include <memory>

namespace mmtp::scenario {

struct pilot_config {
    std::uint64_t seed{42};
    /// Sensor→DTN1 (DAQ network) link rate.
    data_rate daq_rate{data_rate::from_gbps(100)};
    /// DTN1→DTN2 path rate (the pilot saturates 100 GbE).
    data_rate wan_rate{data_rate::from_gbps(100)};
    /// One-way WAN propagation delay (pilot: lab-local; benches sweep).
    sim_duration wan_delay{sim_duration{1000000}}; // 1 ms
    /// Per-packet drop probability on the WAN link (recoverable loss).
    double wan_loss{0.0};
    /// Age budget carried in mode 1; 0 = derive from the path (policy).
    std::uint32_t deadline_us{0};
    /// Deadline-aware priority queueing on the WAN egress.
    bool priority_queues{true};
    /// Elements emit deadline-exceeded notifications to DTN1.
    bool notifications{true};
    /// DTN1 assigns sequence numbers itself instead of the Tofino2
    /// (ablation; the pilot default is in-network assignment).
    bool sequence_at_dtn{false};
    /// Queue capacity on the WAN egress.
    std::uint64_t wan_queue_bytes{8ull * 1024 * 1024};

    bool operator==(const pilot_config&) const = default;
};

struct pilot_testbed {
    netsim::network net;
    pilot_config cfg;

    netsim::host* sensor{nullptr};
    netsim::host* dtn1{nullptr};
    netsim::host* dtn2{nullptr};

    pnet::programmable_switch* daq_switch{nullptr};
    pnet::programmable_switch* tofino2{nullptr};
    pnet::programmable_switch* alveo_rx{nullptr};

    std::unique_ptr<core::stack> sensor_stack;
    std::unique_ptr<core::sender> sensor_tx;
    std::unique_ptr<core::stack> dtn1_stack;
    std::unique_ptr<core::buffer_service> dtn1_svc;
    std::unique_ptr<core::stack> dtn2_stack;
    std::unique_ptr<core::receiver> dtn2_rx;

    std::shared_ptr<pnet::mode_transition_stage> mode_stage;
    /// Extra mode table evaluated just before duplication — rules here
    /// can activate the duplication bit for selected experiments.
    std::shared_ptr<pnet::mode_transition_stage> dup_mode_stage;
    /// Campus-boundary mode table on the Alveo in front of DTN2.
    std::shared_ptr<pnet::mode_transition_stage> campus_stage;
    std::shared_ptr<pnet::age_update_stage> tofino_age;
    std::shared_ptr<pnet::age_update_stage> alveo_age;
    std::shared_ptr<pnet::duplication_stage> duplication;

    /// The control plane: a policy engine running the static preset —
    /// the pilot is one preset of the runtime mode-shifting machinery,
    /// not a separate code path.
    std::unique_ptr<control::policy_engine> policy_ctl;
    /// The plan the engine compiled and installed (policy_ctl->current()).
    control::compiled_policy policy;

    /// Deadline notifications received back at DTN1.
    std::uint64_t deadline_notifications{0};
};

/// Builds and wires the whole pilot. The returned testbed owns
/// everything; run experiments by driving `sensor_tx` and the engine.
std::unique_ptr<pilot_testbed> make_pilot(const pilot_config& cfg);

/// The §5.4 pilot: ICEBERG trigger records through the Fig. 4 testbed.
class pilot_driver : public driver {
public:
    struct options {
        pilot_config pilot{};
        std::uint64_t records{1000};
        std::uint32_t frames_per_record{10};

        bool operator==(const options&) const = default;
    };
    explicit pilot_driver(options opt);

    std::string describe() const override;
    run_context build() override;
    telemetry::table report(telemetry::metrics_registry& reg) override;
    acceptance accept() override;

    pilot_testbed& testbed() { return *tb_; }
    /// Records the ICEBERG source actually produced (valid after build()).
    std::uint64_t records_driven() const { return records_driven_; }

private:
    options opt_;
    std::unique_ptr<pilot_testbed> tb_;
    std::uint64_t records_driven_{0};
};

} // namespace mmtp::scenario
