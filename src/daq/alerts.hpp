// alerts.hpp — alert streams for integrated research infrastructure.
//
// Two alert workloads from the paper:
//
//  * Vera Rubin's alert distribution (§2.1): alongside the nightly 30 TB
//    capture, an alert stream "expected to burst to 5.4 Gbps" fans out
//    interesting observations to telescopes and researchers within
//    milliseconds. Modeled as periodic visit bursts of ~100 KB alerts.
//
//  * DUNE → Vera Rubin supernova early warning (§3, Req 10): a single
//    tiny, maximally latency-critical message carrying the inferred
//    photon arrival direction, emitted when the neutrino burst is
//    detected (neutrinos escape the collapsing star before photons).
#pragma once

#include "common/rng.hpp"
#include "daq/message.hpp"

namespace mmtp::daq {

/// Periodic alert bursts: every `visit_interval`, `alerts_per_visit`
/// messages of lognormal-ish size are emitted back-to-back.
class alert_burst_source final : public message_source {
public:
    struct config {
        wire::experiment_id experiment{0};
        sim_duration visit_interval{sim_duration{39000000000}}; // 39 s cadence
        std::uint32_t alerts_per_visit{10000};
        std::uint32_t mean_alert_bytes{100000};
        std::uint64_t visit_limit{0};
        /// Spacing of alerts inside a burst (source-side serialization).
        sim_duration intra_burst_gap{sim_duration{10000}}; // 10 us
    };

    alert_burst_source(rng r, config cfg);

    std::optional<timed_message> next() override;

private:
    rng rng_;
    config cfg_;
    sim_time visit_start_{sim_time::zero()};
    std::uint64_t visit_{0};
    std::uint32_t within_{0};
    std::uint64_t seq_{0};
};

/// Supernova direction alert: one small urgent message at `onset`.
/// The payload is a real serialized body (right ascension/declination in
/// micro-degrees and a confidence) so integration tests can check
/// content end-to-end.
class supernova_alert_source final : public message_source {
public:
    struct alert_body {
        std::int32_t ra_udeg{0};
        std::int32_t dec_udeg{0};
        std::uint16_t confidence_permille{0};

        std::vector<std::uint8_t> serialize(wire::experiment_id experiment,
                                            std::uint64_t timestamp_ns) const;
        static std::optional<alert_body> parse(std::span<const std::uint8_t> payload);
    };

    supernova_alert_source(wire::experiment_id experiment, sim_time onset, alert_body body);

    std::optional<timed_message> next() override;

private:
    wire::experiment_id experiment_;
    sim_time onset_;
    alert_body body_;
    bool emitted_{false};
};

} // namespace mmtp::daq
