// profiles.hpp — experiment workload profiles (Table 1 of the paper).
//
// Each experiment has a known, capacity-planned data acquisition rate
// (§2): the rate is set by sensor precision, ADC frequency/precision and
// expected event counts. A profile captures that "well-known shape" —
// aggregate rate, message size, and how many parallel sensor streams
// produce it — and benches time-scale it onto simulated links.
#pragma once

#include "common/units.hpp"
#include "wire/ids.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace mmtp::daq {

struct experiment_profile {
    std::string name;
    std::uint32_t experiment; // wire::experiments::* number
    data_rate daq_rate;       // aggregate acquisition rate (Table 1)
    std::uint32_t message_bytes; // typical DAQ message (frame) size
    std::uint32_t streams;       // parallel sensor streams / links
    std::string note;

    /// Messages per second across all streams at the full DAQ rate.
    double messages_per_second() const
    {
        return static_cast<double>(daq_rate.bits_per_sec)
            / (8.0 * static_cast<double>(message_bytes));
    }

    /// Inter-message gap for one stream at `scale` of the full rate.
    sim_duration message_interval(double scale = 1.0) const
    {
        const double per_stream = messages_per_second() * scale / streams;
        return sim_duration{static_cast<std::int64_t>(1e9 / per_stream)};
    }

    /// Profile with the aggregate rate scaled by `factor` (benches run
    /// time-scaled replicas of the Table 1 rates on simulated links).
    experiment_profile scaled(double factor) const;
};

/// The five experiments of Table 1, with DAQ rates as published.
const std::vector<experiment_profile>& table1_profiles();

experiment_profile cms_l1_profile();     // 63 Tbps
experiment_profile dune_profile();       // 120 Tbps
experiment_profile ecce_profile();       // 100 Tbps
experiment_profile mu2e_profile();       // 160 Gbps
experiment_profile vera_rubin_profile(); // 400 Gbps

} // namespace mmtp::daq
