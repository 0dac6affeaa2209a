#include "daq/profiles.hpp"

namespace mmtp::daq {

experiment_profile experiment_profile::scaled(double factor) const
{
    experiment_profile p = *this;
    p.daq_rate = data_rate{static_cast<std::uint64_t>(
        static_cast<double>(daq_rate.bits_per_sec) * factor)};
    return p;
}

experiment_profile cms_l1_profile()
{
    return {"CMS L1 Trigger", wire::experiments::cms_l1, data_rate{63000000000000ull},
            8192, 512, "high-energy physics; accelerator-driven"};
}

experiment_profile dune_profile()
{
    return {"DUNE", wire::experiments::dune, data_rate{120000000000000ull},
            5632, 600, "accelerator- and natural-neutrino-driven; 4 detector modules"};
}

experiment_profile ecce_profile()
{
    return {"ECCE detector", wire::experiments::ecce, data_rate{100000000000000ull},
            8192, 512, "electron-ion collider detector"};
}

experiment_profile mu2e_profile()
{
    return {"Mu2e", wire::experiments::mu2e, data_rate{160000000000ull},
            4096, 40, "DAQ data carried directly over Ethernet frames (§4)"};
}

experiment_profile vera_rubin_profile()
{
    return {"Vera Rubin", wire::experiments::vera_rubin, data_rate{400000000000ull},
            8192, 21, "telescope; nightly 30 TB capture + 5.4 Gbps alert bursts"};
}

const std::vector<experiment_profile>& table1_profiles()
{
    static const std::vector<experiment_profile> profiles = {
        cms_l1_profile(), dune_profile(), ecce_profile(), mu2e_profile(),
        vera_rubin_profile()};
    return profiles;
}

} // namespace mmtp::daq
