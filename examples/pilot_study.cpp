// pilot_study — reproduces the paper's §5.4 pilot (Fig. 4) end to end.
//
// Streams synthetic ICEBERG LArTPC trigger records from the detector
// through the DAQ network (mode 0, directly on Ethernet), upgrades to the
// age-sensitive + recoverable-loss mode at the Tofino2-class element,
// crosses a lossy WAN span, runs the age check at the Alveo-class element
// and the timeliness check at DTN 2. The control plane is the policy
// engine's static preset — the same compiled plan the closed-loop drills
// start from. Prints the per-stage story and the modes observed in flight.
//
//   $ ./pilot_study [loss%]          (default 2)
#include "scenario/pilot.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace mmtp;
using namespace mmtp::literals;

int main(int argc, char** argv)
{
    const double loss = argc > 1 ? std::atof(argv[1]) / 100.0 : 0.02;

    scenario::pilot_driver::options opt;
    opt.pilot.wan_loss = loss;
    opt.pilot.wan_delay = 5_ms;
    opt.records = 5000;
    scenario::pilot_driver d(opt);

    // Observe the modes arriving at DTN 2 — hook the testbed before run.
    d.prepare();
    auto& tb = d.testbed();
    std::vector<std::string> seen_modes;
    tb.dtn2_rx->set_on_datagram([&](const core::delivered_datagram& dd) {
        const auto s = to_string(dd.hdr.m);
        for (const auto& m : seen_modes)
            if (m == s) return;
        seen_modes.push_back(s);
    });

    const int rc = scenario::run_example(d);

    std::printf("\nmodes observed at DTN2: ");
    for (const auto& m : seen_modes) std::printf("%s ", m.c_str());
    std::printf("\n(policy deadline: %u us; NAK retry: %.1f ms; p50/p99 age: "
                "%llu/%llu us)\n",
                tb.policy.deadline_us, tb.policy.suggested_nak_retry.millis(),
                static_cast<unsigned long long>(tb.dtn2_rx->stats().age_us.percentile(50)),
                static_cast<unsigned long long>(
                    tb.dtn2_rx->stats().age_us.percentile(99)));

    const bool ok = tb.dtn2_rx->stats().datagrams == opt.records
        && tb.dtn2_rx->stats().given_up == 0;
    std::printf("\n%s\n", ok ? "OK: pilot delivered every record exactly once."
                             : "FAILED: pilot lost records!");
    return ok && rc == 0 ? 0 : 1;
}
