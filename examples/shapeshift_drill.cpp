// shapeshift_drill — degrade the WAN span mid-run and watch the
// closed-loop policy engine shift the stream's mode at runtime.
//
// What happens, in order:
//   1. The run starts in the baseline posture (epoch 0): the Tofino
//      upgrades the stream to the age-sensitive + recoverable-loss mode
//      the pilot uses, compiled by the same compile_modes().
//   2. At the burst instant a corruption process poisons roughly half
//      of everything crossing the WAN. The engine's next poll sees the
//      loss-counter delta cross its threshold and plans a shift to the
//      *buffered* posture.
//   3. The shift is make-before-break: epoch 1's rules (no delivery
//      deadline — data arrives late rather than never) are installed
//      ahead of epoch 0's, the sender re-stamps new datagrams with
//      cfg_id 1, and only after the drain window is epoch 0 retired.
//   4. Every corrupted datagram is recovered from DTN1's buffer via
//      NAK; nothing is shed or aged while the span is lossy.
//   5. The burst ends; after the restore hysteresis (consecutive clean
//      polls) the engine returns the flow to baseline under epoch 2.
//
// Run it twice with the same seed: the telemetry is byte-identical.
#include "scenario/shapeshift.hpp"

#include <cstdio>

int main()
{
    using namespace mmtp;

    scenario::shapeshift_driver d;
    scenario::shapeshift_driver rerun;
    const int rc = scenario::run_example(d, &rerun);

    const auto& r = d.result();
    std::printf("\n");
    std::printf("mode shifts at the element: %llu (epochs retired: %llu), final "
                "posture %s under epoch %u\n",
                static_cast<unsigned long long>(r.mode_shifts),
                static_cast<unsigned long long>(r.epochs_retired),
                r.final_posture.c_str(), unsigned(r.final_epoch));
    for (const auto& [epoch, count] : r.delivered_by_epoch)
        std::printf("  delivered under epoch %u: %llu datagrams\n", unsigned(epoch),
                    static_cast<unsigned long long>(count));
    std::printf("all %llu messages delivered despite %llu corrupted on the WAN: %s "
                "(recovered %llu, given up %llu)\n",
                static_cast<unsigned long long>(r.messages_sent),
                static_cast<unsigned long long>(r.wan.corrupted),
                r.all_delivered ? "yes" : "NO",
                static_cast<unsigned long long>(r.rx.recovered),
                static_cast<unsigned long long>(r.rx.given_up));

    if (!r.reconfig_timeline.empty())
        std::printf("\nreconfiguration spans:\n%s", r.reconfig_timeline.c_str());

    const bool shifted = r.ctl.reconfigs_committed >= 1 && r.mode_shifts >= 1;
    return rc == 0 && shifted && r.all_delivered ? 0 : 1;
}
