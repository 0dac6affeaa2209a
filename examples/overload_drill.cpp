// overload_drill — offer the WAN twice its capacity for a sustained
// window, and watch every overload-control layer degrade the transfer
// predictably instead of letting it collapse.
//
// What happens, in order:
//   1. The source offers ~2× the WAN rate. The Tofino upgrades the
//      stream (sequencing, retransmission via buf, a 5 ms deadline) and
//      clones every original into buf's tap buffer.
//   2. The WAN egress queue crosses its high watermark: the
//      backpressure stage engages and signals the source — once per
//      engagement plus severity escalations, never per packet.
//   3. The sender's AIMD schedule cuts its pace multiplicatively per
//      signal, and — after the quiet period — recovers it additively,
//      sawtoothing around the WAN's actual capacity.
//   4. When a band still fills, the queue sheds the entry closest to
//      its deadline rather than the newcomer; the receiver NAKs the
//      gap and buf's copy rides the bulk band (no deadline — it cannot
//      be shed again). Zero give-ups required.
//   5. buf's occupancy crosses its own watermark: the capacity planner
//      gates the storage link, a second flow's admission is deferred,
//      and retention decay later releases the gate — the parked flow is
//      admitted automatically.
//
// Run it twice with the same seed: the telemetry is byte-identical.
#include "scenario/overload.hpp"

#include <cstdio>

int main()
{
    using namespace mmtp;

    scenario::overload_driver d;
    scenario::overload_driver rerun;
    const int rc = scenario::run_example(d, &rerun);

    const auto& r = d.result();
    std::printf("\n");
    std::printf("deadline misses: %llu of %llu (%llu ppm), given up: %llu\n",
                static_cast<unsigned long long>(r.missed_deadline),
                static_cast<unsigned long long>(r.messages_sent),
                static_cast<unsigned long long>(r.miss_ppm),
                static_cast<unsigned long long>(r.rx.given_up));
    std::printf("backpressure signals: %llu emitted (%llu suppressed) for %llu "
                "datagrams — O(crossings), not O(packets)\n",
                static_cast<unsigned long long>(r.bp_signals),
                static_cast<unsigned long long>(r.bp_suppressed),
                static_cast<unsigned long long>(r.tx.datagrams));
    std::printf("sender pace: %llu bps at end of run (%s), %llu decrease(s), "
                "%llu recovery step(s)\n",
                static_cast<unsigned long long>(r.final_pace_bps),
                r.pace_recovered ? "recovered" : "STILL SUPPRESSED",
                static_cast<unsigned long long>(r.tx.bp_decreases),
                static_cast<unsigned long long>(r.tx.bp_recovery_steps));
    std::printf("storage pressure: %llu engagement(s), %llu release(s); second "
                "flow %s then %s\n",
                static_cast<unsigned long long>(r.pressure_engagements),
                static_cast<unsigned long long>(r.pressure_releases),
                r.second_flow_deferred ? "deferred" : "NOT deferred",
                r.second_flow_admitted ? "admitted" : "NOT admitted");
    if (r.recovered)
        std::printf("stream whole %.3f ms after the load window (%llu probes)\n",
                    static_cast<double>(r.time_to_recover.ns) / 1e6,
                    static_cast<unsigned long long>(r.probes));
    else
        std::printf("stream NOT whole within the probe deadline\n");

    // Hop-by-hop story of the first deadline-shed message: sequenced at
    // the Tofino, evicted from the WAN egress for being closest to its
    // deadline, NAKed, and re-sent from buf on the bulk band.
    bool timeline_identical = true;
    if (r.traced_sequence != std::uint64_t(-1)) {
        std::printf("\nhop timeline of first shed message (sequence %llu):\n%s",
                    static_cast<unsigned long long>(r.traced_sequence),
                    r.hop_timeline.c_str());
        timeline_identical = r.hop_timeline == rerun.result().hop_timeline;
    } else {
        std::printf("\nno shed message traced\n");
    }

    return rc == 0 && r.recovered && r.rx.given_up == 0 && r.pace_recovered
            && timeline_identical
        ? 0
        : 1;
}
