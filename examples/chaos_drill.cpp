// chaos_drill — kill the primary WAN span AND the primary DTN buffer
// mid-transfer, and watch the protocol put the stream back together.
//
// What happens, in order:
//   1. A DAQ burst is in flight: the Tofino assigns sequence numbers,
//      stamps buf1 as the retransmission buffer, and duplicates every
//      datagram into the buf1 and buf2 tap buffers.
//   2. At the fault instant the primary WAN link goes down (stranding
//      its queued packets), the buf1 feed is severed, and buf1 loses
//      power.
//   3. The health monitor drives the capacity planner: budgets on the
//      dead path are released and the flow is re-admitted onto the
//      registered backup span; the reroute callback repoints the
//      Tofino's route, and a listener prunes buf1 from duplication.
//   4. The receiver's NAKs to buf1 go unanswered, back off
//      exponentially, and fail over to buf2 (learned from buf1's own
//      advert) — which retransmits the stranded sequences.
//
// Run it twice with the same seed: the telemetry is byte-identical.
#include "scenario/chaos.hpp"

#include <cstdio>

int main()
{
    using namespace mmtp;

    scenario::chaos_driver d;
    scenario::chaos_driver rerun;
    const int rc = scenario::run_example(d, &rerun);

    const auto& r = d.result();
    std::printf("\n");
    if (r.recovered)
        std::printf("recovered %.3f ms after the fault (%llu probes)\n",
                    static_cast<double>(r.time_to_recover.ns) / 1e6,
                    static_cast<unsigned long long>(r.probes));
    else
        std::printf("NOT recovered within the probe deadline\n");
    std::printf("delivered despite failure: %llu datagrams, given up: %llu\n",
                static_cast<unsigned long long>(r.delivered_despite_failure),
                static_cast<unsigned long long>(r.rx.given_up));

    // Hop-by-hop story of one failed-over message: sequenced at the
    // Tofino, cloned into the taps, NAKed after the fault, re-sent by
    // buf2 and delivered across the backup WAN span.
    bool timeline_identical = true;
    if (r.traced_sequence != std::uint64_t(-1)) {
        std::printf("\nhop timeline of failed-over message (sequence %llu):\n%s",
                    static_cast<unsigned long long>(r.traced_sequence),
                    r.hop_timeline.c_str());
        std::printf("traversed backup span after the fault: %s\n",
                    r.traversed_backup ? "yes" : "NO");
        timeline_identical = r.hop_timeline == rerun.result().hop_timeline;
    } else {
        std::printf("\nno failed-over message traced\n");
    }

    return rc == 0 && r.recovered && r.rx.given_up == 0 && r.traversed_backup
            && timeline_identical
        ? 0
        : 1;
}
