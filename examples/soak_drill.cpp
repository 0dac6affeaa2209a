// soak_drill — the facility-scale soak: all five Table-1 experiments
// concurrent over shared WAN spans and DTNs, one million messages,
// admission/teardown churn, and a scripted fault-and-overload storm
// with the closed-loop policy engines active in the same run.
//
// What happens, in order:
//   1. Twenty slice streams (5 experiments × 4 slices) start emission
//      chains toward the shared DTN1 relay; five capacity-planned
//      trunks carry them over wan-primary, and a churn process admits
//      and releases hundreds of short-lived flows alongside.
//   2. DTN1's occupancy crosses its high watermark; storage pressure
//      gates the shared DAQ link, so churn admissions park in the
//      planner's deferred queue until the tail of the run.
//   3. The storm: a corruption burst on the primary span (all five
//      engines degrade to buffered), DTN2 — the duplication-fed tap —
//      is killed and revived from its durable store, the primary span
//      fails hard (health monitor → planner → all five trunks reroute
//      onto wan-backup), and a second burst hits the backup span.
//   4. Every storm loss is NAK-recovered from DTN1. The flush reveals
//      any tail loss; prune_idle retires the completed streams; the
//      deferred churn queue drains when pressure releases.
//
// The run must end whole — zero duplicates, zero give-ups — and two
// same-seed runs produce byte-identical telemetry even though every
// hot-path lookup underneath is hashed. Pass --smoke for the CI-sized
// variant (~10k messages, same storm).
#include "scenario/soak.hpp"

#include <cstdio>
#include <cstring>

int main(int argc, char** argv)
{
    using namespace mmtp;

    const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    const auto cfg = smoke ? scenario::soak_smoke_config() : scenario::soak_config{};
    scenario::soak_driver d(cfg);
    scenario::soak_driver rerun(cfg);
    const int rc = scenario::run_example(d, &rerun);

    const auto& r = d.result();
    std::printf("\n");
    std::printf("delivered %llu / %llu messages across 5 concurrent experiments "
                "(duplicates %llu, given up %llu): %s\n",
                static_cast<unsigned long long>(r.delivered),
                static_cast<unsigned long long>(r.messages_sent),
                static_cast<unsigned long long>(r.rx.duplicates),
                static_cast<unsigned long long>(r.rx.given_up),
                r.all_delivered && r.all_experiments_complete ? "whole" : "NOT WHOLE");
    std::printf("storm: %llu corrupted on primary, %llu on backup, %llu trunks "
                "rerouted, DTN2 crashed %llu× and recovered %llu records\n",
                static_cast<unsigned long long>(r.wan_primary.corrupted),
                static_cast<unsigned long long>(r.wan_backup.corrupted),
                static_cast<unsigned long long>(r.planner.flows_rerouted),
                static_cast<unsigned long long>(r.dtn2.crashes),
                static_cast<unsigned long long>(r.dtn2.recovered_records));
    std::printf("control: %llu reconfigs committed across 5 engines "
                "(%llu loss triggers, %llu health triggers, %llu restores)\n",
                static_cast<unsigned long long>(r.reconfigs_committed),
                static_cast<unsigned long long>(r.loss_triggers),
                static_cast<unsigned long long>(r.health_triggers),
                static_cast<unsigned long long>(r.restores));
    std::printf("churn: %llu requests, %llu deferred behind storage pressure, "
                "%llu admitted from the queue; streams retired %llu/%llu, "
                "signal records pruned %llu\n",
                static_cast<unsigned long long>(r.churn_requests),
                static_cast<unsigned long long>(r.planner.admissions_deferred),
                static_cast<unsigned long long>(r.planner.deferred_admitted),
                static_cast<unsigned long long>(r.streams_retired),
                static_cast<unsigned long long>(r.streams_seen),
                static_cast<unsigned long long>(r.signals_pruned));

    const bool storm_exercised = r.rerouted_all_trunks && r.dtn2.revivals >= 1
        && r.reconfigs_committed >= 1;
    return rc == 0 && r.all_delivered && r.all_experiments_complete
            && storm_exercised
        ? 0
        : 1;
}
