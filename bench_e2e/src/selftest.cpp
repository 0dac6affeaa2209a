// selftest.cpp — the benchmark's own checks, run by
// `bench_e2e --self-test <scenario>` (and ctest in the benchmark's build):
//
//   faithful trace   on the checked-in scenario, the engine::step() loop
//                    of the traced run gives the same engine_profile
//                    counts and the same report/metrics CSV digests as
//                    run_context::run()
//   own inputs       soak-1m is soak_drill's full default scale, soak
//                    cells start from soak_smoke_config(), and every
//                    campaign-mix spec parses, pins shards = 1, stays in
//                    campaign::generate's ranges and repeats per seed
//   messages         a today spec counts messages, not bytes
#include "execute.hpp"

#include "scenario/dsl.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

namespace bench {

namespace {

using namespace mmtp::scenario;

int failures = 0;

void expect(bool ok, const std::string& what)
{
    if (!ok) {
        ++failures;
        std::printf("FAIL: %s\n", what.c_str());
    }
}

bool in(std::uint64_t v, std::uint64_t lo, std::uint64_t hi)
{
    return v >= lo && v <= hi;
}

void faithful_trace(const std::string& text)
{
    const workload w{"faithful", {{"faithful", text}}};
    const run_result run = run_workload(w, false);
    const run_result step = run_workload(w, true);
    expect(run.counts == step.counts, "step() loop changed an event count or layer counter");
    expect(run.report_crc == step.report_crc, "step() loop changed the report CSV");
    expect(run.metrics_crc == step.metrics_crc, "step() loop changed the metrics CSV");
    // The scenario must exercise every class the split attributes.
    for (const char* cls : {"timer", "link_tx", "link_arrival", "pipeline", "protocol", "control"})
        expect(run.counts.at(std::string("netsim.events.") + cls) > 0,
               std::string("self-test scenario runs no ") + cls + " events");
}

void soak_texts()
{
    scenario_spec want;
    want.topology = "soak";
    want.name = "soak-1m";
    want.soak = soak_config{};
    want.set_seed(42);
    const auto full = parse_scenario(soak_1m_text(42));
    expect(full && render_scenario(*full.spec) == render_scenario(want),
           "soak-1m text is not soak_drill's default configuration");
    expect(full && full.spec->soak.expected_messages() == 1000000,
           "soak-1m does not schedule 1,000,000 messages");

    want.name = "soak-smoke";
    want.soak = soak_smoke_config();
    want.set_seed(42);
    const auto smoke = parse_scenario(soak_smoke_text(42));
    expect(smoke && render_scenario(*smoke.spec) == render_scenario(want),
           "soak smoke text is not soak_smoke_config()");
}

void pilot_text()
{
    const auto w = make_workload("pilot-lossy", 1);
    const auto p = parse_scenario(w->specs.at(0).text);
    expect(p && p.spec->topology == "pilot" && p.spec->pilot.records == 200000
               && std::abs(p.spec->pilot.pilot.wan_loss - 0.05) < 1e-9
               && p.spec->pilot.pilot.wan_delay.ns == 5000000 && !p.spec->lossy,
           "pilot-lossy is not 200k records over a 5%-loss 5 ms WAN");
}

void campaign_mix()
{
    const auto w = make_workload("campaign-mix", 7);
    expect(w->specs.size() == 192 && w->cells, "campaign-mix is not 192 cells");
    expect(make_workload("campaign-mix", 7)->specs.at(5).text == w->specs.at(5).text,
           "campaign-mix is not a function of its seed");
    expect(make_workload("campaign-mix", 8)->specs.at(5).text != w->specs.at(5).text,
           "campaign-mix ignores its seed");
    std::map<std::string, unsigned> topologies;
    for (const auto& s : w->specs) {
        const auto p = parse_scenario(s.text);
        expect(static_cast<bool>(p), s.name + " does not parse: " + p.error.to_string());
        if (!p) continue;
        const scenario_spec& c = *p.spec;
        topologies[c.topology]++;
        bool ok = c.shards() == 1 && in(c.link_burst(), 1, 32);
        if (c.topology == "pilot")
            ok = ok && in(c.pilot.records, 200, 1500) && in(c.pilot.frames_per_record, 4, 12)
                && c.lossy == (c.pilot.pilot.wan_loss > 0)
                && in(static_cast<std::uint64_t>(c.pilot.pilot.wan_delay.ns), 1000000, 10000000);
        else if (c.topology == "today")
            ok = ok && c.lossy && in(c.today.messages, 100, 300)
                && in(c.today.message_bytes, 2000, 8000);
        else if (c.topology == "chaos")
            ok = ok && in(c.chaos.messages, 400, 1200) && in(c.chaos.message_bytes, 2048, 8192);
        else if (c.topology == "shapeshift")
            ok = ok && in(c.shapeshift.messages, 800, 2500)
                && in(static_cast<std::uint64_t>(c.shapeshift.message_interval.ns), 4000, 6000)
                && c.shapeshift.burst_ber < 0.000025;
        else if (c.topology == "overload")
            ok = ok && in(c.overload.messages, 4000, 6000);
        else if (c.topology == "soak")
            ok = ok && in(c.soak.slices_per_experiment, 2, 4)
                && in(c.soak.messages_per_stream, 150, 400) && in(c.soak.experiment_mask, 1, 31);
        expect(ok, s.name + " is outside campaign::generate's ranges or not pinned to one shard");
    }
    expect(topologies["pilot"] == 24 && topologies["today"] == 24 && topologies["chaos"] == 48
               && topologies["shapeshift"] == 48 && topologies["overload"] == 24
               && topologies["soak"] == 24,
           "campaign-mix topology proportions differ from campaign::generate's");
}

void today_counts_messages()
{
    workload w;
    w.name = "today-count";
    w.specs.push_back({"today-count", "[scenario]\nname = today-count\ntopology = today\n"
                                      "seed = 3\nlossy = true\n\n[engine]\nshards = 1\n\n"
                                      "[traffic]\nmessages = 40\nmessage_bytes = 3000\n"});
    const run_result r = run_workload(w, false);
    expect(r.attempted == 40 && r.delivered == 40 && r.failed == 0,
           "a lossless today run of 40 messages is counted as " + std::to_string(r.delivered)
               + " delivered of " + std::to_string(r.attempted));
}

} // namespace

int self_test(const std::string& scenario_path)
{
    std::ifstream f(scenario_path);
    std::stringstream text;
    text << f.rdbuf();
    expect(static_cast<bool>(f) && !text.str().empty(), "cannot read " + scenario_path);
    if (failures == 0) faithful_trace(text.str());
    soak_texts();
    pilot_text();
    campaign_mix();
    today_counts_messages();
    std::printf("%s: %d failure(s)\n", failures == 0 ? "OK" : "FAILED", failures);
    return failures == 0 ? 0 : 1;
}

} // namespace bench
