// campaign_runner — execute declarative .scenario files (or a seeded
// random campaign) across the invariant-checked axis matrix.
//
//   $ ./campaign_runner scenarios/chaos.scenario [more.scenario ...]
//   $ ./campaign_runner --single file.scenario    (one cell, as written)
//   $ ./campaign_runner --random 25 --seed 9      (deterministic fuzz)
//   $ ./campaign_runner --print file.scenario     (parse + re-render)
//   $ ./campaign_runner --list                    (topology names)
//
// Every scenario is re-run across policy {closed_loop, static} × trace
// {on,off} × persist {on,off} (axes the topology does not support are
// collapsed), and each cell must end whole (unless the file declares
// lossy), deliver zero duplicates, reconcile per-link stats, and
// reproduce byte-identical telemetry on a same-seed rerun. The last line
// counts the failed scenarios; the exit status is 0 when none failed,
// 1 when any did and 2 on a usage error.
#include "scenario/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace mmtp;

namespace {

int run_one(const scenario::scenario_spec& spec,
            const scenario::campaign::options& opt)
{
    std::printf("=== %s (topology %s, seed %llu%s) ===\n",
                spec.name.empty() ? "<unnamed>" : spec.name.c_str(),
                spec.topology.c_str(),
                static_cast<unsigned long long>(spec.seed()),
                spec.lossy ? ", lossy" : "");
    const auto outcome = scenario::campaign::run_scenario(spec, opt);
    for (const auto& cell : outcome.cells) {
        std::printf("  [%s] %s  delivered %llu/%llu dup %llu give-up %llu\n",
                    cell.passed ? "pass" : "FAIL", cell.ax.label().c_str(),
                    static_cast<unsigned long long>(cell.accepted.delivered),
                    static_cast<unsigned long long>(cell.accepted.expected),
                    static_cast<unsigned long long>(cell.accepted.duplicates),
                    static_cast<unsigned long long>(cell.accepted.given_up));
        for (const auto& f : cell.failures) std::printf("      %s\n", f.c_str());
    }
    std::printf("  %zu/%zu cells passed\n", outcome.cells.size()
                    - static_cast<std::size_t>(
                        std::count_if(outcome.cells.begin(), outcome.cells.end(),
                                      [](const auto& c) { return !c.passed; })),
                outcome.cells.size());
    return outcome.passed ? 0 : 1;
}

int usage()
{
    std::fprintf(stderr,
                 "usage: campaign_runner [--single] file.scenario...\n"
                 "       campaign_runner --random N --seed S [--matrix]\n"
                 "       campaign_runner --print file.scenario\n"
                 "       campaign_runner --list\n");
    return 2;
}

} // namespace

int main(int argc, char** argv)
{
    scenario::campaign::options opt;
    std::vector<std::string> files;
    std::uint64_t random_n = 0;
    std::uint64_t seed = 1;
    bool print_only = false;
    bool random_matrix = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list") {
            for (const auto& n : scenario::topology_names())
                std::printf("%s\n", n.c_str());
            return 0;
        } else if (arg == "--single") {
            opt.matrix = false;
        } else if (arg == "--matrix") {
            random_matrix = true;
        } else if (arg == "--print") {
            print_only = true;
        } else if (arg == "--random" && i + 1 < argc) {
            random_n = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seed" && i + 1 < argc) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (!arg.empty() && arg.front() == '-') {
            return usage();
        } else {
            files.push_back(arg);
        }
    }
    if (files.empty() && random_n == 0) return usage();

    int failed = 0;
    for (const auto& path : files) {
        const auto parsed = scenario::load_scenario_file(path);
        if (!parsed) {
            std::fprintf(stderr, "%s: %s\n", path.c_str(),
                         parsed.error.to_string().c_str());
            ++failed;
            continue;
        }
        if (print_only) {
            std::fputs(scenario::render_scenario(*parsed.spec).c_str(), stdout);
            continue;
        }
        failed += run_one(*parsed.spec, opt);
    }

    if (random_n > 0) {
        // Each generated spec randomizes its own axes, so the fuzz
        // campaign runs one cell per spec unless --matrix asks for all.
        scenario::campaign::options ropt;
        ropt.matrix = random_matrix;
        for (std::uint64_t i = 0; i < random_n; ++i) {
            const auto spec = scenario::campaign::generate(seed + i);
            if (print_only) {
                std::fputs(scenario::render_scenario(spec).c_str(), stdout);
                std::printf("\n");
                continue;
            }
            failed += run_one(spec, ropt);
        }
    }

    if (!print_only)
        std::printf("\ncampaign: %s (%d scenario%s failed)\n",
                    failed == 0 ? "GREEN" : "RED", failed, failed == 1 ? "" : "s");
    return failed == 0 ? 0 : 1;
}
