// workloads.hpp — the benchmark's inputs, generated from its seed.
//
// Every workload reaches the simulator only as scenario text, which the
// execution layer passes through scenario::parse_scenario. The benchmark
// writes that text itself, with its own PRNG, so a change to the
// simulator's campaign generator cannot change what the benchmark
// measures (the self-test pins the soak texts to the soak's own default
// and smoke configurations). Every spec pins `[engine] shards = 1`: each
// run is one single-threaded process.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace bench {

/// One scenario as the program receives it.
struct spec_text {
    std::string name;
    std::string text;
};

struct workload {
    std::string name;
    std::vector<spec_text> specs;
    /// true: each spec is a campaign cell — two same-seed executions and
    /// a byte comparison; an operation is a cell. false: each spec runs
    /// once and an operation is a message.
    bool cells{false};
    /// Extra parse+build repetitions after the run; setup_s is the
    /// median over them and the run's own set-up (steadies sub-ms
    /// readings without touching wall_s).
    unsigned setup_repeats{0};
};

/// Builds workload `name` for benchmark seed `seed`; nullopt for an
/// unknown name. Same seed, same text, on every platform. The seed picks
/// one of the workload's screened input variants (see workloads.cpp).
std::optional<workload> make_workload(const std::string& name, std::uint64_t seed);

/// The facility soak at soak_drill's full default scale (1M messages).
std::string soak_1m_text(std::uint64_t sim_seed);

/// The §5.4 pilot with `records` ICEBERG records over a 5%-loss WAN.
std::string pilot_lossy_text(std::uint64_t sim_seed, std::uint64_t records);

/// soak_smoke_config() as scenario text — the base every soak cell of
/// campaign-mix starts from.
std::string soak_smoke_text(std::uint64_t sim_seed);

/// `cells` campaign specs drawn from `seed` over campaign::generate's
/// ranges (see workloads.cpp for the sampling design).
std::vector<spec_text> campaign_mix_specs(std::uint64_t seed, unsigned cells);

} // namespace bench
