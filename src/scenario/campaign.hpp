// campaign.hpp — the randomized, invariant-checked campaign runner.
//
// A scenario file says what one run looks like; the campaign says what
// must be TRUE of every run. Each scenario is re-executed across the
// axis matrix — burst {1, wide} × policy {closed_loop, static} ×
// tracing {on, off} × persistence {on, off}, with axes a topology does
// not support collapsed — and every cell must uphold the protocol
// invariants the repo's tests prove one by one:
//
//   wholeness       delivered == expected, zero give-ups, zero
//                   outstanding gaps (unless the file declares lossy)
//   no duplicates   ever, lossy or not
//   reconciliation  per link: tx_packets + dropped_random == dequeued
//                   (the serializer accounts for every packet it pulls)
//   determinism     a same-seed rerun produces byte-identical report
//                   and metrics-registry CSV
//
// generate(seed) deterministically produces a random scenario_spec
// (own splitmix64 PRNG — no std distribution, so the sequence is
// identical across platforms), which makes
// `campaign_runner --random N --seed S` a reproducible fuzz campaign.
#pragma once

#include "scenario/dsl.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace mmtp::scenario::campaign {

/// One point of the axis matrix.
struct axes {
    std::uint32_t burst{1};
    bool closed_loop{true};
    bool trace{true};
    bool persist{true};

    std::string label() const;
};

struct cell_result {
    axes ax;
    bool passed{false};
    /// Human-readable invariant violations (empty when passed).
    std::vector<std::string> failures;
    dsl_driver::acceptance accepted;
};

struct outcome {
    std::string name;
    std::string topology;
    bool passed{false};
    std::vector<cell_result> cells;
};

struct options {
    /// Sweep the full axis matrix. When false the scenario runs one
    /// cell exactly as written (the fuzz campaign's mode — generated
    /// specs randomize the axes inside the spec itself).
    bool matrix{true};
    /// The wide value of the burst axis.
    std::uint32_t wide_burst{32};
};

/// The axis matrix for a spec: unsupported axes are collapsed to the
/// spec's own value (e.g. only chaos topologies sweep persistence, and
/// only while the kill-and-revive phase is off — a revive without an
/// archive has nothing to reload).
std::vector<axes> matrix_for(const scenario_spec& spec, const options& opt);

/// Applies one matrix point to a copy of the spec.
scenario_spec apply_axes(const scenario_spec& spec, const axes& ax);

/// Runs one cell (two same-seed executions for the determinism check)
/// and evaluates every invariant.
cell_result run_cell(const scenario_spec& spec, const axes& ax);

/// Runs a scenario across its whole matrix.
outcome run_scenario(const scenario_spec& spec, const options& opt = {});

/// Deterministically generates a random scenario: same seed, same spec,
/// on every platform. The result always parses back through
/// parse_scenario(render_scenario(spec)).
scenario_spec generate(std::uint64_t seed);

} // namespace mmtp::scenario::campaign
