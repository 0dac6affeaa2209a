// dsl.hpp — the declarative scenario format and its driver.
//
// Every drill in this directory is a config struct plus a make_*()
// builder; until now the only way to *compose* one was to write C++.
// The DSL names the same knobs in a line-oriented text format — the
// Petri-net-parser approach the ROADMAP asks for: scenarios become
// data, and one binary replays any mix of topology, traffic, faults,
// overload profile and policy preset without recompiling.
//
// Grammar (no external deps, one pass, line-oriented):
//
//   # comment                      blank lines and '#' lines are skipped
//   [section]                      sections scope keys; duplicates are errors
//   key = value                    whitespace-trimmed on both sides
//
// Typed values carry unit suffixes mirroring common/units.hpp:
//   durations   500ns  250us  2ms  1s        (integer count + suffix)
//   rates       10gbps 400mbps 10kbps 9600bps
//   sizes       8192b  512kib  8mib  1gib
//   booleans    true/false  on/off  yes/no  1/0
//   fractions   bare decimals in [0, 1] (loss probability, BER)
//
// Every scenario names its `topology` — one of the six presets
// (pilot, today, chaos, overload, shapeshift, soak) — and only that
// topology's knobs are legal: the parser **fails closed** on unknown
// sections, unknown keys, malformed or out-of-range values and
// duplicated sections/keys, always reporting the offending line number.
// A parse either yields a fully-validated scenario_spec or an error;
// there is no partially-applied scenario.
#pragma once

#include "scenario/driver.hpp"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

namespace mmtp::scenario {

/// A parsed scenario: the topology name plus that topology's fully
/// populated config. Exactly one of the config members is meaningful
/// (the one `topology` names); the others stay default-constructed.
struct scenario_spec {
    std::string name;     // [scenario] name = ...
    std::string topology; // pilot | today | chaos | overload | shapeshift | soak
    /// The file's acceptance contract. false (default): the run must end
    /// whole — zero loss, zero duplicates, zero give-ups. true: loss is
    /// accepted (e.g. the status-quo pipeline has no recovery), but
    /// duplicates never are.
    bool lossy{false};

    pilot_driver::options pilot{};
    today_driver::options today{};
    chaos_config chaos{};
    overload_config overload{};
    shapeshift_config shapeshift{};
    soak_config soak{};

    std::uint64_t seed() const;
    void set_seed(std::uint64_t s);
    /// The burst knob of the active topology config.
    std::uint32_t link_burst() const;
    void set_link_burst(std::uint32_t b);
    /// Always 1: the simulator runs one engine. `[engine] shards = 1`
    /// still parses because the end-to-end benchmark's specs pin it.
    std::uint32_t shards() const { return 1; }
};

/// A line-anchored parse diagnostic. line is 1-based; 0 means the error
/// is about the file as a whole (e.g. a missing [scenario] section).
struct dsl_error {
    unsigned line{0};
    std::string message;

    std::string to_string() const
    {
        return "line " + std::to_string(line) + ": " + message;
    }
};

/// Outcome of a parse: either a validated spec or a diagnostic.
struct parse_outcome {
    std::optional<scenario_spec> spec;
    dsl_error error;

    explicit operator bool() const { return spec.has_value(); }
};

/// Parses scenario text. Never throws; malformed input of any shape
/// (including binary garbage) yields an error outcome.
parse_outcome parse_scenario(const std::string& text);

/// Reads and parses a scenario file (unreadable file => error outcome).
parse_outcome load_scenario_file(const std::string& path);

/// Renders a spec back to scenario text that parse_scenario() accepts
/// (used by the campaign generator; not guaranteed byte-identical to
/// the input it was parsed from — only semantically identical).
std::string render_scenario(const scenario_spec& spec);

/// Executes a parsed scenario through the standard driver interface by
/// delegating to the concrete driver the registry builds for the
/// spec's topology — scenario files run anywhere a driver runs
/// (run_example, the campaign runner, tests).
class dsl_driver : public driver {
public:
    explicit dsl_driver(scenario_spec spec);
    ~dsl_driver() override;

    std::string describe() const override;
    run_context build() override;
    telemetry::table report(telemetry::metrics_registry& reg) override;

    const scenario_spec& spec() const { return spec_; }
    /// The concrete driver executing the spec (valid after build()).
    driver& inner() { return *inner_; }

    /// Generic acceptance numbers, post-run: what was offered, what
    /// arrived, and the failure counters the campaign invariants gate
    /// on. Wholeness semantics follow the drill's own summary.
    struct acceptance {
        std::uint64_t expected{0};
        std::uint64_t delivered{0};
        std::uint64_t duplicates{0};
        std::uint64_t given_up{0};
        std::uint64_t outstanding_gaps{0};
        bool whole{false};
    };
    acceptance accept();

    /// The testbed's network, for structural invariants (per-link stats
    /// reconciliation). Valid after build().
    netsim::network& network();

private:
    scenario_spec spec_;
    std::unique_ptr<driver> inner_;
};

} // namespace mmtp::scenario
