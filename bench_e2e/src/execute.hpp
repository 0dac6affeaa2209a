// execute.hpp — one workload run, driven through the simulator's public
// entry points only:
//
//   scenario::parse_scenario     the spec text the workload generated
//   scenario::dsl_driver         registry build of the testbed
//   run_context::run()           untimed-per-layer drain, or
//   engine::step()               the traced drain, charged per task_class
//   driver::report + registry    the report and metrics CSVs
//   stats() / queue_statistics() per-link reconciliation and counts
//
// Each execution is checked (wholeness, duplicates, reconciliation) and
// failures are counted, never aborted on.
#pragma once

#include "workloads.hpp"

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bench {

/// Task classes of netsim::engine, in task_class order.
constexpr std::size_t class_count = 7;
extern const std::array<const char*, class_count> class_names;

/// One span of the traced run: a phase of one execution.
struct span {
    std::uint32_t exec;  // execution id, shared by all its phases
    std::string spec;    // the spec (cell) the execution belongs to
    const char* name;    // parse | build | drain | export | check
    double start_s;      // since the run started
    double end_s;
};

/// Exact counters summed over a run's executions (peaks: maximum).
using count_map = std::map<std::string, std::uint64_t>;

struct run_result {
    std::string workload;
    bool traced{false};

    double wall_s{0};   // first parse to last check
    double setup_s{0};  // parse + build (median over set-up repeats)
    double drain_s{0};  // engine run calls only
    double parse_s{0}, build_s{0}, export_s{0}, check_s{0};
    /// Drain seconds charged per task_class (traced runs only).
    std::array<double, class_count> class_s{};

    std::uint64_t attempted{0};
    std::uint64_t failed{0};
    /// Messages delivered exactly once, over every execution.
    std::uint64_t delivered{0};
    /// Operation failures, each prefixed by its spec name.
    std::vector<std::string> violations;
    /// Broken checks that make the run itself wrong (as opposed to
    /// counted operation failures).
    std::vector<std::string> errors;

    /// CRC-32C over every execution's report / metrics CSV, in order.
    std::uint32_t report_crc{0};
    std::uint32_t metrics_crc{0};

    count_map counts;
    std::vector<span> spans;
};

/// Runs `w` once. `traced` drains through engine::step() and charges
/// each step to the class it advanced; otherwise run_context::run().
run_result run_workload(const workload& w, bool traced);

} // namespace bench
