#include "netsim/engine.hpp"

#include <chrono>
#include <limits>

namespace mmtp::netsim {

const char* task_class_name(task_class c)
{
    switch (c) {
    case task_class::generic: return "generic";
    case task_class::timer: return "timer";
    case task_class::link_tx: return "link_tx";
    case task_class::link_arrival: return "link_arrival";
    case task_class::pipeline: return "pipeline";
    case task_class::protocol: return "protocol";
    case task_class::control: return "control";
    }
    return "?";
}

namespace {
double seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}
} // namespace

std::uint64_t engine::run()
{
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t n = 0;
    while (step()) ++n;
    // Drained: every key <= now has been dispatched, reserved ones included.
    pos_seq_ = std::numeric_limits<std::uint64_t>::max();
    profile_.wall_seconds += seconds_since(t0);
    return n;
}

std::uint64_t engine::run_until(sim_time until)
{
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t n = 0;
    sim_time at;
    while (next_at(at) && at <= until) {
        step();
        ++n;
    }
    // Every key <= until has been dispatched, reserved ones included.
    if (now_ <= until) {
        now_ = until;
        pos_seq_ = std::numeric_limits<std::uint64_t>::max();
    }
    profile_.wall_seconds += seconds_since(t0);
    return n;
}

} // namespace mmtp::netsim
