#include "scenario/campaign.hpp"

#include <algorithm>

namespace mmtp::scenario::campaign {

namespace {

/// splitmix64 — tiny, well-mixed, and identical on every platform
/// (std:: distributions are not guaranteed cross-implementation).
struct rng {
    std::uint64_t state;

    std::uint64_t next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /// Uniform-ish integer in [lo, hi] (modulo bias is irrelevant here —
    /// the campaign needs coverage, not statistics).
    std::uint64_t range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + next() % (hi - lo + 1);
    }

    bool coin() { return (next() & 1u) != 0; }

    template <class T, std::size_t N>
    T pick(const T (&choices)[N])
    {
        return choices[next() % N];
    }
};

bool topology_sweeps_policy(const std::string& t)
{
    return t == "shapeshift" || t == "soak";
}

bool topology_sweeps_trace(const std::string& t)
{
    return t == "chaos" || t == "overload" || t == "shapeshift";
}

bool spec_sweeps_persist(const scenario_spec& s)
{
    // Only chaos has the persistence toggle, and a kill-and-revive
    // script forces it on (make_chaos creates the store regardless).
    return s.topology == "chaos" && s.chaos.revive_at.ns == 0;
}

/// The matrix point the spec itself encodes (collapsed-axis values).
axes axes_of(const scenario_spec& s)
{
    axes ax;
    if (s.topology == "shapeshift")
        ax.closed_loop = s.shapeshift.policy == control::mode_preset::closed_loop;
    else if (s.topology == "soak")
        ax.closed_loop = s.soak.policy == control::mode_preset::closed_loop;
    if (s.topology == "chaos") ax.trace = s.chaos.trace;
    else if (s.topology == "overload") ax.trace = s.overload.trace;
    else if (s.topology == "shapeshift") ax.trace = s.shapeshift.trace;
    if (s.topology == "chaos") ax.persist = s.chaos.persist;
    return ax;
}

} // namespace

std::string axes::label() const
{
    return std::string("policy=") + (closed_loop ? "closed_loop" : "static")
        + " trace=" + (trace ? "on" : "off")
        + " persist=" + (persist ? "on" : "off");
}

std::vector<axes> matrix_for(const scenario_spec& spec, const options& opt)
{
    const axes base = axes_of(spec);
    if (!opt.matrix) return {base};

    const auto values = [](bool sweep, bool fixed) {
        return sweep ? std::vector<bool>{true, false} : std::vector<bool>{fixed};
    };
    const auto policies =
        values(topology_sweeps_policy(spec.topology), base.closed_loop);
    const auto traces = values(topology_sweeps_trace(spec.topology), base.trace);
    const auto persists = values(spec_sweeps_persist(spec), base.persist);

    std::vector<axes> out;
    for (bool pol : policies)
        for (bool tr : traces)
            for (bool pe : persists) {
                axes ax = base;
                ax.closed_loop = pol;
                ax.trace = tr;
                ax.persist = pe;
                out.push_back(ax);
            }
    return out;
}

scenario_spec apply_axes(const scenario_spec& spec, const axes& ax)
{
    scenario_spec s = spec;
    const auto preset = ax.closed_loop ? control::mode_preset::closed_loop
                                       : control::mode_preset::static_preset;
    s.shapeshift.policy = preset;
    s.soak.policy = preset;
    s.chaos.trace = ax.trace;
    s.overload.trace = ax.trace;
    s.shapeshift.trace = ax.trace;
    if (spec_sweeps_persist(spec)) s.chaos.persist = ax.persist;
    return s;
}

namespace {

struct run_capture {
    std::string report_csv;
    std::string metrics_csv;
    dsl_driver::acceptance accepted;
    std::vector<std::string> reconciliation_failures;
};

run_capture execute(const scenario_spec& spec)
{
    run_capture cap;
    dsl_driver d(spec);
    d.run();
    telemetry::metrics_registry reg;
    auto table = d.report(reg);
    cap.report_csv = table.csv();
    cap.metrics_csv = reg.to_csv();
    cap.accepted = d.accept();

    // Per-link stats reconciliation across the whole topology: every
    // packet the serializer dequeued either went onto the wire or was
    // dropped by the random-loss process (down-drops happen before the
    // queue, so faults never perturb the identity).
    const auto& nodes = d.network().nodes();
    for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
        const auto& node = *nodes[ni];
        for (unsigned p = 0; p < node.port_count(); ++p) {
            const auto& ls = node.egress(p).stats();
            const auto& qs = node.egress(p).queue_statistics();
            if (ls.tx_packets + ls.dropped_random != qs.dequeued)
                cap.reconciliation_failures.push_back(
                    "link reconciliation broken at node " + std::to_string(ni)
                    + " port " + std::to_string(p) + ": tx "
                    + std::to_string(ls.tx_packets) + " + random_drops "
                    + std::to_string(ls.dropped_random) + " != dequeued "
                    + std::to_string(qs.dequeued));
        }
    }
    return cap;
}

} // namespace

cell_result run_cell(const scenario_spec& spec, const axes& ax)
{
    cell_result cell;
    cell.ax = ax;
    const scenario_spec s = apply_axes(spec, ax);

    const run_capture first = execute(s);
    cell.accepted = first.accepted;

    if (!spec.lossy && !first.accepted.whole)
        cell.failures.push_back(
            "not whole: delivered " + std::to_string(first.accepted.delivered)
            + " of " + std::to_string(first.accepted.expected) + ", given up "
            + std::to_string(first.accepted.given_up) + ", outstanding gaps "
            + std::to_string(first.accepted.outstanding_gaps));
    if (first.accepted.duplicates != 0)
        cell.failures.push_back("duplicates delivered: "
                                + std::to_string(first.accepted.duplicates));
    for (const auto& f : first.reconciliation_failures) cell.failures.push_back(f);

    // Same-seed rerun: the telemetry bytes must match exactly.
    const run_capture second = execute(s);
    if (second.report_csv != first.report_csv)
        cell.failures.push_back("report CSV differs between same-seed runs");
    if (second.metrics_csv != first.metrics_csv)
        cell.failures.push_back("metrics CSV differs between same-seed runs");

    cell.passed = cell.failures.empty();
    return cell;
}

outcome run_scenario(const scenario_spec& spec, const options& opt)
{
    outcome out;
    out.name = spec.name.empty() ? spec.topology : spec.name;
    out.topology = spec.topology;
    out.passed = true;
    for (const axes& ax : matrix_for(spec, opt)) {
        out.cells.push_back(run_cell(spec, ax));
        if (!out.cells.back().passed) out.passed = false;
    }
    return out;
}

// --- random scenario generation -----------------------------------------

scenario_spec generate(std::uint64_t seed)
{
    rng r{seed};
    scenario_spec s;
    s.name = "random-" + std::to_string(seed);

    // Soak appears less often: it is an order of magnitude more work
    // per run than the single-stream drills.
    static const char* const topologies[] = {"pilot", "today",      "chaos",
                                             "chaos", "shapeshift", "shapeshift",
                                             "overload", "soak"};
    s.topology = topologies[r.next() % 8];

    if (s.topology == "pilot") {
        auto& o = s.pilot;
        o.records = r.range(200, 1500);
        o.frames_per_record = static_cast<std::uint32_t>(r.range(4, 12));
        static const double losses[] = {0.0, 0.005, 0.01, 0.02};
        o.pilot.wan_loss = r.pick(losses);
        o.pilot.wan_delay = sim_duration{std::int64_t(r.range(1, 10)) * 1000000};
        o.pilot.priority_queues = r.coin();
        o.pilot.sequence_at_dtn = r.next() % 4 == 0;
    } else if (s.topology == "today") {
        auto& o = s.today;
        s.lossy = true; // no recovery in the status-quo pipeline
        o.messages = r.range(100, 300);
        o.message_bytes = static_cast<std::uint32_t>(r.range(2000, 8000));
        o.message_interval = sim_duration{std::int64_t(r.range(5, 20)) * 1000};
        static const double losses[] = {0.0, 0.001};
        o.today.wan_loss = r.pick(losses);
        o.today.tuned = r.coin();
    } else if (s.topology == "chaos") {
        auto& c = s.chaos;
        c.messages = r.range(400, 1200);
        c.message_bytes = static_cast<std::uint32_t>(r.range(2048, 8192));
        c.message_interval = sim_duration{std::int64_t(r.range(3, 6)) * 1000};
        // The fault must land mid-transfer and the flush after the tail.
        const std::int64_t span =
            std::int64_t(c.messages) * c.message_interval.ns;
        c.fault_at = sim_time{chaos_first_message.ns + span / 3};
        c.flush_at = sim_time{chaos_first_message.ns + span + 5000000};
        c.trace = r.coin();
        c.persist = r.coin();
    } else if (s.topology == "shapeshift") {
        auto& c = s.shapeshift;
        c.messages = r.range(800, 2500);
        c.message_interval = sim_duration{std::int64_t(r.range(3, 6)) * 1000};
        const std::int64_t span =
            std::int64_t(c.messages) * c.message_interval.ns;
        // The burst degrades the span while traffic is flowing.
        c.burst_at = sim_time{shapeshift_first_message.ns + span / 4};
        c.burst_duration = sim_duration{std::int64_t(r.range(1, 2)) * 1000000};
        static const double bers[] = {0.00001, 0.00002, 0.00003};
        c.burst_ber = r.pick(bers);
        const std::int64_t flush = shapeshift_first_message.ns + span + 1000000;
        if (flush > c.flush_at.ns) c.flush_at = sim_time{flush};
        if (c.flush_at.ns + 25000000 > c.poll_until.ns)
            c.poll_until = sim_time{c.flush_at.ns + 25000000};
        c.policy = r.coin() ? control::mode_preset::closed_loop
                            : control::mode_preset::static_preset;
        c.trace = r.coin();
    } else if (s.topology == "overload") {
        // The overload drill's control loops are tuned as a system;
        // the fuzz varies the offered window, not the loop constants.
        auto& c = s.overload;
        c.messages = r.range(4000, 6000);
        c.trace = r.coin();
    } else if (s.topology == "soak") {
        auto& c = s.soak;
        c = soak_smoke_config();
        c.slices_per_experiment = static_cast<unsigned>(r.range(2, 4));
        c.messages_per_stream = r.range(150, 400);
        c.message_interval = sim_duration{std::int64_t(r.range(150, 300)) * 1000};
        // Random non-empty experiment mix, with occasional per-experiment
        // count overrides.
        c.experiment_mask = static_cast<std::uint32_t>(r.range(1, 31));
        for (std::size_t i = 0; i < 5; ++i)
            if ((c.experiment_mask >> i & 1u) != 0 && r.next() % 4 == 0)
                c.experiment_messages[i] = r.range(100, 400);
        // Keep the flush/prune/end tail behind the slowest stream.
        std::uint64_t longest = 0;
        for (std::size_t i = 0; i < 5; ++i) {
            if ((c.experiment_mask >> i & 1u) == 0) continue;
            const std::uint64_t per = c.experiment_messages[i] != 0
                ? c.experiment_messages[i]
                : c.messages_per_stream;
            longest = std::max(longest, per);
        }
        const std::int64_t tail = c.first_message.ns
            + std::int64_t(longest) * c.message_interval.ns;
        if (tail + 5000000 > c.flush_at.ns) {
            c.flush_at = sim_time{tail + 5000000};
            c.prune_from = sim_time{c.flush_at.ns + 13000000};
            c.end_at = sim_time{c.prune_from.ns + 22000000};
            c.churn_until = sim_time{std::min(c.churn_until.ns, c.flush_at.ns)};
        }
        c.policy = r.coin() ? control::mode_preset::closed_loop
                            : control::mode_preset::static_preset;
    }

    s.set_seed(r.range(1, 1u << 20));
    return s;
}

} // namespace mmtp::scenario::campaign
