#include "execute.hpp"

#include "common/crc32c.hpp"
#include "netsim/link.hpp"
#include "pnet/element.hpp"
#include "scenario/dsl.hpp"
#include "telemetry/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <set>
#include <stdexcept>

namespace bench {

using namespace mmtp;

const std::array<const char*, class_count> class_names = {
    "generic", "timer", "link_tx", "link_arrival", "pipeline", "protocol", "control"};
static_assert(class_count == netsim::task_class_count);

namespace {

using steady = std::chrono::steady_clock;

double seconds(steady::duration d)
{
    return std::chrono::duration<double>(d).count();
}

std::uint32_t crc_update(std::uint32_t state, const std::string& s)
{
    return crc32c_update(state, {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

/// Registry rows summed into per-layer counts (all instances and labels).
const std::map<std::string, std::string>& registry_counts()
{
    static const std::map<std::string, std::string> m = {
        {"receiver_naks_sent", "mmtp.naks_sent"},
        {"receiver_nak_retries", "mmtp.nak_retries"},
        {"receiver_recovered", "mmtp.recovered"},
        {"receiver_given_up", "mmtp.given_up"},
        {"receiver_duplicates", "mmtp.duplicates"},
        {"buffer_retransmitted", "mmtp.retransmitted"},
        {"buffer_unavailable", "mmtp.unavailable"},
        {"buffer_relayed", "dtn.relayed"},
        {"buffer_persisted", "dtn.persisted"},
        {"buffer_recovered_records", "dtn.recovered_records"},
        {"buffer_tail_lost", "dtn.tail_lost"},
        {"policy_polls", "control.polls"},
        {"planner_admissions_deferred", "control.admissions_deferred"},
    };
    return m;
}

/// The testbed's buffer services, for DTN peak occupancy.
std::vector<const core::buffer_service*> buffer_services(scenario::dsl_driver& d)
{
    using namespace scenario;
    const std::string& t = d.spec().topology;
    driver& in = d.inner();
    if (t == "pilot") return {static_cast<pilot_driver&>(in).testbed().dtn1_svc.get()};
    if (t == "chaos") {
        auto& tb = static_cast<chaos_driver&>(in).testbed();
        return {tb.buf1_svc.get(), tb.buf2_svc.get()};
    }
    if (t == "overload") return {static_cast<overload_driver&>(in).testbed().buf_svc.get()};
    if (t == "shapeshift")
        return {static_cast<shapeshift_driver&>(in).testbed().dtn1_svc.get()};
    if (t == "soak") {
        auto& tb = static_cast<soak_driver&>(in).testbed();
        return {tb.dtn1_svc.get(), tb.dtn2_svc.get()};
    }
    return {}; // today: UDP ingest, no DTN buffer
}

bool is_peak(const std::string& key)
{
    return key.size() >= 10 && key.compare(key.size() - 10, 10, "peak_bytes") == 0;
}

void merge(count_map& into, const count_map& from)
{
    for (const auto& [k, v] : from) {
        auto& slot = into[k];
        slot = is_peak(k) ? std::max(slot, v) : slot + v;
    }
}

/// What one execution produced and what its checks found.
struct outcome {
    std::uint32_t id{0};
    std::string report_csv;
    std::string metrics_csv;
    std::uint64_t expected{0};  // messages
    std::uint64_t delivered{0}; // messages delivered exactly once
    std::uint64_t failed{0};    // messages lost, duplicated or given up
    std::vector<std::string> violations;
    std::vector<std::string> reconciliation;
    count_map counts;
};

class executor {
public:
    executor(bool traced, run_result& res) : traced_(traced), res_(res) {}

    outcome execute(const spec_text& spec)
    {
        outcome out;
        const std::uint32_t id = out.id = next_exec_++;

        auto t = steady::now();
        auto parsed = scenario::parse_scenario(spec.text);
        if (!parsed)
            throw std::runtime_error(spec.name + ": scenario text rejected: "
                                     + parsed.error.to_string());
        if (parsed.spec->shards() != 1)
            throw std::runtime_error(spec.name + ": spec does not pin shards = 1");
        t = phase(id, spec, "parse", t, res_.parse_s);

        scenario::dsl_driver d(*parsed.spec);
        d.prepare();
        t = phase(id, spec, "build", t, res_.build_s);

        drain(d);
        t = phase(id, spec, "drain", t, res_.drain_s);

        telemetry::metrics_registry reg;
        out.report_csv = d.report(reg).csv();
        out.metrics_csv = reg.to_csv();
        const auto acc = d.accept();
        t = phase(id, spec, "export", t, res_.export_s);

        check(d, *parsed.spec, acc, reg, out);
        phase(id, spec, "check", t, res_.check_s);
        return out;
    }

    /// Times one phase ending now; returns the new phase start.
    steady::time_point phase(std::uint32_t id, const spec_text& spec, const char* name,
                             steady::time_point start, double& total)
    {
        const auto end = steady::now();
        total += seconds(end - start);
        if (traced_)
            res_.spans.push_back(
                {id, spec.name, name, seconds(start - t0_), seconds(end - t0_)});
        return end;
    }

    steady::time_point t0() const { return t0_; }

private:
    void drain(scenario::dsl_driver& d)
    {
        if (!traced_) {
            d.context().run();
            return;
        }
        // One clock read per step: the interval since the previous read
        // is charged to the class whose executed_by_class counter the
        // step advanced. Totals stay in integer ticks until the end.
        netsim::engine& eng = d.context().sim();
        const auto& prof = eng.profile();
        auto seen = prof.executed_by_class;
        std::array<steady::duration, class_count> ticks{};
        auto last = steady::now();
        while (eng.step()) {
            const auto now = steady::now();
            std::size_t c = 0;
            while (c < class_count && prof.executed_by_class[c] == seen[c]) ++c;
            if (c < class_count) {
                seen[c] = prof.executed_by_class[c];
                ticks[c] += now - last;
            }
            last = now;
        }
        for (std::size_t c = 0; c < class_count; ++c) res_.class_s[c] += seconds(ticks[c]);
    }

    void check(scenario::dsl_driver& d, const scenario::scenario_spec& spec,
               const scenario::dsl_driver::acceptance& acc,
               const telemetry::metrics_registry& reg, outcome& out)
    {
        // today reports bytes at its first UDP hop: count messages.
        out.expected = acc.expected;
        out.delivered = acc.delivered;
        if (spec.topology == "today") {
            out.expected /= spec.today.message_bytes;
            out.delivered /= spec.today.message_bytes;
        }
        const std::uint64_t missing =
            out.expected > out.delivered ? out.expected - out.delivered : 0;
        out.failed = std::min(out.expected, std::max(missing, acc.given_up) + acc.duplicates);

        if (!spec.lossy && !acc.whole)
            out.violations.push_back(
                "not whole: delivered " + std::to_string(acc.delivered) + " of "
                + std::to_string(acc.expected) + ", given up " + std::to_string(acc.given_up)
                + ", outstanding gaps " + std::to_string(acc.outstanding_gaps));
        if (acc.duplicates != 0)
            out.violations.push_back("duplicates delivered: "
                                     + std::to_string(acc.duplicates));

        count_map& c = out.counts;
        const auto& prof = d.context().sim().profile();
        c["netsim.events"] = prof.executed;
        for (std::size_t i = 0; i < class_count; ++i)
            c[std::string("netsim.events.") + class_names[i]] = prof.executed_by_class[i];
        c["netsim.timers_cancelled"] = prof.timers_cancelled;

        // Per-link reconciliation: every packet the serializer dequeued
        // went onto the wire or was dropped by the random-loss process.
        const auto& nodes = d.network().nodes();
        for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
            const netsim::node& node = *nodes[ni];
            for (unsigned p = 0; p < node.port_count(); ++p) {
                const auto& ls = node.egress(p).stats();
                const auto& qs = node.egress(p).queue_statistics();
                if (ls.tx_packets + ls.dropped_random != qs.dequeued)
                    out.reconciliation.push_back(
                        "link reconciliation broken at node " + std::to_string(ni) + " port "
                        + std::to_string(p) + ": tx " + std::to_string(ls.tx_packets)
                        + " + random_drops " + std::to_string(ls.dropped_random)
                        + " != dequeued " + std::to_string(qs.dequeued));
                c["netsim.link_tx"] += ls.tx_packets;
                c["netsim.drops.queue_full"] += qs.dropped;
                c["netsim.drops.random_loss"] += ls.dropped_random;
                c["netsim.drops.link_down"] += ls.dropped_down;
                c["netsim.drops.corrupted"] += ls.corrupted;
                c["netsim.queue_peak_bytes"] =
                    std::max(c["netsim.queue_peak_bytes"], qs.peak_bytes);
            }
            if (const auto* sw = dynamic_cast<const pnet::programmable_switch*>(&node)) {
                c["pnet.forwarded"] += sw->stats().forwarded;
                c["pnet.clones"] += sw->stats().clones;
                c["pnet.mode_transitions"] += sw->state().counter("mode_transitions");
            }
        }

        const auto rows = reg.snapshot();
        for (const auto& [metric, key] : registry_counts()) c[key] += 0;
        c["control.reconfigs"] += 0;
        for (const auto& row : rows) {
            if (row.field != "value") continue;
            const std::string base = row.metric.substr(0, row.metric.find('{'));
            const auto v = static_cast<std::uint64_t>(std::max<std::int64_t>(row.value, 0));
            if (base == "policy_reconfigs") {
                if (row.metric.find("phase=committed") != std::string::npos)
                    c["control.reconfigs"] += v;
                continue;
            }
            const auto it = registry_counts().find(base);
            if (it != registry_counts().end()) c[it->second] += v;
        }
        c["dtn.peak_bytes"] = 0;
        for (const auto* b : buffer_services(d))
            c["dtn.peak_bytes"] = std::max(c["dtn.peak_bytes"], b->buffer().stats().peak_bytes);
        c["telemetry.metrics_rows"] = rows.size();
        c["telemetry.csv_bytes"] = out.report_csv.size() + out.metrics_csv.size();
        c["msgs.expected"] = out.expected;
        c["msgs.delivered"] = out.delivered;
    }

    bool traced_;
    run_result& res_;
    steady::time_point t0_{steady::now()};
    std::uint32_t next_exec_{0};
};

double median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

} // namespace

run_result run_workload(const workload& w, bool traced)
{
    run_result res;
    res.workload = w.name;
    res.traced = traced;
    executor ex(traced, res);

    std::uint32_t report_crc = crc32c_init();
    std::uint32_t metrics_crc = crc32c_init();
    auto record = [&](const outcome& o) {
        report_crc = crc_update(report_crc, o.report_csv);
        metrics_crc = crc_update(metrics_crc, o.metrics_csv);
        res.delivered += o.delivered;
        merge(res.counts, o.counts);
    };

    for (const spec_text& spec : w.specs) {
        const outcome first = ex.execute(spec);
        record(first);
        if (!w.cells) {
            // An operation is a message.
            res.attempted += first.expected;
            res.failed += first.failed;
            for (const auto& v : first.violations) res.violations.push_back(spec.name + ": " + v);
            for (const auto& e : first.reconciliation) res.errors.push_back(spec.name + ": " + e);
            continue;
        }
        // An operation is a cell: two same-seed executions, every
        // invariant on both, and byte-identical CSVs.
        const outcome second = ex.execute(spec);
        record(second);
        const auto t = steady::now();
        std::set<std::string> broken;
        for (const outcome* o : {&first, &second}) {
            broken.insert(o->violations.begin(), o->violations.end());
            broken.insert(o->reconciliation.begin(), o->reconciliation.end());
        }
        if (second.report_csv != first.report_csv)
            broken.insert("report CSV differs between same-seed runs");
        if (second.metrics_csv != first.metrics_csv)
            broken.insert("metrics CSV differs between same-seed runs");
        ex.phase(second.id, spec, "compare", t, res.check_s);
        res.attempted += 1;
        if (!broken.empty()) res.failed += 1;
        for (const auto& b : broken) res.violations.push_back(spec.name + ": " + b);
    }
    res.wall_s = seconds(steady::now() - ex.t0());
    res.report_crc = crc32c_finish(report_crc);
    res.metrics_crc = crc32c_finish(metrics_crc);

    // setup_s: the run's own parse + build, and `setup_repeats` more of
    // the same, outside wall_s; the median steadies sub-ms readings.
    std::vector<double> setups{res.parse_s + res.build_s};
    for (unsigned r = 0; r < w.setup_repeats; ++r) {
        const auto t = steady::now();
        for (const spec_text& spec : w.specs) {
            auto parsed = scenario::parse_scenario(spec.text);
            scenario::dsl_driver d(*parsed.spec);
            d.prepare();
        }
        setups.push_back(seconds(steady::now() - t));
    }
    res.setup_s = median(setups);
    return res;
}

} // namespace bench
