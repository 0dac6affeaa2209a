#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <utility>

namespace bench {

namespace {

/// splitmix64: identical on every platform (no std:: distributions).
struct rng {
    std::uint64_t state;

    std::uint64_t next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    std::uint64_t range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + next() % (hi - lo + 1);
    }

    template <class T>
    void shuffle(std::vector<T>& v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[next() % i]);
    }
};

/// `k` draws from [lo, hi], one from each of k equal strata, shuffled.
/// Every cell still lands anywhere in the range, but the total over the
/// k cells barely moves with the seed, so run time does not either.
std::vector<std::uint64_t> strata(rng& r, std::size_t k, std::uint64_t lo, std::uint64_t hi)
{
    std::vector<std::uint64_t> out;
    const std::uint64_t span = hi - lo + 1;
    for (std::size_t j = 0; j < k; ++j) {
        const std::uint64_t a = lo + span * j / k;
        const std::uint64_t b = lo + span * (j + 1) / k;
        out.push_back(b > a ? r.range(a, b - 1) : a);
    }
    r.shuffle(out);
    return out;
}

/// `k` indices into `n` choices, each used floor(k/n) or ceil(k/n)
/// times, shuffled.
std::vector<std::size_t> balanced(rng& r, std::size_t k, std::size_t n)
{
    std::vector<std::size_t> out;
    const std::size_t offset = r.next() % n;
    for (std::size_t j = 0; j < k; ++j) out.push_back((offset + j) % n);
    r.shuffle(out);
    return out;
}

/// Line-oriented scenario text, one section at a time.
class text {
public:
    text& section(const char* name)
    {
        if (!out_.empty()) out_ += '\n';
        out_ += '[';
        out_ += name;
        out_ += "]\n";
        return *this;
    }
    text& key(const char* k, const std::string& v)
    {
        out_ += k;
        out_ += " = ";
        out_ += v;
        out_ += '\n';
        return *this;
    }
    text& key(const char* k, std::uint64_t v) { return key(k, std::to_string(v)); }
    text& ns(const char* k, std::uint64_t v) { return key(k, std::to_string(v) + "ns"); }
    text& flag(const char* k, bool v) { return key(k, v ? "true" : "false"); }
    const std::string& str() const { return out_; }

private:
    std::string out_;
};

text header(const std::string& name, const char* topology, std::uint64_t seed, bool lossy,
            std::uint64_t burst)
{
    text t;
    t.section("scenario")
        .key("name", name)
        .key("topology", topology)
        .key("seed", seed)
        .flag("lossy", lossy)
        .key("link_burst", burst);
    t.section("engine").key("shards", 1);
    return t;
}

constexpr std::uint64_t ms = 1000000;
constexpr std::uint64_t us = 1000;

} // namespace

// --- soak-1m --------------------------------------------------------------
//
// Why: the paper's integration claim and the ROADMAP headline — five
// Table-1 experiments × 4 slices × 50,000 = 1,000,000 messages sharing
// two WAN spans, two DTNs and one programmable element under the full
// storm, exactly as `soak_drill` runs without --smoke. The per-packet
// layers do nearly all the work. Traced split of the drain (4-vCPU Xeon
// VM, 10.7M events): link arrivals (pnet ingress, mmtp receiver and
// buffer service, dtn store) 68%, generic sender emission chains 15%,
// link transmissions 11%, pipeline egress 6%; control 0.1%, protocol and
// timer events under 0.01%. Parse + build is sub-millisecond (the soak
// schedules its traffic lazily) and export about 13 ms.
// Left out: shards > 1 — sharded runs wait for the ROADMAP's sharding
// verdict.

namespace {

/// The soak knobs that differ between soak-1m and the campaign's soak
/// cells; soak_text writes every other key at soak_config's default.
struct soak_knobs {
    std::string name;
    std::uint64_t seed{0};
    std::uint64_t burst{1};
    std::uint64_t slices{4};
    std::uint64_t per_stream{50000};
    std::uint64_t interval_ns{2 * us};
    std::array<std::string, 5> experiments{"on", "on", "on", "on", "on"};
    const char* ber{"0.000002"};
    std::uint64_t occupancy_high{96ull << 20};
    std::uint64_t occupancy_low{32ull << 20};
    std::uint64_t churn_interval{200 * us};
    std::uint64_t chunk_records{256};
    bool closed_loop{true};
    std::uint64_t flush_at{105 * ms};
    std::uint64_t prune_from{118 * ms};
    std::uint64_t end_at{140 * ms};
    std::uint64_t churn_until{90 * ms};
};

/// soak_smoke_config() as knobs: 10k messages over the same ~100 ms
/// span, with the watermarks, BERs, churn and chunking rescaled.
soak_knobs smoke_knobs(std::string name, std::uint64_t seed, std::uint64_t burst)
{
    soak_knobs k;
    k.name = std::move(name);
    k.seed = seed;
    k.burst = burst;
    k.per_stream = 500;
    k.interval_ns = 200 * us;
    k.ber = "0.0001";
    k.occupancy_high = 768ull << 10;
    k.occupancy_low = 256ull << 10;
    k.churn_interval = 500 * us;
    k.chunk_records = 32;
    return k;
}

std::string soak_text(const soak_knobs& k)
{
    static const char* const names[] = {"cms", "dune", "ecce", "mu2e", "rubin"};
    text t = header(k.name, "soak", k.seed, false, k.burst);
    t.section("traffic")
        .key("slices_per_experiment", k.slices)
        .key("messages_per_stream", k.per_stream)
        .key("message_bytes", 512)
        .ns("message_interval", k.interval_ns)
        .ns("first_message", 100 * us);
    t.section("experiments");
    for (std::size_t e = 0; e < 5; ++e) t.key(names[e], k.experiments[e]);
    t.section("links")
        .key("wan_rate", "100000000000bps")
        .ns("wan_delay", 1 * ms)
        .key("wan_queue", "33554432b");
    t.section("faults")
        .ns("burst1_at", 20 * ms)
        .ns("burst1_duration", 2 * ms)
        .key("burst1_ber", k.ber)
        .ns("dtn2_down_at", 30 * ms)
        .ns("dtn2_up_at", 40 * ms)
        .ns("wan_down_at", 45 * ms)
        .ns("wan_up_at", 55 * ms)
        .ns("burst2_at", 70 * ms)
        .ns("burst2_duration", 2 * ms)
        .key("burst2_ber", k.ber);
    t.section("policy")
        .key("preset", k.closed_loop ? "closed_loop" : "static")
        .ns("poll_interval", 1 * ms)
        .ns("drain_window", 2 * ms)
        .key("loss_degrade_threshold", 8)
        .key("restore_after_clean_polls", 4);
    t.section("overload")
        .key("dtn1_capacity", "1073741824b")
        .ns("dtn1_retention", 20 * ms)
        .key("occupancy_high", std::to_string(k.occupancy_high) + "b")
        .key("occupancy_low", std::to_string(k.occupancy_low) + "b")
        .ns("pressure_hold", 5 * ms)
        .ns("pressure_poll", 1 * ms)
        .ns("churn_interval", k.churn_interval)
        .ns("churn_hold", 20 * ms)
        .key("churn_rate", "10000000bps")
        .ns("churn_until", k.churn_until)
        .key("trunk_rate", "8000000000bps");
    t.section("recovery")
        .key("max_nak_attempts", 10)
        .key("failover_attempts", 4)
        .ns("flush_at", k.flush_at)
        .ns("prune_from", k.prune_from)
        .ns("prune_interval", 5 * ms)
        .ns("prune_idle_after", 10 * ms)
        .ns("probe_interval", 500 * us)
        .ns("end_at", k.end_at);
    t.section("persistence").key("chunk_records", k.chunk_records);
    return t.str();
}

} // namespace

std::string soak_1m_text(std::uint64_t sim_seed)
{
    soak_knobs k;
    k.name = "soak-1m";
    k.seed = sim_seed;
    return soak_text(k);
}

std::string soak_smoke_text(std::uint64_t sim_seed)
{
    return soak_text(smoke_knobs("soak-smoke", sim_seed, 1));
}

// --- pilot-lossy ----------------------------------------------------------
//
// Why: the §5.4 pilot (Fig. 4) scaled up to 200,000 ICEBERG records, one
// stream crossing the 5 ms WAN at 5% random loss, so NAK recovery from
// DTN1 — the slow path — is about half the drain: the traced drain is
// 1.7–2× the lossless one, the extra almost all in link arrivals (NAK
// fetches, retransmissions). `dtn` is read as well as written, the
// reverse of soak-1m, and build pre-generates every record, so setup_s
// carries real work. Traced split (2.9M events): link arrivals 78%,
// pipeline 9%, link transmissions 8%, protocol timers 5%; build ~60 ms.
// Left out: 10% loss. At 10% every 200k stream ends with give-ups and
// duplicates (2–6 per run), and at 8% some do; at 5% about one stream
// in ten still ends with a give-up and a duplicate, or one record short
// (the pilot has no end-of-stream flush, so a lost tail record is never
// NAKed). See the input variants below.
std::string pilot_lossy_text(std::uint64_t sim_seed, std::uint64_t records)
{
    text t = header("pilot-lossy", "pilot", sim_seed, false, 1);
    t.section("traffic").key("records", records).key("frames_per_record", 10);
    t.section("links")
        .key("daq_rate", "100000000000bps")
        .key("wan_rate", "100000000000bps")
        .ns("wan_delay", 5 * ms)
        .key("wan_loss", "0.05")
        .key("wan_queue", "8388608b");
    t.section("policy")
        .key("deadline_us", 0)
        .flag("priority_queues", true)
        .flag("notifications", true)
        .flag("sequence_at_dtn", false);
    return t.str();
}

// --- campaign-mix ---------------------------------------------------------
//
// Why: the CI fuzz use the ROADMAP wants to scale to hundreds of specs.
// 192 small scenarios across all six topologies (fewer let the few
// costly cells move a run's total by 10%), each run as a campaign
// cell (two same-seed executions, wholeness, duplicate and link-
// reconciliation checks, byte comparison of the report and metrics
// CSVs). Parse, build, export and checks are about a tenth of the wall
// time, and timer, protocol and control events 15% of the 5.5M events —
// set-up, telemetry export and timer handling regress here while staying
// invisible on soak-1m. Traced split of the drain: link arrivals 62%,
// link transmissions 23%, protocol 8%, generic 4%, pipeline, timer and
// control the rest. The overload topology does not scale past its
// drill size (scaled to 200k messages it took a 412 s drain with 76,743
// give-ups and 254 duplicates), so it is measured only through these
// drill-sized cells.
//
// The ranges are campaign::generate's, and so is the topology mix
// (pilot, today, chaos ×2, shapeshift ×2, overload, soak per eight
// cells). The sampling differs on purpose: topologies come in fixed
// proportions and each size knob is drawn once from each of k equal
// strata of its range (k = cells of that topology), so two seeds give
// different cells but nearly the same total work.
//
// Two known failure modes are kept out, because the benchmark measures
// operations that succeed. Both reproduce with `bench_e2e --scenario`:
//   - shapeshift: the heaviest corruption bursts (3 µs message gap at
//     BER 2e-5 or 3e-5, or 4 µs at 3e-5 for 2 ms) deliver duplicates in
//     17–90% of cells; random-34 and random-59 of `campaign_runner` are
//     such cells. Shapeshift cells here draw the gap from [4, 6] µs and
//     the BER from {1e-5, 2e-5} (0 of 1,260 screened cells failed).
//   - pilot: with WAN loss a lost tail record is never NAKed (there is
//     no end-of-stream flush), so about 2% of lossy pilot cells end one
//     record short. Lossy pilot cells declare `lossy = true`, as today
//     cells do; duplicates still fail them.

namespace {

constexpr std::array<const char*, 8> mix_block = {
    "pilot", "today", "chaos", "chaos", "shapeshift", "shapeshift", "overload", "soak"};
constexpr std::array<std::uint64_t, 6> bursts = {1, 2, 4, 8, 16, 32};

/// Per-topology draws for the k cells of one topology.
struct draws {
    rng& r;
    std::size_t k;
    std::vector<std::uint64_t> seeds;
    std::vector<std::size_t> burst;

    draws(rng& gen, std::size_t cells) : r(gen), k(cells)
    {
        for (std::size_t i = 0; i < k; ++i) seeds.push_back(r.range(1, 1u << 20));
        burst = balanced(r, k, bursts.size());
    }
    std::vector<std::uint64_t> span(std::uint64_t lo, std::uint64_t hi)
    {
        return strata(r, k, lo, hi);
    }
    /// span() for the knob that sets a cell's size: the cells that share
    /// a burst value also get draws spread over the whole range. Cost is
    /// not linear in size at every burst (burst-1 overload cells overflow
    /// their queue, and overflow deepens with the offered window), so
    /// this keeps the total steady too.
    std::vector<std::uint64_t> size_span(std::uint64_t lo, std::uint64_t hi)
    {
        std::vector<std::uint64_t> sorted = strata(r, k, lo, hi);
        std::sort(sorted.begin(), sorted.end());
        // Visit cells rank by rank across burst groups, handing out draws
        // in ascending order: each group's cells land in different strata.
        std::vector<std::vector<std::size_t>> groups(bursts.size());
        for (std::size_t i = 0; i < k; ++i) groups[burst[i]].push_back(i);
        std::vector<std::uint64_t> out(k);
        std::size_t next = 0;
        for (std::size_t rank = 0; next < k; ++rank)
            for (const auto& g : groups)
                if (rank < g.size()) out[g[rank]] = sorted[next++];
        return out;
    }
    std::vector<std::size_t> pick(std::size_t n) { return balanced(r, k, n); }
    std::vector<bool> coin()
    {
        std::vector<bool> out;
        for (std::size_t c : balanced(r, k, 2)) out.push_back(c == 0);
        return out;
    }
    text head(const std::string& name, const char* topology, std::size_t i, bool lossy) const
    {
        return header(name, topology, seeds[i], lossy, bursts[burst[i]]);
    }
};

void pilot_cells(rng& r, std::size_t k, std::vector<std::string>& names,
                 std::vector<spec_text>& out)
{
    draws d(r, k);
    static const char* const losses[] = {"0", "0.005", "0.01", "0.02"};
    const auto records = d.size_span(200, 1500);
    const auto frames = d.span(4, 12);
    const auto loss = d.pick(4);
    const auto delay = d.span(1, 10);
    const auto prio = d.coin();
    const auto seq_at_dtn = d.pick(4); // one in four
    for (std::size_t i = 0; i < k; ++i) {
        text t = d.head(names[i], "pilot", i, loss[i] != 0);
        t.section("traffic")
            .key("records", records[i])
            .key("frames_per_record", frames[i]);
        t.section("links").key("wan_loss", losses[loss[i]]).ns("wan_delay", delay[i] * ms);
        t.section("policy")
            .flag("priority_queues", prio[i])
            .flag("sequence_at_dtn", seq_at_dtn[i] == 0);
        out.push_back({names[i], t.str()});
    }
}

void today_cells(rng& r, std::size_t k, std::vector<std::string>& names,
                 std::vector<spec_text>& out)
{
    draws d(r, k);
    static const char* const losses[] = {"0", "0.001"};
    const auto messages = d.size_span(100, 300);
    const auto bytes = d.span(2000, 8000);
    const auto gap = d.span(5, 20);
    const auto loss = d.pick(2);
    const auto tuned = d.coin();
    for (std::size_t i = 0; i < k; ++i) {
        // No recovery in the status-quo pipeline: declared lossy.
        text t = d.head(names[i], "today", i, true);
        t.section("traffic")
            .key("messages", messages[i])
            .key("message_bytes", bytes[i])
            .ns("message_interval", gap[i] * us);
        t.section("links").key("wan_loss", losses[loss[i]]);
        t.section("policy").flag("tuned", tuned[i]);
        out.push_back({names[i], t.str()});
    }
}

void chaos_cells(rng& r, std::size_t k, std::vector<std::string>& names,
                 std::vector<spec_text>& out)
{
    draws d(r, k);
    const auto messages = d.size_span(400, 1200);
    const auto bytes = d.span(2048, 8192);
    const auto gap = d.span(3, 6);
    const auto trace = d.coin();
    const auto persist = d.coin();
    const std::uint64_t first = 100 * us; // chaos_config::first_message
    for (std::size_t i = 0; i < k; ++i) {
        // The fault lands mid-transfer and the flush after the tail.
        const std::uint64_t span = messages[i] * gap[i] * us;
        text t = d.head(names[i], "chaos", i, false);
        t.section("traffic")
            .key("messages", messages[i])
            .key("message_bytes", bytes[i])
            .ns("message_interval", gap[i] * us);
        t.section("faults").ns("fault_at", first + span / 3);
        t.section("recovery").ns("flush_at", first + span + 5 * ms);
        t.section("persistence").flag("persist", persist[i]);
        t.section("trace").flag("enabled", trace[i]);
        out.push_back({names[i], t.str()});
    }
}

void shapeshift_cells(rng& r, std::size_t k, std::vector<std::string>& names,
                      std::vector<spec_text>& out)
{
    draws d(r, k);
    static const char* const bers[] = {"0.00001", "0.00002"};
    const auto messages = d.size_span(800, 2500);
    const auto gap = d.span(4, 6);
    const auto burst_ms = d.span(1, 2);
    const auto ber = d.pick(2);
    const auto closed_loop = d.coin();
    const auto trace = d.coin();
    // shapeshift_config defaults: first_message, flush_at, poll_until.
    const std::uint64_t first = 100 * us;
    for (std::size_t i = 0; i < k; ++i) {
        const std::uint64_t span = messages[i] * gap[i] * us;
        const std::uint64_t flush = std::max<std::uint64_t>(7 * ms, first + span + 1 * ms);
        const std::uint64_t poll_until = std::max<std::uint64_t>(40 * ms, flush + 25 * ms);
        text t = d.head(names[i], "shapeshift", i, false);
        t.section("traffic")
            .key("messages", messages[i])
            .ns("message_interval", gap[i] * us);
        t.section("faults")
            .ns("burst_at", first + span / 4)
            .ns("burst_duration", burst_ms[i] * ms)
            .key("burst_ber", bers[ber[i]]);
        t.section("policy")
            .key("preset", closed_loop[i] ? "closed_loop" : "static")
            .ns("poll_until", poll_until);
        t.section("recovery").ns("flush_at", flush);
        t.section("trace").flag("enabled", trace[i]);
        out.push_back({names[i], t.str()});
    }
}

void overload_cells(rng& r, std::size_t k, std::vector<std::string>& names,
                    std::vector<spec_text>& out)
{
    // The control loops are tuned as a system: vary the offered window,
    // not the loop constants.
    draws d(r, k);
    const auto messages = d.size_span(4000, 6000);
    const auto trace = d.coin();
    for (std::size_t i = 0; i < k; ++i) {
        text t = d.head(names[i], "overload", i, false);
        t.section("traffic").key("messages", messages[i]);
        t.section("trace").flag("enabled", trace[i]);
        out.push_back({names[i], t.str()});
    }
}

void soak_cells(rng& r, std::size_t k, std::vector<std::string>& names,
                std::vector<spec_text>& out)
{
    draws d(r, k);
    const auto slices = d.span(2, 4);
    const auto per_stream = d.size_span(150, 400);
    const auto gap = d.span(150, 300);
    const auto mask = d.span(1, 31);
    const auto closed_loop = d.coin();
    for (std::size_t i = 0; i < k; ++i) {
        soak_knobs s = smoke_knobs(names[i], d.seeds[i], bursts[d.burst[i]]);
        s.slices = slices[i];
        s.per_stream = per_stream[i];
        s.interval_ns = gap[i] * us;
        s.closed_loop = closed_loop[i];
        // A random non-empty experiment mix with occasional per-
        // experiment count overrides; the flush/prune/end tail moves
        // behind the slowest stream.
        std::uint64_t longest = 0;
        for (std::size_t e = 0; e < 5; ++e) {
            if ((mask[i] >> e & 1u) == 0) {
                s.experiments[e] = "off";
                continue;
            }
            std::uint64_t count = per_stream[i];
            if (r.next() % 4 == 0) {
                count = r.range(100, 400);
                s.experiments[e] = std::to_string(count);
            }
            longest = std::max(longest, count);
        }
        const std::uint64_t tail = 100 * us + longest * s.interval_ns;
        if (tail + 5 * ms > s.flush_at) {
            s.flush_at = tail + 5 * ms;
            s.prune_from = s.flush_at + 13 * ms;
            s.end_at = s.prune_from + 22 * ms;
            s.churn_until = std::min(s.churn_until, s.flush_at);
        }
        out.push_back({names[i], soak_text(s)});
    }
}

} // namespace

std::vector<spec_text> campaign_mix_specs(std::uint64_t seed, unsigned cells)
{
    rng r{seed ^ 0x6d69782d63656c6cull};
    // Cell slots in a seeded order; each topology fills its own slots.
    std::vector<const char*> order;
    for (unsigned i = 0; i < cells; ++i) order.push_back(mix_block[i % mix_block.size()]);
    r.shuffle(order);

    std::vector<spec_text> out;
    static const char* const topologies[] = {"pilot", "today", "chaos",
                                             "shapeshift", "overload", "soak"};
    using filler = void (*)(rng&, std::size_t, std::vector<std::string>&,
                            std::vector<spec_text>&);
    static const filler fill[] = {pilot_cells, today_cells, chaos_cells,
                                  shapeshift_cells, overload_cells, soak_cells};
    std::vector<spec_text> by_slot(order.size());
    for (std::size_t t = 0; t < 6; ++t) {
        std::vector<std::size_t> slots;
        std::vector<std::string> names;
        for (std::size_t i = 0; i < order.size(); ++i)
            if (std::string(order[i]) == topologies[t]) {
                slots.push_back(i);
                names.push_back("mix-" + std::to_string(seed) + "-" + std::to_string(i)
                                + "-" + topologies[t]);
            }
        std::vector<spec_text> specs;
        fill[t](r, slots.size(), names, specs);
        for (std::size_t j = 0; j < slots.size(); ++j) by_slot[slots[j]] = std::move(specs[j]);
    }
    return by_slot;
}

// --- input variants -------------------------------------------------------
//
// The benchmark measures operations that succeed, but today's code still
// fails rarely where no knob avoids it. So each workload's seed picks one
// of a fixed list of input variants (the simulation seed of soak-1m and
// pilot-lossy, the generator seed of campaign-mix), each screened to end
// with no failed operation. The variants screening turned away reproduce
// known bugs through `bench_e2e --scenario` (or --print-specs):
//   soak-1m       simulation seeds 1–16 screened, none failed
//   pilot-lossy   simulation seeds 2 and 29 end with a give-up and a
//                 duplicate, seed 18 one record short
//   campaign-mix  generator seeds 1–32 screened; in seeds 2, 9, 11, 16,
//                 22 and 24 one soak cell gives up 1–7 messages (about
//                 one soak cell in a hundred does)
// A change that makes a listed variant fail shows as failed operations.
namespace {
constexpr std::array<std::uint64_t, 16> soak_seeds = {
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
constexpr std::array<std::uint64_t, 16> pilot_seeds = {
    1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17};
constexpr std::array<std::uint64_t, 26> mix_seeds = {
    1, 3, 4, 5, 6, 7, 8, 10, 12, 13, 14, 15, 17,
    18, 19, 20, 21, 23, 25, 26, 27, 28, 29, 30, 31, 32};

template <std::size_t N>
std::uint64_t variant(const std::array<std::uint64_t, N>& variants, std::uint64_t seed)
{
    return variants[seed % N];
}
} // namespace

std::optional<workload> make_workload(const std::string& name, std::uint64_t seed)
{
    workload w;
    w.name = name;
    if (name == "soak-1m") {
        w.specs.push_back({name, soak_1m_text(variant(soak_seeds, seed))});
        w.setup_repeats = 30;
    } else if (name == "pilot-lossy") {
        w.specs.push_back({name, pilot_lossy_text(variant(pilot_seeds, seed), 200000)});
        w.setup_repeats = 4;
    } else if (name == "campaign-mix") {
        w.specs = campaign_mix_specs(variant(mix_seeds, seed), 192);
        w.cells = true;
    } else {
        return std::nullopt;
    }
    return w;
}

} // namespace bench
