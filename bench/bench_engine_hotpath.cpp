// bench_engine_hotpath.cpp — engine + packet hot-path microbenchmark.
//
// Phases, all pure simulator hot path (no protocol stacks):
//
//   1. "churn": a set of self-rescheduling timers with coprime periods —
//      measures raw event throughput of the scheduler heap.
//   2. "cancel churn": schedule-then-cancel pairs — prices timer
//      cancellation (the supersede path RTO/pacing timers take).
//   3. "forward": packets with realistic 64-byte serialized headers pushed
//      through a 3-hop chain (src → r1 → r2 → sink) of store-and-forward
//      relays — measures the per-packet event path and counts heap
//      allocations per packet in steady state via a global operator new
//      hook. Runs at burst=1 (classic one-event-per-packet path) and at
//      the configured burst size (default 32: one pump event per sending
//      instant, one arrival event per burst), each bare and with a flight
//      recorder installed, to price the tracing hooks on the hot path
//      (still zero allocations).
//
// Flags: --burst=N sets the headline burst size; --check exits nonzero
// when any forward variant allocates on the steady-state path (the CI
// perf-smoke invariant — allocation-freedom, not wall-clock).
//
// Emits machine-readable JSON to BENCH_engine.json (and stdout) so the
// perf trajectory is tracked across PRs. The `baseline` block holds the
// numbers recorded on the pre-change engine (std::priority_queue +
// std::function + vector-backed headers, commit e8b25ab) on the same
// machine class; `current` is measured at runtime.

#include "common/trace.hpp"
#include "netsim/engine.hpp"
#include "netsim/network.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>

// ---------------------------------------------------------------- alloc hook

static std::atomic<std::uint64_t> g_allocs{0};

void* operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n)) return p;
    throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mmtp;
using namespace mmtp::netsim;
using namespace mmtp::literals;

double seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

// ------------------------------------------------------------------- churn

struct churn_timer {
    engine* e;
    std::uint64_t left;
    sim_duration period;

    void fire()
    {
        if (left-- == 0) return;
        e->schedule_in(period, [this] { fire(); });
    }
};

struct churn_result {
    std::uint64_t events;
    double events_per_sec;
};

churn_result run_churn()
{
    constexpr int timers = 64;
    constexpr std::uint64_t fires_per_timer = 100000;

    engine e;
    std::vector<churn_timer> ts;
    ts.reserve(timers);
    for (int i = 0; i < timers; ++i) {
        // Coprime-ish periods keep the scheduler genuinely reordering.
        ts.push_back(churn_timer{&e, fires_per_timer, sim_duration{977 + 37 * i}});
    }
    for (auto& t : ts) e.schedule_in(t.period, [&t] { t.fire(); });

    const auto t0 = std::chrono::steady_clock::now();
    const auto executed = e.run();
    const double dt = seconds_since(t0);
    return {executed, static_cast<double>(executed) / dt};
}

/// The supersede pattern (a backpressure signal extending a pending
/// recovery timer, reordered data voiding a gap check): every 100 ns a
/// new 10 µs timer replaces a pending one, so each timer is cancelled
/// before it can fire. Cancelled closures are destroyed at cancel();
/// their keys reap silently at the heap as simulated time advances.
struct cancel_driver {
    engine* e;
    std::uint64_t left;
    timer_handle pending{};

    void fire()
    {
        e->cancel(pending); // no-op on the first round (inactive handle)
        if (left-- == 0) return;
        pending = e->schedule_cancellable_in(sim_duration{10000},
                                             task_class::timer, [] {});
        e->schedule_in(sim_duration{100}, [this] { fire(); });
    }
};

churn_result run_cancel_churn()
{
    constexpr std::uint64_t rounds = 500000;

    engine e;
    cancel_driver d{&e, rounds};
    e.schedule_in(sim_duration{100}, [&d] { d.fire(); });

    const auto t0 = std::chrono::steady_clock::now();
    e.run(); // the last pending timer survives and fires its no-op
    const double dt = seconds_since(t0);
    const auto cancelled = e.profile().timers_cancelled;
    return {cancelled, static_cast<double>(cancelled) / dt};
}

// ----------------------------------------------------------------- forward

/// Store-and-forward relay: everything received leaves via port 0.
/// Burst-aware: a burst forwards packet-by-packet at each packet's exact
/// arrival stamp, so timing matches the per-packet path.
class relay final : public node {
public:
    using node::node;
    void receive(packet&& p, unsigned) override { egress(0).send(std::move(p)); }
    void receive_burst(packet* pkts, unsigned n, unsigned) override
    {
        auto& out = egress(0);
        for (unsigned i = 0; i < n; ++i) out.send_at(pkts[i].stamp, std::move(pkts[i]));
    }
};

/// Terminal sink: counts and discards.
class counter_sink final : public node {
public:
    using node::node;
    void receive(packet&& p, unsigned) override
    {
        received++;
        received_bytes += p.wire_size();
    }
    void receive_burst(packet* pkts, unsigned n, unsigned) override
    {
        received += n;
        for (unsigned i = 0; i < n; ++i) received_bytes += pkts[i].wire_size();
    }
    std::uint64_t received{0};
    std::uint64_t received_bytes{0};
};

struct forward_result {
    std::uint64_t packets;
    std::uint64_t events;
    double events_per_sec;
    double packets_per_sec;
    double allocs_per_packet;
    std::uint64_t raw_allocs;
};

struct injector {
    network* net;
    node* src;
    std::uint64_t left;
    sim_duration period;
    unsigned burst;
    std::vector<std::uint8_t> header_template;

    /// Packet k always enters the link at (k+1)·period regardless of
    /// burst size: one fire hands over `burst` stamped packets and
    /// reschedules after burst·period.
    void fire()
    {
        const sim_time now = net->sim().now();
        auto& out = src->egress(0);
        unsigned b = 0;
        for (; b < burst && left > 0; ++b, --left) {
            packet p;
            p.id = net->ids().next();
            p.headers = header_template; // 64 real header bytes, SBO-sized
            p.virtual_payload = 800;
            const sim_time at = now + sim_duration{static_cast<std::int64_t>(b) * period.ns};
            if (burst > 1)
                out.send_at(at, std::move(p));
            else
                out.send(std::move(p));
        }
        if (left > 0)
            net->sim().schedule_in(sim_duration{static_cast<std::int64_t>(b) * period.ns},
                                   [this] { fire(); });
    }
};

forward_result run_forward(bool traced, unsigned burst)
{
    constexpr std::uint64_t warm_packets = 50000;
    constexpr std::uint64_t measured_packets = 1000000;
    constexpr std::int64_t inject_period_ns = 200;

    network net(42);
    auto& src = net.emplace<relay>("src");
    auto& r1 = net.emplace<relay>("r1");
    auto& r2 = net.emplace<relay>("r2");
    auto& sink = net.emplace<counter_sink>("sink");

    link_config cfg;
    cfg.rate = data_rate::from_gbps(100); // 864 B ≈ 69 ns — keeps queues shallow
    cfg.propagation = 500_ns;
    cfg.burst = burst;
    net.connect_simplex(src, r1, cfg);
    net.connect_simplex(r1, r2, cfg);
    net.connect_simplex(r2, sink, cfg);

    // Traced variant: the recorder's ring is preallocated here, before
    // the measured window; emitting must stay allocation-free.
    trace::flight_recorder rec;
    std::optional<trace::scoped_recorder> install;
    if (traced) {
        install.emplace(rec);
        src.egress(0).set_trace_site(rec.site("src-r1"));
        r1.egress(0).set_trace_site(rec.site("r1-r2"));
        r2.egress(0).set_trace_site(rec.site("r2-sink"));
    }

    injector inj;
    inj.net = &net;
    inj.src = &src;
    inj.left = warm_packets + measured_packets;
    inj.period = sim_duration{inject_period_ns};
    inj.burst = burst;
    inj.header_template.resize(64);
    for (std::size_t i = 0; i < inj.header_template.size(); ++i)
        inj.header_template[i] = static_cast<std::uint8_t>(i * 7 + 1);

    net.sim().schedule_in(inj.period, [&inj] { inj.fire(); });

    // Warm up: fill pipelines, let every arena/pool reach steady state.
    const sim_time warm_end{static_cast<std::int64_t>(warm_packets) * inject_period_ns +
                            1000000};
    net.sim().run_until(warm_end);
    const std::uint64_t sink_at_warm = sink.received;

    const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t executed = net.sim().run();
    const double dt = seconds_since(t0);
    const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;

    const std::uint64_t delivered = sink.received - sink_at_warm;
    return {delivered, executed, static_cast<double>(executed) / dt,
            static_cast<double>(delivered) / dt,
            static_cast<double>(allocs) / static_cast<double>(delivered), allocs};
}

} // namespace

// Pre-change engine numbers, recorded by running this exact benchmark
// against commit e8b25ab (std::priority_queue + per-event deep copy,
// std::function closures, vector-backed packet headers) on the CI machine
// class. Update alongside any future engine overhaul.
constexpr double baseline_churn_events_per_sec = 12500000;   // 12.1–12.9M over 3 runs
constexpr double baseline_forward_events_per_sec = 10400000; // 10.2–10.7M over 3 runs
constexpr double baseline_forward_packets_per_sec = 1490000; // 1.45–1.53M over 3 runs
constexpr double baseline_allocs_per_packet = 10.6;          // headers + std::function + deque chunks

int main(int argc, char** argv)
{
    unsigned burst = 32;
    bool check = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--burst=", 8) == 0) {
            const long v = std::strtol(argv[i] + 8, nullptr, 10);
            if (v >= 1 && v <= static_cast<long>(mmtp::netsim::max_burst))
                burst = static_cast<unsigned>(v);
        } else if (std::strcmp(argv[i], "--check") == 0) {
            check = true;
        }
    }

    const auto churn = run_churn();
    const auto cancels = run_cancel_churn();
    const auto fwd1 = run_forward(false, 1);
    const auto fwd1_traced = run_forward(true, 1);
    const auto fwd = run_forward(false, burst);
    const auto fwd_traced = run_forward(true, burst);
    const double trace_overhead_pct =
        100.0 * (1.0 - fwd_traced.events_per_sec / fwd.events_per_sec);
    const double burst1_trace_overhead_pct =
        100.0 * (1.0 - fwd1_traced.events_per_sec / fwd1.events_per_sec);

    char buf[8192];
    std::snprintf(
        buf, sizeof buf,
        "{\n"
        "  \"bench\": \"engine_hotpath\",\n"
        "  \"baseline\": {\n"
        "    \"engine\": \"priority_queue+std::function+vector-headers (e8b25ab)\",\n"
        "    \"churn_events_per_sec\": %.0f,\n"
        "    \"forward_events_per_sec\": %.0f,\n"
        "    \"forward_packets_per_sec\": %.0f,\n"
        "    \"forward_allocs_per_packet\": %.2f\n"
        "  },\n"
        "  \"current\": {\n"
        "    \"churn_events\": %llu,\n"
        "    \"churn_events_per_sec\": %.0f,\n"
        "    \"timer_cancellations\": %llu,\n"
        "    \"timer_cancels_per_sec\": %.0f,\n"
        "    \"burst\": %u,\n"
        "    \"forward_packets\": %llu,\n"
        "    \"forward_events\": %llu,\n"
        "    \"forward_events_per_sec\": %.0f,\n"
        "    \"forward_packets_per_sec\": %.0f,\n"
        "    \"forward_allocs_per_packet\": %.4f,\n"
        "    \"traced_forward_events_per_sec\": %.0f,\n"
        "    \"traced_forward_allocs_per_packet\": %.4f,\n"
        "    \"trace_overhead_pct\": %.1f,\n"
        "    \"burst1_forward_events_per_sec\": %.0f,\n"
        "    \"burst1_forward_packets_per_sec\": %.0f,\n"
        "    \"burst1_forward_allocs_per_packet\": %.4f,\n"
        "    \"burst1_trace_overhead_pct\": %.1f\n"
        "  }\n"
        "}\n",
        baseline_churn_events_per_sec, baseline_forward_events_per_sec,
        baseline_forward_packets_per_sec, baseline_allocs_per_packet,
        static_cast<unsigned long long>(churn.events), churn.events_per_sec,
        static_cast<unsigned long long>(cancels.events), cancels.events_per_sec,
        burst, static_cast<unsigned long long>(fwd.packets),
        static_cast<unsigned long long>(fwd.events), fwd.events_per_sec,
        fwd.packets_per_sec, fwd.allocs_per_packet, fwd_traced.events_per_sec,
        fwd_traced.allocs_per_packet, trace_overhead_pct, fwd1.events_per_sec,
        fwd1.packets_per_sec, fwd1.allocs_per_packet, burst1_trace_overhead_pct);

    std::fputs(buf, stdout);
    if (std::FILE* f = std::fopen("BENCH_engine.json", "w")) {
        std::fputs(buf, f);
        std::fclose(f);
    }

    if (check) {
        const bool leak = fwd.allocs_per_packet > 0.0 || fwd_traced.allocs_per_packet > 0.0 ||
                          fwd1.allocs_per_packet > 0.0 || fwd1_traced.allocs_per_packet > 0.0;
        if (leak) {
            std::fprintf(stderr,
                         "CHECK FAILED: steady-state allocs: burst=%u bare=%llu "
                         "traced=%llu; burst=1 bare=%llu traced=%llu\n",
                         burst, static_cast<unsigned long long>(fwd.raw_allocs),
                         static_cast<unsigned long long>(fwd_traced.raw_allocs),
                         static_cast<unsigned long long>(fwd1.raw_allocs),
                         static_cast<unsigned long long>(fwd1_traced.raw_allocs));
            return 1;
        }
        std::fputs("check passed: forward_allocs_per_packet == 0 in all variants\n",
                   stdout);
    }
    return 0;
}
