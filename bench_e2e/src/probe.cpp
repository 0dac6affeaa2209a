// probe.cpp — the host-speed probe (`bench_e2e --probe`).
//
// The VMs this benchmark runs on drift in speed by up to 2x over minutes
// (other tenants share the last-level cache and memory bandwidth), and
// every workload slows with them. run.py alternates probe processes with
// workload processes and scales the end-to-end timings by the probe's
// median, which cancels most of that drift: the probe is fixed work
// shaped like the simulator's — an event heap, a hash map and random
// reads and writes over a 128 MiB working set — and, living in the
// benchmark, it is identical on every commit the benchmark compares.
#include <chrono>
#include <cstdint>
#include <queue>
#include <unordered_map>
#include <vector>

namespace bench {

double probe_seconds(std::uint64_t& checksum)
{
    struct event {
        std::uint64_t at;
        std::uint64_t seq;
        std::uint32_t slot;
    };
    struct later {
        bool operator()(const event& a, const event& b) const
        {
            return a.at != b.at ? a.at > b.at : a.seq > b.seq;
        }
    };
    constexpr std::size_t cells = std::size_t{16} << 20; // 128 MiB of u64
    constexpr int steps = 1500000;

    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t x = 88172645463325252ull, seq = 0, sink = 0;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::vector<std::uint64_t> memory(cells);
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    std::priority_queue<event, std::vector<event>, later> events;
    for (std::uint32_t i = 0; i < 200000; ++i) events.push({next() & 0xffffff, seq++, i});
    for (int i = 0; i < steps; ++i) {
        const event e = events.top();
        events.pop();
        const std::uint64_t k = next();
        memory[k & (cells - 1)] += e.at;
        sink += memory[(k >> 24) & (cells - 1)];
        table[k & 0xfffff] += e.slot;
        events.push({e.at + (k & 0xffff), seq++, e.slot});
    }
    const auto t1 = std::chrono::steady_clock::now();
    // Printed with the time, so the work cannot be optimised away.
    checksum = sink + table.size();
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace bench
