// receiver.hpp — MMTP receiving endpoint with nearest-buffer recovery.
//
// The receiver delivers datagrams to the application as they arrive
// (message-based, no head-of-line blocking — Req 7). For streams in a
// loss-recoverable mode it tracks sequence numbers per (experiment,
// epoch), detects gaps after a 200 us reordering grace period, and sends
// NAKs to the retransmission-buffer address carried in the header — the
// pilot's "DTN 2 uses this information to detect loss and prepare a NAK
// to restore the missing packets" (§5.4). It also performs the
// destination timeliness check (pilot mode 3). An arrival costs
// O(log g) in the stream's g open gap records; only the first arrival
// after a give-up filters them all (DESIGN.md §14).
#pragma once

#include "common/histogram.hpp"
#include "common/interval_set.hpp"
#include "mmtp/stack.hpp"
#include "netsim/engine.hpp"
#include "mmtp/timing_profile.hpp"

#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

namespace mmtp::core {

struct receiver_config {
    /// Shared retry/backoff schedule: NAK retry base/cap
    /// (the mode policy sets the base per deployment — it should exceed
    /// the RTT to the buffer), attempt budget and failover threshold.
    /// The retry budget and backoff restart at the fallback buffer;
    /// give-up happens only after a further max_attempts there.
    timing_profile timing{};
};

struct receiver_stats {
    std::uint64_t datagrams{0};
    std::uint64_t bytes{0};
    std::uint64_t duplicates{0};
    std::uint64_t recovered{0};      // datagrams that arrived after a NAK
    std::uint64_t naks_sent{0};
    std::uint64_t nak_ranges_sent{0};
    std::uint64_t nak_retries{0};    // NAK re-sends (attempt 2+, backed off)
    std::uint64_t buffer_failovers{0}; // streams switched to the fallback
    std::uint64_t buffer_failbacks{0}; // streams returned to a revived primary
    std::uint64_t given_up{0};       // sequences abandoned after retries
    std::uint64_t aged_on_arrival{0}; // deadline already exceeded (flag/age)
    /// Arrivals whose stamped policy epoch (cfg_id) differed from the
    /// previous arrival of the same experiment — runtime mode shifts
    /// (and stragglers of the old epoch) observed at the destination.
    std::uint64_t mode_shifts_seen{0};
    /// Completed streams retired by prune_idle() — long-run memory stays
    /// bounded instead of growing one stream_state per (experiment,
    /// epoch) forever.
    std::uint64_t streams_retired{0};
    histogram age_us;                 // age distribution of arrivals
    histogram recovery_latency_us;    // gap detected -> gap filled
};

class receiver {
public:
    using datagram_cb = std::function<void(const delivered_datagram&)>;
    /// (experiment, epoch, sequence) that was abandoned as unrecoverable.
    using loss_cb = std::function<void(wire::experiment_id, std::uint16_t, std::uint64_t)>;

    receiver(stack& st, receiver_config cfg = {});

    void set_on_datagram(datagram_cb cb) { on_datagram_ = std::move(cb); }
    void set_on_loss(loss_cb cb) { on_loss_ = std::move(cb); }

    /// Alternate retransmission-buffer address NAKs fail over to when
    /// the header-carried primary stops answering. Typically learned
    /// from a buffer advert's secondary_addr.
    void set_fallback_buffer(wire::ipv4_addr addr) { fallback_buffer_ = addr; }
    wire::ipv4_addr fallback_buffer() const { return fallback_buffer_; }

    /// A buffer at `addr` (re-)announced itself — typically a revived
    /// node's re-advertisement. Streams that had failed over away from
    /// it fail *back*: the sticky failed_over flag clears, retry budgets
    /// and backoff reset, and outstanding gaps are re-probed against the
    /// revived primary at the base interval.
    void note_buffer_available(wire::ipv4_addr addr);

    const receiver_stats& stats() const { return stats_; }

    /// Interned flight-recorder site id for deliver/NAK/failover records
    /// (0 = unnamed).
    void set_trace_site(std::uint32_t site) { trace_site_ = site; }

    /// Sequences currently believed missing across all streams.
    std::uint64_t outstanding_gaps() const;

    /// Streams with live sequence state (not yet retired).
    std::size_t stream_count() const { return streams_.size(); }

    /// Retires streams that are complete (no unresolved sequences, no
    /// pending gap check) and have been idle for at least `idle_for`.
    /// Returns the number retired (also accumulated in
    /// stats().streams_retired). Only complete streams qualify, so no
    /// NAK-requested retransmission can still be in flight toward a
    /// retired stream; pick `idle_for` above the reorder/pacing horizon
    /// so a straggling duplicate cannot arrive after its dedup state is
    /// gone. Callers (scenario drivers) invoke this periodically.
    std::size_t prune_idle(sim_duration idle_for);

    /// Policy epoch stamped on the most recent arrival of `experiment`
    /// (0 if none seen yet).
    std::uint8_t last_policy_epoch(wire::experiment_id experiment) const
    {
        auto it = policy_epochs_.find(experiment);
        return it == policy_epochs_.end() ? 0 : it->second;
    }

private:
    struct stream_key {
        wire::experiment_id experiment;
        std::uint16_t epoch;
        auto operator<=>(const stream_key&) const = default;
    };
    struct stream_key_hash {
        std::size_t operator()(const stream_key& k) const
        {
            // splitmix64 over the packed (experiment, epoch) pair: cheap,
            // and avalanches the low-entropy experiment ids across buckets.
            std::uint64_t x =
                (static_cast<std::uint64_t>(k.experiment) << 16) | k.epoch;
            x += 0x9e3779b97f4a7c15ull;
            x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
            x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
            return static_cast<std::size_t>(x ^ (x >> 31));
        }
    };
    struct gap_state {
        sim_time first_detected;
        sim_time last_nak{sim_time::zero()};
        std::uint32_t attempts{0};
    };
    struct stream_state {
        interval_set received;
        std::uint64_t base{0};     // everything below is resolved
        std::uint64_t highest{0};  // highest sequence seen + 1
        wire::ipv4_addr buffer_addr{0};
        bool failed_over{false};   // NAKs now target the fallback buffer
        // Keyed by gap start. After each arrival every record's key is
        // >= base and not yet received.
        std::map<std::uint64_t, gap_state> gaps;
        // A give-up since the last arrival marked recorded keys received.
        bool gave_up{false};
        bool check_scheduled{false};
        // Pending gap-check timer: cancelled when data closes every gap
        // before the grace period ends (the check would fire dead).
        netsim::timer_handle check_timer;
        sim_time last_activity{sim_time::zero()};
    };

    void on_data(delivered_datagram&& d);
    void on_flush(const wire::stream_flush_body& f);
    void schedule_check(const stream_key& k, sim_duration delay);
    void run_check(const stream_key& k);
    sim_duration retry_interval(std::uint32_t attempts) const;
    /// Lookup-or-create that keeps stream_order_ in sync.
    stream_state& stream(const stream_key& k);

    stack& stack_;
    receiver_config cfg_;
    receiver_stats stats_;
    // Per-packet stream lookup is hashed (O(1) at soak stream counts).
    // The hashed table is never iterated: every order-observable walk
    // (failback trace records, gap sums) goes through stream_order_,
    // the first-seen insertion order, which is seed-deterministic.
    std::unordered_map<stream_key, stream_state, stream_key_hash> streams_;
    std::vector<stream_key> stream_order_;
    std::unordered_map<wire::experiment_id, std::uint8_t> policy_epochs_;
    wire::ipv4_addr fallback_buffer_{0};
    std::uint32_t trace_site_{0};
    datagram_cb on_datagram_;
    loss_cb on_loss_;
};

} // namespace mmtp::core
