#include "mmtp/receiver.hpp"

#include "common/trace.hpp"
#include "netsim/engine.hpp"

#include <algorithm>

namespace mmtp::core {

namespace {
/// Wait before a sequence gap is declared a loss (absorbs reordering).
constexpr sim_duration reorder_grace{200000}; // 200 us
} // namespace

receiver::receiver(stack& st, receiver_config cfg) : stack_(st), cfg_(cfg)
{
    stack_.set_data_sink([this](delivered_datagram&& d) { on_data(std::move(d)); });
    stack_.set_flush_handler(
        [this](const wire::stream_flush_body& f) { on_flush(f); });
}

receiver::stream_state& receiver::stream(const stream_key& k)
{
    auto [it, inserted] = streams_.try_emplace(k);
    if (inserted) stream_order_.push_back(k);
    return it->second;
}

void receiver::on_flush(const wire::stream_flush_body& f)
{
    // End-of-window marker: sequences up to f.next_sequence exist, so any
    // of them we have not seen are losses — including tail losses no
    // later data arrival would ever reveal.
    const stream_key k{f.experiment, f.epoch};
    auto& st = stream(k);
    st.last_activity = stack_.sim().now();
    if (f.next_sequence > st.highest) st.highest = f.next_sequence;
    st.base = st.received.next_missing(st.base);
    if (st.base < st.highest && !st.check_scheduled)
        schedule_check(k, reorder_grace);
}

std::uint64_t receiver::outstanding_gaps() const
{
    std::uint64_t total = 0;
    for (const auto& [k, s] : streams_) {
        (void)k;
        for (const auto& [start, end] : s.received.gaps(s.base, s.highest)) {
            (void)start;
            total += end - start;
        }
    }
    return total;
}

std::size_t receiver::prune_idle(sim_duration idle_for)
{
    const auto now = stack_.sim().now();
    std::size_t retired = 0;
    std::erase_if(stream_order_, [&](const stream_key& k) {
        auto it = streams_.find(k);
        if (it == streams_.end()) return true; // stale index entry
        const auto& st = it->second;
        // Only complete streams retire: every sequence resolved, no gap
        // records, no pending check — so no repair traffic can still be
        // heading our way when the dedup state goes.
        if (st.check_scheduled || !st.gaps.empty() || st.base < st.highest)
            return false;
        if ((now - st.last_activity).ns < idle_for.ns) return false;
        streams_.erase(it);
        ++retired;
        return true;
    });
    stats_.streams_retired += retired;
    return retired;
}

void receiver::on_data(delivered_datagram&& d)
{
    const auto now = stack_.sim().now();
    auto& h = d.hdr;

    // Destination timeliness check (pilot mode 3).
    if (h.timeliness) {
        std::uint32_t age_us = h.timeliness->age_us;
        if (h.timestamp_ns) {
            const auto age_ns = now.ns - static_cast<std::int64_t>(*h.timestamp_ns);
            age_us = age_ns > 0 ? static_cast<std::uint32_t>(age_ns / 1000) : 0;
        }
        stats_.age_us.record(age_us);
        if (h.timeliness->deadline_us > 0
            && (h.timeliness->aged() || age_us > h.timeliness->deadline_us)) {
            stats_.aged_on_arrival++;
        }
    } else if (h.timestamp_ns) {
        const auto age_ns = now.ns - static_cast<std::int64_t>(*h.timestamp_ns);
        stats_.age_us.record(age_ns > 0 ? static_cast<std::uint64_t>(age_ns / 1000) : 0);
    }

    // Cross-epoch tolerance: a control-plane mode shift arrives as a new
    // policy epoch in cfg_id, possibly with a different feature set.
    // Sequence state is keyed by the *stream* epoch (below), so the
    // sequence space continues seamlessly across the shift; here we only
    // observe the transition. A remembered buffer address survives
    // epochs whose rules drop the retransmission field, so gaps opened
    // under an older, recoverable epoch can still be repaired.
    auto pe = policy_epochs_.find(h.experiment);
    if (pe == policy_epochs_.end()) {
        policy_epochs_.emplace(h.experiment, h.m.cfg_id);
    } else if (pe->second != h.m.cfg_id) {
        pe->second = h.m.cfg_id;
        stats_.mode_shifts_seen++;
    }

    if (h.sequencing) {
        const stream_key k{h.experiment, h.sequencing->epoch};
        auto& st = stream(k);
        st.last_activity = now;
        const auto s = h.sequencing->sequence;
        // Track the stream's primary repair point as stamped on-path —
        // but while failed over, the fallback's own retransmissions must
        // not overwrite the remembered primary: its identity is what a
        // revived primary's re-advertisement matches for failback.
        if (h.retransmission
            && !(st.failed_over && h.retransmission->buffer_addr == fallback_buffer_))
            st.buffer_addr = h.retransmission->buffer_addr;

        if (s < st.base || st.received.contains(s)) {
            stats_.duplicates++;
            return; // do not deliver twice
        }

        // Did this arrival fill a tracked gap? (=> it was a recovery)
        if (s < st.highest) {
            auto git = st.gaps.upper_bound(s);
            if (git != st.gaps.begin()) {
                --git;
                stats_.recovered++;
                const auto lat = now - git->second.first_detected;
                stats_.recovery_latency_us.record(
                    lat.ns > 0 ? static_cast<std::uint64_t>(lat.ns / 1000) : 0);
            }
        }

        st.received.insert(s, s + 1);
        if (s + 1 > st.highest) st.highest = s + 1;
        st.base = st.received.next_missing(st.base);
        // Drop the gap records this arrival resolved. After the last
        // arrival every record was >= base and unreceived, and only the
        // new base and s can change that — unless a give-up has since
        // marked recorded keys received, which takes a full filter.
        if (st.gave_up) {
            std::erase_if(st.gaps, [&](const auto& g) {
                return g.first < st.base || st.received.covers(g.first, g.first + 1);
            });
            st.gave_up = false;
        } else {
            st.gaps.erase(st.gaps.begin(), st.gaps.lower_bound(st.base));
            st.gaps.erase(s);
        }

        if (st.base < st.highest) {
            if (!st.check_scheduled) schedule_check(k, reorder_grace);
        } else if (st.check_scheduled && stack_.sim().cancel(st.check_timer)) {
            // Reordered data closed every gap before the grace period
            // ended: drop the now-pointless check.
            st.check_scheduled = false;
        }
    }

    stats_.datagrams++;
    stats_.bytes += d.total_payload_bytes;
    // Binding record: for sequenced streams arg is the sequence number.
    trace::emit(now, trace_site_, trace::hop::mmtp_deliver, d.packet_id,
                h.sequencing ? h.sequencing->sequence : 0);
    if (on_datagram_) on_datagram_(d);
}

void receiver::note_buffer_available(wire::ipv4_addr addr)
{
    if (addr == 0) return;
    const auto now = stack_.sim().now();
    // Walk in first-seen order, not hash order: this loop emits failover
    // trace records, and trace byte-identity across same-seed runs is a
    // hard invariant.
    for (const auto& k : stream_order_) {
        auto sit = streams_.find(k);
        if (sit == streams_.end()) continue;
        auto& st = sit->second;
        if (!st.failed_over || st.buffer_addr != addr) continue;
        st.failed_over = false;
        stats_.buffer_failbacks++;
        trace::emit(now, trace_site_, trace::hop::mmtp_failover, 0, addr);
        for (auto& [start, g] : st.gaps) {
            (void)start;
            g.attempts = 0;
            g.last_nak = sim_time::zero();
        }
        if (st.base < st.highest && !st.check_scheduled)
            schedule_check(k, reorder_grace);
    }
}

void receiver::schedule_check(const stream_key& k, sim_duration delay)
{
    auto& st = stream(k);
    st.check_scheduled = true;
    st.check_timer = stack_.sim().schedule_cancellable_in(
        delay, netsim::task_class::protocol, [this, k] { run_check(k); });
}

sim_duration receiver::retry_interval(std::uint32_t attempts) const
{
    // Wait after the n-th unanswered NAK: base * 2^(n-1), capped. Zero
    // attempts means the gap has never been NAKed — due immediately.
    if (attempts == 0) return sim_duration::zero();
    const unsigned shift = attempts - 1 < 20u ? attempts - 1 : 20u;
    sim_duration d{cfg_.timing.retry_base.ns << shift};
    if (cfg_.timing.retry_cap.ns > 0 && d.ns > cfg_.timing.retry_cap.ns)
        d = cfg_.timing.retry_cap;
    return d;
}

void receiver::run_check(const stream_key& k)
{
    auto it = streams_.find(k);
    if (it == streams_.end()) return;
    auto& st = it->second;
    st.check_scheduled = false;

    const auto now = stack_.sim().now();
    auto gaps = st.received.gaps(st.base, st.highest);
    if (gaps.empty()) {
        st.gaps.clear();
        return;
    }

    // Failover: once the primary buffer has ignored failover_attempts
    // NAKs for any gap, retarget the stream at the fallback buffer and
    // restart the retry budget — backoff restarts with it, so recovery
    // from the healthy buffer is probed at the base interval again.
    if (!st.failed_over && fallback_buffer_ != 0 && cfg_.timing.failover_attempts > 0) {
        for (const auto& [a, b] : gaps) {
            (void)b;
            auto git = st.gaps.find(a);
            if (git == st.gaps.end() || git->second.attempts < cfg_.timing.failover_attempts)
                continue;
            st.failed_over = true;
            stats_.buffer_failovers++;
            trace::emit(now, trace_site_, trace::hop::mmtp_failover, 0, fallback_buffer_);
            for (auto& [start, g] : st.gaps) {
                (void)start;
                g.attempts = 0;
                g.last_nak = sim_time::zero();
            }
            break;
        }
    }

    const wire::ipv4_addr target =
        st.failed_over && fallback_buffer_ != 0 ? fallback_buffer_ : st.buffer_addr;

    wire::nak_body nak;
    nak.epoch = k.epoch;
    nak.requester = stack_.host().address();

    auto flush_nak = [&] {
        if (nak.ranges.empty() || target == 0) return;
        byte_writer w;
        serialize(nak, w);
        stack_.send_control(target, k.experiment, wire::control_type::nak, w.take());
        stats_.naks_sent++;
        stats_.nak_ranges_sent += nak.ranges.size();
        nak.ranges.clear();
    };

    for (const auto& [a, b] : gaps) {
        auto& g = st.gaps[a];
        if (g.first_detected == sim_time::zero()) g.first_detected = now;

        if (g.attempts >= cfg_.timing.max_attempts) {
            // Unrecoverable: resolve the gap so delivery accounting moves
            // on, and report each abandoned sequence.
            stats_.given_up += b - a;
            trace::emit(now, trace_site_, trace::hop::mmtp_giveup, 0,
                        trace::pack_range(a, b - a));
            if (on_loss_)
                for (std::uint64_t s = a; s < b; ++s) on_loss_(k.experiment, k.epoch, s);
            st.received.insert(a, b);
            st.gave_up = true; // its record goes at the next arrival
            continue;
        }
        const bool due = g.last_nak == sim_time::zero()
            || (now - g.last_nak).ns >= retry_interval(g.attempts).ns;
        if (!due) continue;
        nak.ranges.push_back({a, b - 1});
        trace::emit(now, trace_site_, trace::hop::mmtp_nak, 0, trace::pack_range(a, b - a));
        g.last_nak = now;
        g.attempts++;
        if (g.attempts > 1) stats_.nak_retries++;
        // A NAK carries at most max_nak_ranges ranges; emit as many NAK
        // messages as the round needs (they are tiny).
        if (nak.ranges.size() == wire::max_nak_ranges) flush_nak();
    }
    st.base = st.received.next_missing(st.base);
    flush_nak();

    if (st.base >= st.highest) return;
    // Next wake-up: the earliest instant an unresolved gap becomes due
    // again under its backed-off interval (given-up gaps were resolved
    // above, so they no longer appear here).
    sim_duration next = retry_interval(cfg_.timing.max_attempts);
    for (const auto& [a, b] : st.received.gaps(st.base, st.highest)) {
        (void)b;
        sim_duration wait = sim_duration::zero();
        auto git = st.gaps.find(a);
        if (git != st.gaps.end() && git->second.last_nak != sim_time::zero())
            wait = (git->second.last_nak + retry_interval(git->second.attempts)) - now;
        if (wait.ns < next.ns) next = wait;
    }
    if (next.ns < 1000) next = sim_duration{1000}; // 1 us floor: no same-instant spin
    schedule_check(k, next);
}

} // namespace mmtp::core
