// engine.hpp — deterministic discrete-event simulation engine.
//
// Single-threaded: events execute in (time, insertion-order) order, so
// two events scheduled for the same instant run in the order they were
// scheduled. All model components hold a reference to the engine and
// schedule closures on it.
//
// Hot-path design: closures are common/inline_task.hpp values, which
// store the usual captures (`this` plus a moved packet) inline instead of
// on the heap. Pending tasks are parked in a slab recycled through a free
// list. Keys are trivial 24-byte {time, seq, slot} records ordered by one
// 4-ary min-heap (common/dary_heap.hpp): sifts are plain memcpys, and
// step() runs the winning task in place in the slab. Steady-state event
// dispatch performs zero allocations and zero per-event deep copies.
#pragma once

#include "common/dary_heap.hpp"
#include "common/inline_task.hpp"
#include "common/units.hpp"

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace mmtp::netsim {

/// Coarse handler classes for engine profiling. Callers may tag each
/// event; untagged events count as `generic`. The tag rides in padding of
/// the heap key, so tagging costs nothing in size or ordering; it is a
/// profiling label only and never affects dispatch.
enum class task_class : std::uint8_t {
    generic = 0,
    timer,        // telemetry probes, samplers, scripted scenario steps
    link_tx,      // link serializer kicks and burst pumps
    link_arrival, // packet arrival at the far end of a link
    pipeline,     // programmable-element pipeline egress
    protocol,     // MMTP/TCP/UDP endpoint timers and pumps
    control,      // fault scheduler, control-plane events
};
constexpr std::size_t task_class_count = 7;

const char* task_class_name(task_class c);

/// Token for a timer scheduled with engine::schedule_cancellable_in().
/// Value-semantic; default-constructed means inactive. A handle goes
/// stale once its timer fires or is cancelled — cancel() detects
/// staleness via the generation counter and becomes a no-op.
struct timer_handle {
    static constexpr std::uint32_t no_slot = 0xffffffffu;
    std::uint32_t slot{no_slot};
    std::uint32_t gen{0};
    bool active() const { return slot != no_slot; }
};

/// Per-handler-class event counts plus simulated-vs-wall accounting,
/// filled in by engine::run()/run_until(). Event counts are deterministic
/// for a deterministic schedule; wall_seconds is measurement-only and
/// must stay out of byte-compared telemetry.
struct engine_profile {
    std::array<std::uint64_t, task_class_count> executed_by_class{};
    std::uint64_t executed{0};
    /// Timers dropped via engine::cancel() before firing. Deterministic:
    /// counted at cancel time, not at reaping.
    std::uint64_t timers_cancelled{0};
    /// Wall-clock time spent inside run()/run_until() dispatch loops.
    double wall_seconds{0.0};
};

/// The single-threaded event loop every component schedules on.
class engine {
public:
    using action = inline_task;

    static constexpr std::uint32_t no_slot = timer_handle::no_slot;

    /// Current simulated time.
    sim_time now() const { return now_; }

    // Scheduling and dispatch are defined inline: the compiler then sees
    // the concrete closure type from construction through slab parking,
    // which lets it fold the inline_task relocation thunks into straight
    // moves inside link/element hot loops.

    /// Schedules `fn` at absolute time `at` (must be >= now()). Accepts
    /// any void() callable; the capture is constructed directly in the
    /// engine's task slab (no intermediate type-erased temporary).
    template <typename F>
    void schedule_at(sim_time at, F&& fn)
    {
        park(at < now_ ? now_ : at, task_class::generic, std::forward<F>(fn));
    }

    /// Tagged variant: the event is attributed to `tc` in profile().
    template <typename F>
    void schedule_at(sim_time at, task_class tc, F&& fn)
    {
        park(at < now_ ? now_ : at, tc, std::forward<F>(fn));
    }

    /// Schedules `fn` after `delay` (clamped to >= 0).
    template <typename F>
    void schedule_in(sim_duration delay, F&& fn)
    {
        if (delay.ns < 0) delay = sim_duration::zero();
        park(now_ + delay, task_class::generic, std::forward<F>(fn));
    }

    /// Tagged variant: the event is attributed to `tc` in profile().
    template <typename F>
    void schedule_in(sim_duration delay, task_class tc, F&& fn)
    {
        if (delay.ns < 0) delay = sim_duration::zero();
        park(now_ + delay, tc, std::forward<F>(fn));
    }

    /// Like schedule_in, but returns a handle accepted by cancel().
    /// Meant for supersedable timers (RTO, backpressure recovery): when
    /// the deadline moves, cancel and reschedule instead of letting the
    /// stale closure fire dead.
    template <typename F>
    timer_handle schedule_cancellable_in(sim_duration delay, task_class tc, F&& fn)
    {
        if (delay.ns < 0) delay = sim_duration::zero();
        const std::uint32_t slot = park(now_ + delay, tc, std::forward<F>(fn));
        return timer_handle{slot, gen_[slot]};
    }

    /// Cancels a pending timer: the closure's captures are destroyed
    /// immediately and the key is reaped (uncounted) when it surfaces at
    /// the heap — the event never fires. Returns false (no-op) for
    /// inactive or stale handles, and for a timer cancelling itself from
    /// inside its own callback. Deactivates `h` either way.
    bool cancel(timer_handle& h)
    {
        const std::uint32_t slot = h.slot;
        const std::uint32_t gen = h.gen;
        h.slot = no_slot;
        if (slot == no_slot || slot >= gen_.size()) return false;
        if (gen_[slot] != gen) return false;     // already fired or reused
        if (slot == running_slot_) return false; // mid-fire: nothing to drop
        if (dead_[slot]) return false;
        dead_[slot] = 1;
        task_at(slot).reset();
        profile_.timers_cancelled++;
        return true;
    }

    /// Reserves `n` consecutive insertion-order numbers and returns the
    /// first. Together with schedule_reserved() this lets a component
    /// keep one pending event in place of `n` events it would otherwise
    /// schedule right now, yet dispatch each of them with exactly the
    /// (time, insertion order) key it would have had.
    std::uint64_t reserve_seq(std::uint64_t n)
    {
        const std::uint64_t first = next_seq_;
        next_seq_ += n;
        return first;
    }

    /// Schedules `fn` at `at` under `seq`, a number from reserve_seq().
    /// The one rule: each reserved key (at, seq) must be scheduled before
    /// any larger key is dispatched. Scheduling key i+1 from inside the
    /// event of key i, with keys increasing, always satisfies it — every
    /// key dispatched before then is smaller than key i — so dispatch
    /// order is the same as if all of them had been scheduled up front.
    /// The rule also implies at >= now().
    template <typename F>
    void schedule_reserved(sim_time at, std::uint64_t seq, task_class tc, F&& fn)
    {
        park(at, seq, tc, std::forward<F>(fn));
    }

    /// True once dispatch has reached key (at, seq), reserved or not.
    /// Inside an event the dispatch position is that event's key.
    /// Outside dispatch it is the last key step() popped, cancelled keys
    /// included (at set-up, no key yet: position (0, 0)); run() moves it
    /// past every key <= now() once the queue drains, and
    /// run_until(until) past every key <= until. A component that
    /// reserved a key instead of scheduling it asks this to learn whether
    /// that key's event would have run by now. A reserved key never moves
    /// now(): after run() drains, now() is the last dispatched event's
    /// time even when a reserved key lies later (a link's horizon after
    /// its last packet was lost on the wire).
    bool reached(sim_time at, std::uint64_t seq) const
    {
        return now_ > at || (now_ == at && pos_seq_ >= seq);
    }

    /// Runs events until the queue empties. Returns events executed.
    std::uint64_t run();

    /// Runs events with time <= `until`; leaves later events queued.
    std::uint64_t run_until(sim_time until);

    /// Runs at most one live event; returns false when drained.
    /// Cancelled keys surfacing at the front are reaped silently.
    bool step()
    {
        while (!events_.empty()) {
            const key k = events_.pop_move();
            now_ = k.at;
            pos_seq_ = k.seq;
            if (dead_[k.slot]) {
                reap(k.slot);
                continue;
            }
            profile_.executed_by_class[static_cast<std::size_t>(k.tag)]++;
            profile_.executed++;
            // Run the task in place — slab blocks are address-stable, and
            // the slot is only recycled (below) after the callback
            // returns, so reentrant scheduling is safe without moving the
            // closure out.
            running_slot_ = k.slot;
            task_at(k.slot).run_and_reset();
            running_slot_ = no_slot;
            gen_[k.slot]++;
            free_slots_.push_back(k.slot);
            return true;
        }
        return false;
    }

    bool empty() const { return events_.empty(); }

    /// Pending keys. Cancelled-but-unreaped timers still count until
    /// their key surfaces.
    std::size_t pending() const { return events_.size(); }

    /// Event counts by handler class and dispatch wall time so far.
    const engine_profile& profile() const { return profile_; }

    /// Earliest pending live event time (reaping cancelled keys at the
    /// front). False when drained.
    bool next_event_at(sim_time& at) { return next_at(at); }

private:
    struct key {
        sim_time at;
        std::uint64_t seq;
        std::uint32_t slot;
        task_class tag;
    };
    struct sooner {
        bool operator()(const key& a, const key& b) const
        {
            if (a.at != b.at) return a.at < b.at;
            return a.seq < b.seq;
        }
    };

    // Pending tasks live in fixed-size blocks so their addresses never
    // change (step() runs them in place); slots recycle via a LIFO free
    // list, which keeps the working set hot in cache.
    static constexpr std::uint32_t slab_block_bits = 8; // 256 tasks/block
    static constexpr std::uint32_t slab_block_size = 1u << slab_block_bits;

    action& task_at(std::uint32_t slot)
    {
        return blocks_[slot >> slab_block_bits][slot & (slab_block_size - 1)];
    }

    /// Recycles a cancelled slot without counting an execution.
    void reap(std::uint32_t slot)
    {
        dead_[slot] = 0;
        gen_[slot]++;
        free_slots_.push_back(slot);
    }

    /// Earliest pending live event time. Reaps cancelled keys at the
    /// front so run_until() never mistakes a dead timer for work.
    bool next_at(sim_time& at)
    {
        while (!events_.empty() && dead_[events_.top().slot])
            reap(events_.pop_move().slot);
        if (events_.empty()) return false;
        at = events_.top().at;
        return true;
    }

    template <typename F>
    std::uint32_t park(sim_time at, task_class tc, F&& fn)
    {
        return park(at, next_seq_++, tc, std::forward<F>(fn));
    }

    template <typename F>
    std::uint32_t park(sim_time at, std::uint64_t seq, task_class tc, F&& fn)
    {
        std::uint32_t slot;
        if (!free_slots_.empty()) {
            slot = free_slots_.back();
            free_slots_.pop_back();
        } else {
            if ((task_count_ >> slab_block_bits) == blocks_.size()) {
                blocks_.push_back(std::make_unique<action[]>(slab_block_size));
                gen_.resize(blocks_.size() * slab_block_size, 0);
                dead_.resize(blocks_.size() * slab_block_size, 0);
                // The free list must be able to absorb every slot (a
                // fully drained schedule) without a dispatch-time
                // realloc: pay for that capacity here, at growth time.
                free_slots_.reserve(blocks_.size() * slab_block_size);
            }
            slot = task_count_++;
        }
        task_at(slot).emplace(std::forward<F>(fn));
        events_.push(key{at, seq, slot, tc});
        return slot;
    }

    sim_time now_{sim_time::zero()};
    // Dispatch position (now_, pos_seq_); see reached().
    std::uint64_t pos_seq_{0};
    std::uint64_t next_seq_{0};
    dary_heap<key, sooner> events_;
    std::vector<std::unique_ptr<action[]>> blocks_;
    std::uint32_t task_count_{0};
    std::vector<std::uint32_t> free_slots_;
    // Cancellation bookkeeping, indexed by slot. gen_ advances at every
    // recycle so stale timer_handles can never hit a reused slot.
    std::vector<std::uint32_t> gen_;
    std::vector<std::uint8_t> dead_;
    std::uint32_t running_slot_{no_slot};
    engine_profile profile_;
};

} // namespace mmtp::netsim
