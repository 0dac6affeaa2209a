// scheduler.hpp — the narrow scheduling interface every component codes
// against.
//
// Historically every model component (link, node, fault_scheduler, the
// pnet stages, the protocol stacks, the telemetry trackers) took a raw
// `engine&`, which hard-wired one global event loop into the whole
// codebase. The sharded coordinator (netsim/shard.hpp) runs one engine
// per network domain, so components must be schedulable against *their
// domain's* event loop — or against the coordinator's barrier-synchronous
// control plane — through one narrow seam:
//
//   now()                       current virtual time
//   schedule_at / schedule_in   fire-and-forget events (optionally tagged)
//   schedule_cancellable_in     supersedable timers
//   cancel()                    generation-checked cancellation
//   reserve_seq / schedule_reserved
//                               one pending event standing in for a
//                               batch of pre-ordered ones
//
// `engine` implements this interface. Its own template schedule methods
// shadow the ones here, so engine-typed callers keep the fully inlined
// slab path (zero virtual dispatch on the packet hot path); callers that
// hold a `scheduler&` pay one type-erased inline_task hand-off per event.
// Links take their shard's `engine&` directly: the serializer horizon
// compares reserved keys with the engine's dispatch position.
//
// Migration note: engine& converts to scheduler& implicitly, so every
// pre-existing call site that passed an engine keeps compiling — see
// README "Scheduler API migration".
#pragma once

#include "common/inline_task.hpp"
#include "common/units.hpp"

#include <cstdint>

namespace mmtp::netsim {

/// Coarse handler classes for engine profiling. Schedulers may tag each
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

constexpr std::uint32_t scheduler_no_slot = 0xffffffffu;

/// Token for a timer scheduled with schedule_cancellable_in().
/// Value-semantic; default-constructed means inactive. A handle goes
/// stale once its timer fires or is cancelled — cancel() detects
/// staleness via the generation counter and becomes a no-op.
struct timer_handle {
    std::uint32_t slot{scheduler_no_slot};
    std::uint32_t gen{0};
    bool active() const { return slot != scheduler_no_slot; }
};

class scheduler {
public:
    virtual ~scheduler() = default;

    /// Current virtual time of this scheduling domain.
    virtual sim_time now() const = 0;

    /// Schedules `fn` at absolute time `at` (clamped to >= now()).
    template <typename F>
    void schedule_at(sim_time at, F&& fn)
    {
        post(at, task_class::generic, inline_task(std::forward<F>(fn)));
    }

    /// Tagged variant: the event is attributed to `tc` in profiles.
    template <typename F>
    void schedule_at(sim_time at, task_class tc, F&& fn)
    {
        post(at, tc, inline_task(std::forward<F>(fn)));
    }

    /// Schedules `fn` after `delay` (clamped to >= 0).
    template <typename F>
    void schedule_in(sim_duration delay, F&& fn)
    {
        if (delay.ns < 0) delay = sim_duration::zero();
        post(now() + delay, task_class::generic, inline_task(std::forward<F>(fn)));
    }

    /// Tagged variant: the event is attributed to `tc` in profiles.
    template <typename F>
    void schedule_in(sim_duration delay, task_class tc, F&& fn)
    {
        if (delay.ns < 0) delay = sim_duration::zero();
        post(now() + delay, tc, inline_task(std::forward<F>(fn)));
    }

    /// Like schedule_in, but returns a handle accepted by cancel().
    /// Meant for supersedable timers (RTO, backpressure recovery): when
    /// the deadline moves, cancel and reschedule instead of letting the
    /// stale closure fire dead.
    template <typename F>
    timer_handle schedule_cancellable_in(sim_duration delay, task_class tc, F&& fn)
    {
        if (delay.ns < 0) delay = sim_duration::zero();
        return post_cancellable(now() + delay, tc, inline_task(std::forward<F>(fn)));
    }

    /// Cancels a pending timer: no-op on inactive or stale handles.
    /// Deactivates `h` either way. Returns true when a live timer was
    /// genuinely dropped.
    virtual bool cancel(timer_handle& h) = 0;

    /// Reserves `n` consecutive insertion-order numbers and returns the
    /// first. Together with schedule_reserved() this lets a component
    /// keep one pending event in place of `n` events it would otherwise
    /// schedule right now, yet dispatch each of them with exactly the
    /// (time, insertion order) key it would have had.
    virtual std::uint64_t reserve_seq(std::uint64_t n) = 0;

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
        post_reserved(at, seq, tc, inline_task(std::forward<F>(fn)));
    }

protected:
    /// Type-erased core: enqueue `t` at `at` under class `tc`.
    virtual void post(sim_time at, task_class tc, inline_task&& t) = 0;
    virtual timer_handle post_cancellable(sim_time at, task_class tc,
                                          inline_task&& t) = 0;
    virtual void post_reserved(sim_time at, std::uint64_t seq, task_class tc,
                               inline_task&& t) = 0;
};

} // namespace mmtp::netsim
