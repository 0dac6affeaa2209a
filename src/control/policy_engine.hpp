// policy_engine.hpp — the closed-loop mode-shifting control plane.
//
// compile_modes() answers "which mode should each segment run in, given
// what we know at setup time". The policy engine owns that answer over
// the *lifetime* of a run: it holds the current compiled_policy, watches
// two signals (loss counters on watched links, and health-monitor
// transitions), and when one fires it recompiles a per-segment plan for
// the buffered posture and installs it with epoch-versioned,
// make-before-break updates; a run of clean polls restores the baseline:
//
//   plan      a trigger picked a new posture; a fresh epoch number is
//             minted and the plan recompiled for it
//   install   the new epoch's rules go live on every attached element
//             ahead of the old ones; the sender's origin mode is
//             re-stamped with the new epoch (cfg_id), so *new* datagrams
//             shift while in-flight ones keep matching the old epoch's
//             rules — make before break
//   commit    after a drain window sized to flush the path, the old
//             epoch's rules are retired from the elements
//   abort     a plan that cannot apply (duplicate posture, static
//             preset) is dropped and counted
//
// The pilot's one-shot setup survives as `mode_preset::static_preset`:
// compile once, install as epoch-agnostic rules, never poll — one preset
// among several, not a separate code path.
#pragma once

#include "control/health_monitor.hpp"
#include "control/policy.hpp"
#include "control/resource_map.hpp"
#include "netsim/engine.hpp"
#include "netsim/link.hpp"
#include "pnet/element.hpp"
#include "pnet/stages.hpp"

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace mmtp::control {

/// Reconfiguration strategy.
enum class mode_preset : std::uint8_t {
    /// Compile once at start(), install epoch-agnostic rules, never
    /// reconfigure — the pilot's behaviour (§5.3).
    static_preset,
    /// Poll the subscribed signals and shift posture at runtime.
    closed_loop,
};

/// The two postures the closed loop moves between (the values are the
/// `policy_posture` metric).
enum class posture : std::uint8_t {
    /// The compiled static plan (age-sensitive + recoverable WAN).
    baseline = 0,
    /// Degrade-to-buffered under loss: drop the delivery deadline so
    /// nothing is shed or aged while the span is lossy; keep sequencing,
    /// recovery and backpressure. Data arrives late rather than never.
    buffered = 1,
};

const char* posture_name(posture p);

struct policy_engine_config {
    mode_preset preset{mode_preset::static_preset};
    /// Inputs handed to compile_modes() on every (re)compilation.
    policy_inputs inputs{};
    /// Exact deadline override (µs) applied after each compilation
    /// (0 = keep the compiled deadline). The pilot uses this.
    std::uint32_t deadline_override_us{0};

    // --- closed-loop knobs (ignored under static_preset) ---
    /// Signal sampling cadence.
    sim_duration poll_interval{sim_duration{1000000}}; // 1 ms
    /// Polling stops once the next poll would land past this instant;
    /// zero disables polling entirely (signals still arrive via the
    /// health monitor). A bounded horizon keeps the event queue finite.
    sim_time poll_until{sim_time::zero()};
    /// Make-before-break drain window: how long both epochs' rules stay
    /// installed before the old epoch is retired. Size it to cover the
    /// path flush time (in-flight datagrams stamped under the old epoch
    /// must reach their last mode-rewriting element within it).
    sim_duration drain_window{sim_duration{2000000}}; // 2 ms
    /// Loss events (corrupted + randomly dropped on watched links) per
    /// poll interval that trigger degrade-to-buffered.
    std::uint64_t loss_degrade_threshold{8};
    /// Restore hysteresis: consecutive clean polls required before the
    /// buffered posture returns to baseline (prevents flapping when the
    /// fault is intermittent).
    unsigned restore_after_clean_polls{4};
};

struct policy_engine_stats {
    std::uint64_t polls{0};
    std::uint64_t reconfigs_planned{0};
    std::uint64_t reconfigs_installed{0};
    std::uint64_t reconfigs_committed{0};
    std::uint64_t reconfigs_aborted{0};
    std::uint64_t loss_triggers{0};
    std::uint64_t health_triggers{0};
    std::uint64_t restores{0};
};

class policy_engine {
public:
    policy_engine(netsim::engine& eng, resource_map map, policy_engine_config cfg);

    // --- wiring (before start()) -----------------------------------------
    /// Attaches a boundary element whose mode_transition_stage this
    /// engine programs. Rules compiled for the element's address are
    /// installed there; both references must outlive the engine.
    void attach_element(pnet::programmable_switch& sw,
                        std::shared_ptr<pnet::mode_transition_stage> stage);

    /// Called on start() and after every install with the active plan
    /// and the origin mode senders should stamp from now on (feature
    /// bits *and* cfg_id = the new epoch). Wire it to
    /// core::sender::set_origin_mode.
    using origin_handler = std::function<void(const compiled_policy&, wire::mode origin)>;
    void set_origin_handler(origin_handler cb) { origin_ = std::move(cb); }

    // --- signal subscriptions --------------------------------------------
    /// Counts corrupted + randomly dropped packets on `l` toward the
    /// loss trigger.
    void watch_loss(const netsim::link& l) { loss_links_.push_back(&l); }
    /// Reacts to link-health transitions: any watched link going down
    /// degrades to buffered immediately (no poll-interval lag); recovery
    /// is left to the restore hysteresis.
    void subscribe_health(health_monitor& hm);

    /// Interned flight-recorder site id for reconfig spans (0 = unnamed).
    void set_trace_site(std::uint32_t site) { trace_site_ = site; }

    // --- lifecycle --------------------------------------------------------
    /// Compiles and installs the initial (baseline) plan and, under
    /// closed_loop, starts the poll loop.
    void start();

    /// Requests a posture change now (the closed loop calls this; tests
    /// and scenarios may too). Returns true when a new epoch was
    /// installed; duplicate postures and static_preset engines abort.
    bool request(posture p);

    // --- observation ------------------------------------------------------
    const compiled_policy& current() const { return current_; }
    posture current_posture() const { return posture_; }
    /// Epoch of the currently installed plan (stamped into cfg_id).
    std::uint8_t epoch() const { return epoch_; }
    /// Installs whose drain window has not elapsed yet.
    unsigned pending_commits() const { return pending_commits_; }
    const policy_engine_stats& stats() const { return stats_; }

private:
    struct attached {
        pnet::programmable_switch* sw;
        std::shared_ptr<pnet::mode_transition_stage> stage;
    };

    compiled_policy compile_for(posture p) const;
    void install(const compiled_policy& plan, std::uint8_t new_epoch);
    void evaluate();
    void schedule_poll();
    std::uint64_t loss_total() const;

    netsim::engine& eng_;
    resource_map map_;
    policy_engine_config cfg_;
    std::vector<attached> elements_;
    origin_handler origin_;
    std::vector<const netsim::link*> loss_links_;

    compiled_policy current_;
    posture posture_{posture::baseline};
    std::uint8_t epoch_{0};
    unsigned pending_commits_{0};
    bool started_{false};
    bool link_down_{false};
    unsigned clean_polls_{0};
    std::uint64_t last_loss_{0};
    std::uint32_t trace_site_{0};
    policy_engine_stats stats_;
};

} // namespace mmtp::control
