// stages.hpp — the MMTP in-network programs (§5.3–§5.4).
//
// Each stage is one self-contained match–action program that a real
// deployment would compile to P4:
//
//   mode_transition_stage  rewrites the transport mode at segment
//                          boundaries (the paper's headline mechanism)
//   age_update_stage       tracks the time budget, sets the `aged` flag,
//                          emits deadline-exceeded notifications
//   backpressure_stage     relays congestion signals toward the source
//   duplication_stage      mirrors streams toward subscribers
//
// All of them operate on headers and element registers only.
#pragma once

#include "pnet/element.hpp"
#include "wire/build.hpp"
#include "wire/control.hpp"

#include <optional>
#include <unordered_map>
#include <vector>

namespace mmtp::pnet {

/// Builds a small MMTP control datagram originating at this element.
netsim::packet make_control_packet(wire::ipv4_addr element_addr, wire::ipv4_addr dst,
                                   wire::experiment_id experiment, wire::control_type type,
                                   std::vector<std::uint8_t> body);

// ---------------------------------------------------------------------------

/// One mode-transition rule. A packet matches when its experiment number
/// equals `experiment` (or `match_any_experiment`), its stamped policy
/// epoch (header cfg_id) equals `epoch` (or `match_any_epoch`), and all
/// bits of `require_bits` are present in its current cfg_data.
struct mode_rule {
    std::uint32_t experiment{0};
    bool match_any_experiment{false};
    std::uint32_t require_bits{0};

    /// Policy epoch this rule belongs to. Setup-time static rules keep
    /// `match_any_epoch` (the pre-reconfiguration behaviour); rules
    /// installed through `install_epoch()` match exactly, so in-flight
    /// datagrams stamped under an older epoch keep hitting the older
    /// epoch's rules until that epoch is retired (make-before-break).
    std::uint8_t epoch{0};
    bool match_any_epoch{true};

    /// Feature bits to activate / deactivate.
    std::uint32_t set_bits{0};
    std::uint32_t clear_bits{0};

    /// Values for newly activated features.
    std::optional<wire::ipv4_addr> buffer_addr;      // retransmission
    std::optional<std::uint32_t> deadline_us;        // timeliness
    std::optional<wire::ipv4_addr> notify_addr;      // timeliness
    std::optional<std::uint32_t> pace_mbps;          // pacing
};

/// Rewrites the transport mode of matching MMTP data packets: the
/// "shape-shifting" step performed at segment boundaries (Fig. 3 ③).
/// When sequencing is activated, sequence numbers are assigned from a
/// per-experiment register array, as the pilot's elements do (§5.4).
class mode_transition_stage final : public pipeline_stage {
public:
    static constexpr std::size_t seq_register_cells = 1024;

    /// Register cell assigned to a stream's sequence counter. Indexing
    /// reduces modulo a *prime* below the register size: the experiment
    /// id packs (experiment << 12) | slice, and because 4096 is a
    /// multiple of a power-of-two register size, `id % 1024` collapses
    /// to `slice % 1024` — every experiment pair sharing a slice number
    /// would alias onto one counter, breaking per-stream sequencing and
    /// the DTN's mirrored-counter prediction the moment two experiments
    /// run concurrently. 4096 % 1021 = 12, so distinct experiments land
    /// 12 cells apart and the facility's stream set (experiments 1..6,
    /// a dozen slices each) is provably collision-free. Everything that
    /// mirrors the element's counters (scenario flush helpers) must use
    /// this, never a raw modulo.
    static constexpr std::size_t seq_cell_of(wire::experiment_id id)
    {
        constexpr std::size_t prime = 1021;
        static_assert(prime <= seq_register_cells);
        return static_cast<std::size_t>(id) % prime;
    }

    mode_transition_stage();
    void add_rule(mode_rule rule) { rules_.push_back(rule); }

    /// Installs a new epoch's rule set (make phase of make-before-break).
    /// Each rule is forced to match exactly `epoch`; the new rules are
    /// placed ahead of existing ones so they win the first-match walk for
    /// datagrams stamped with the new epoch, while older epochs keep
    /// matching their own rules. Bumps the per-element `mode_shifts`
    /// counter when `state` is given.
    void install_epoch(std::uint8_t epoch, std::vector<mode_rule> rules,
                       element_state* state = nullptr);

    /// Retires every rule of `epoch` (break phase, after the drain
    /// window). Returns the number of rules removed and bumps the
    /// per-element `epochs_retired` counter when any were.
    std::size_t retire_epoch(std::uint8_t epoch, element_state* state = nullptr);

    std::size_t rule_count() const { return rules_.size(); }
    bool has_epoch(std::uint8_t epoch) const;

    void process(packet_context& ctx, element_state& state) override;
    std::string name() const override { return "mode_transition"; }

private:
    void resolve(element_state& state) override;

    std::vector<mode_rule> rules_;
    register_handle seq_;
    counter_handle transitions_;
};

// ---------------------------------------------------------------------------

/// Updates the age field of timeliness-mode packets from the source
/// timestamp, sets the `aged` flag when the budget is exceeded, and
/// notifies the configured address (§5.4 "age-sensitivity is handled
/// entirely in network elements"). Aged datagrams are forwarded, never
/// dropped.
class age_update_stage final : public pipeline_stage {
public:
    /// `emit_notifications`: send deadline_exceeded control messages to
    /// the header's notify address (once per datagram; the `notified`
    /// flag suppresses dups).
    explicit age_update_stage(bool emit_notifications = true)
        : emit_notifications_(emit_notifications)
    {
    }

    void process(packet_context& ctx, element_state& state) override;
    std::string name() const override { return "age_update"; }

private:
    void resolve(element_state& state) override;

    bool emit_notifications_;
    counter_handle aged_packets_;
    counter_handle notifications_;
};

// ---------------------------------------------------------------------------

struct backpressure_config {
    /// Hysteresis watermarks on the egress queue depth (bytes). Signals
    /// engage when depth reaches `high_watermark_bytes` and only
    /// disengage once it falls back below `low_watermark_bytes` — the
    /// gap keeps a queue oscillating around one threshold from emitting
    /// a signal per data packet.
    std::uint64_t low_watermark_bytes{512 * 1024};
    std::uint64_t high_watermark_bytes{1 * 1024 * 1024};
    /// Minimum spacing between signals per source (rate limiting).
    sim_duration min_interval{sim_duration{100000}}; // 100 us
    /// Severity quantization: the 0..255 level is split into this many
    /// bands, and an already-signalled source is only re-signalled when
    /// the level *escalates* into a higher band. Keeps the signal stream
    /// O(watermark crossings + escalations), not O(packets).
    unsigned level_bands{8};
};

/// Watches the egress queue the packet is about to join; when it crosses
/// the high watermark and the packet's mode allows backpressure, sends a
/// backpressure control message to the packet's source (Fig. 3 ⑤→①).
/// Hysteresis + per-source escalation bands + a minimum signal interval
/// bound the emitted control traffic; there is no explicit release signal
/// — senders recover through their own quiet-period AIMD schedule.
class backpressure_stage final : public pipeline_stage {
public:
    backpressure_stage(programmable_switch& sw, backpressure_config cfg = {});

    void process(packet_context& ctx, element_state& state) override;
    std::string name() const override { return "backpressure"; }

private:
    struct source_state {
        sim_time last{};
        unsigned band{0};
    };
    struct port_state {
        bool engaged{false};
        std::unordered_map<wire::ipv4_addr, source_state> sources;
    };

    void resolve(element_state& state) override;

    programmable_switch& sw_;
    backpressure_config cfg_;
    std::vector<port_state> ports_;
    counter_handle engagements_;
    counter_handle suppressed_;
    counter_handle escalations_;
    counter_handle signals_;
};

// ---------------------------------------------------------------------------

/// Duplicates data packets of subscribed experiments toward subscriber
/// addresses. This is how Vera Rubin-style alert streams reach several
/// downstream researchers directly (Fig. 3 ⑥, §2.1). The control plane
/// installs and prunes subscribers; the element takes no in-band
/// subscription messages.
class duplication_stage final : public pipeline_stage {
public:
    void add_subscriber(std::uint32_t experiment, wire::ipv4_addr subscriber);

    /// Failure reaction: the control plane prunes a subscriber whose
    /// node went dark, so the element stops burning egress capacity on
    /// clones nobody receives. Returns true if the entry existed.
    bool remove_subscriber(std::uint32_t experiment, wire::ipv4_addr subscriber);

    void process(packet_context& ctx, element_state& state) override;
    std::string name() const override { return "duplication"; }

    std::size_t subscriber_count(std::uint32_t experiment) const;

private:
    void resolve(element_state& state) override;

    std::unordered_map<std::uint32_t, std::vector<wire::ipv4_addr>> subs_;
    counter_handle duplicated_;
};

// ---------------------------------------------------------------------------

/// Band classifier for priority egress queues: deadline-critical and
/// control traffic first (band 0), bulk DAQ next (band 1), everything
/// else last (band 2). Usable with netsim::priority_queue_disc; this is
/// the "explicit transport deadlines ... input to active queue
/// management" of §5.3.
unsigned timeliness_band_of(const netsim::packet& p);

constexpr unsigned timeliness_bands = 3;

/// Deadline slack (µs) for deadline-aware shedding in
/// netsim::priority_queue_disc: deadline minus accumulated age for
/// timeliness-mode data packets, INT64_MAX (never shed) for control
/// packets and anything without a deadline. Negative slack means the
/// packet is already past its deadline.
std::int64_t timeliness_slack_of(const netsim::packet& p);

} // namespace mmtp::pnet
