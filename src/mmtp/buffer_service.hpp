// buffer_service.hpp — the DTN-side buffering/relay/NAK-responder.
//
// This is DTN 1 of the pilot (Fig. 4): it receives mode-0 datagrams from
// the DAQ network, stores a copy in its retransmission buffer, and relays
// the stream toward the next stage across the WAN. When a downstream
// receiver NAKs, the service re-sends the requested sequences — loss is
// recovered from *here* (short RTT) instead of from the source (§5.1).
//
// Sequence numbers: in the pilot they are assigned by the programmable
// element just downstream of DTN 1 (§5.4). The buffer predicts them with
// a mirrored per-experiment counter, which is exact as long as the
// DTN→element segment is lossless and order-preserving (true of DAQ
// networks, §2). Deployments without such an element can instead let the
// DTN assign sequence numbers itself (`assign_sequence_locally`), which
// is also what the A1/A2 ablations use.
#pragma once

#include "dtn/buffer.hpp"
#include "dtn/durable_store.hpp"
#include "mmtp/stack.hpp"
#include "mmtp/timing_profile.hpp"

#include <deque>
#include <set>
#include <tuple>
#include <unordered_map>

namespace mmtp::core {

struct buffer_service_config {
    wire::ipv4_addr next_hop{0};
    dtn::buffer_config buffer{};
    /// When true, relayed datagrams leave already carrying sequencing +
    /// retransmission (+ timeliness if deadline_us > 0) headers; when
    /// false they leave in their arrival mode and the on-path element
    /// performs the upgrade (the pilot's configuration).
    bool assign_sequence_locally{false};
    std::uint32_t deadline_us{0};
    wire::ipv4_addr notify_addr{0};
    /// Tap mode: store (under the datagram's carried sequence number)
    /// and answer NAKs, but do not forward — for buffers fed by
    /// in-network stream duplication rather than sitting on the data
    /// path ("another retransmission buffer becomes available", §5.1).
    bool tap_only{false};
    /// Advertise this address in the retransmission field instead of the
    /// local host address (when a different buffer should serve NAKs).
    wire::ipv4_addr buffer_addr_override{0};
    /// Alternate buffer holding the same streams (e.g. a duplication-fed
    /// tap); carried in adverts so receivers know where to fail over
    /// when this service stops answering NAKs. 0 = none.
    wire::ipv4_addr secondary_buffer{0};
    /// Storage occupancy watermarks (bytes; 0 disables). Crossing the
    /// high watermark engages storage pressure: each distinct upstream
    /// source gets one backpressure control message per engagement, and
    /// the pressure handler fires so the control plane can stop admitting
    /// new flows onto this DTN. Pressure releases (handler fires again)
    /// once occupancy decays below the low watermark.
    std::uint64_t occupancy_high_bytes{0};
    std::uint64_t occupancy_low_bytes{0};
    /// Pace for NAK-triggered retransmissions (0 = unpaced). Repair
    /// traffic answers bursts of loss, and un-paced it arrives as a
    /// line-rate burst that re-overloads the very segment it is
    /// repairing; a pace below the bottleneck rate lets repairs drain
    /// through. While a sequence is still waiting in the paced queue,
    /// repeated NAKs for it are absorbed instead of duplicating it.
    data_rate retransmit_pace{0};
    /// Shared retry/backoff schedule. The service uses `timing.hold` as
    /// a per-source quiet period for storage-pressure signals: a source
    /// signalled less than `hold` ago is not re-signalled even by a new
    /// engagement, so a rapidly flapping occupancy watermark cannot emit
    /// a signal storm (0 restores signal-per-engagement).
    timing_profile timing{};
    /// Archive-backed persistence (§6 challenge 2). Non-owning: the
    /// store models the node's disk and is owned by the testbed, so it
    /// survives the crash()/revive() cycle that wipes the in-memory
    /// buffer. nullptr = volatile buffer (legacy behavior).
    dtn::durable_store* persist{nullptr};
};

struct buffer_service_stats {
    std::uint64_t relayed{0};
    std::uint64_t relayed_bytes{0};
    std::uint64_t nak_requests{0};
    std::uint64_t retransmitted{0};
    std::uint64_t unavailable{0}; // NAKed sequences no longer buffered
    std::uint64_t pressure_engagements{0};
    std::uint64_t pressure_releases{0};
    std::uint64_t pressure_signals{0};
    /// Expired per-source signal-suppression records dropped by
    /// poll_pressure() — bounds signalled_ over long runs.
    std::uint64_t signals_pruned{0};
    /// NAKed sequences absorbed because an identical retransmission was
    /// still waiting in the paced queue.
    std::uint64_t retransmit_dedup{0};
    std::uint64_t retransmit_queue_peak{0};
    // Persistence lifecycle (all zero without cfg.persist):
    std::uint64_t persisted{0};        // records appended to the archive
    std::uint64_t persist_rejected{0}; // refused while the store is crashed
    std::uint64_t crashes{0};
    std::uint64_t tail_lost{0};          // unsealed records lost across crashes
    std::uint64_t recovered_records{0};  // reloaded from the archive at revive
    std::uint64_t revivals{0};
};

class buffer_service {
public:
    buffer_service(stack& st, buffer_service_config cfg);

    /// Installs this service as the host's data sink (relay everything).
    void attach_as_sink();

    /// Buffers and forwards one datagram toward next_hop: the buffer
    /// keeps a copy of the inline bytes, the forwarded datagram takes them.
    void relay(delivered_datagram d);

    const buffer_service_stats& stats() const { return stats_; }
    const dtn::retransmission_buffer& buffer() const { return buffer_; }

    /// Interned flight-recorder site id for retransmit records (0 = unnamed).
    void set_trace_site(std::uint32_t site) { trace_site_ = site; }

    /// Announces this buffer and its secondary to `collector`, the
    /// receiver whose NAKs should fail over (or back) accordingly.
    void advertise(wire::ipv4_addr collector);

    /// Sends end-of-window markers for every stream this service has
    /// sequenced, so receivers can detect and recover *tail* losses
    /// (sent `copies` times: the markers cross the same lossy segment).
    void flush(unsigned copies = 3);

    /// Observer for storage-pressure transitions (engage/release).
    using pressure_cb = std::function<void(bool engaged, std::uint64_t bytes_used)>;
    void set_pressure_handler(pressure_cb cb) { pressure_handler_ = std::move(cb); }
    bool pressure_engaged() const { return pressure_engaged_; }

    /// Sweeps retention decay and re-evaluates the occupancy watermarks;
    /// schedule this periodically so pressure releases between stores.
    void poll_pressure();

    /// Models the node dying: wipes ALL in-memory state (retransmission
    /// buffer, sequence counters, paced repair queue, pressure state) and
    /// crashes the durable store — its unsealed tail is lost and counted.
    /// Pair with fault_scheduler::blackout_node, which stops delivery.
    void crash();

    /// Models the node coming back: reloads every record the archive
    /// preserved into the retransmission buffer, restores per-experiment
    /// sequence counters from the recovered journal, and (when collector
    /// is nonzero) re-advertises so receivers can fail *back*. Returns
    /// the number of records recovered.
    std::uint64_t revive(wire::ipv4_addr collector = 0);

private:
    void handle_nak(const wire::nak_body& nak, wire::experiment_id experiment,
                    wire::ipv4_addr src);
    std::uint64_t next_sequence(wire::experiment_id experiment);
    void check_pressure(wire::ipv4_addr src, wire::experiment_id experiment);
    void prune_signals();
    /// Re-sends `entry`; `payload` holds its inline bytes.
    void send_retransmit(wire::ipv4_addr to, const dtn::buffered_datagram& entry,
                         std::vector<std::uint8_t> payload);
    void pump_retransmits();

    stack& stack_;
    buffer_service_config cfg_;
    dtn::retransmission_buffer buffer_;
    buffer_service_stats stats_;
    std::unordered_map<std::uint32_t, std::uint64_t> seq_counters_;
    // Paced-retransmission state (unused when retransmit_pace is 0):
    // pending repairs drain through a leaky bucket at the configured
    // rate; `queued_` keys (experiment, epoch, sequence, requester) so a
    // re-NAK of a still-queued repair is absorbed, not duplicated. A
    // queued repair owns a copy of its inline bytes: the buffer's may be
    // evicted before it leaves.
    struct pending_retransmit {
        wire::ipv4_addr to{0};
        dtn::buffered_datagram entry; // no inline_payload: `payload` holds it
        std::vector<std::uint8_t> payload;
    };
    std::deque<pending_retransmit> rtx_queue_;
    std::set<std::tuple<wire::ipv4_addr, wire::experiment_id, std::uint16_t, std::uint64_t>>
        queued_;
    sim_time rtx_ready_{sim_time::zero()};
    bool rtx_pump_scheduled_{false};
    std::uint32_t trace_site_{0};
    pressure_cb pressure_handler_;
    bool pressure_engaged_{false};
    std::uint64_t pressure_epoch_{0};
    // One storage-pressure signal per source per engagement, and no
    // sooner than timing.hold after the previous signal to that source.
    struct signal_state {
        std::uint64_t epoch{0};
        sim_time last{};
    };
    std::unordered_map<wire::ipv4_addr, signal_state> signalled_;
};

} // namespace mmtp::core
