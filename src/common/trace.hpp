// trace.hpp — per-packet flight recorder (hop-by-hop trace spans).
//
// Every layer a datagram crosses — link queues, programmable-element
// stages, MMTP endpoints — can emit a fixed-size span record into one
// shared ring. Records carry the simulated timestamp, an interned *site*
// id (which link / element / endpoint), a hop kind, an optional drop
// reason and one 64-bit kind-specific argument (bytes, sequence number,
// address, packed NAK range). The ring is allocated at construction but
// not zero-filled: only records already emitted are ever read, so the
// pages of a large ring that a run never reaches are never touched.
// Emitting on the packet hot path performs zero allocations; when no
// recorder is installed the emit helper is a single thread-local pointer
// test.
//
// Joining records into a *message* timeline works through binding
// events: a sequence-insert or retransmit record binds a packet id to a
// sequence number, and a clone record binds a clone's fresh packet id to
// its parent's. message_timeline() chases those bindings so the timeline
// of one DAQ message spans the original datagram, its in-network clones
// and any retransmitted copies — which is how the chaos drill shows a
// failed-over message crossing the backup WAN span.
#pragma once

#include "common/units.hpp"

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace mmtp::trace {

/// What happened at the site. Grouped by emitting layer.
enum class hop : std::uint8_t {
    // netsim link / egress queue
    link_enqueue,   // accepted into the egress queue (arg = wire bytes)
    link_dequeue,   // handed to the serializer (arg = wire bytes)
    link_drop,      // lost at the link (reason says why, arg = wire bytes)
    link_corrupt,   // corruption process fired; delivered-but-poisoned
    link_down,      // span went down; serializer stalls (arg = queued pkts)
    link_up,        // span repaired; serializer restarts
    // pnet match-action stages
    sw_mode_rewrite, // mode transition applied (arg = new cfg_data bits)
    sw_seq_insert,   // sequence number assigned (arg = sequence) [binding]
    sw_age_update,   // age field updated (arg = age_us)
    sw_clone,        // duplication clone created (arg = parent packet id) [binding]
    sw_backpressure, // backpressure signal relayed toward source (arg = level)
    sw_drop,         // dropped inside the element (reason says why)
    // MMTP endpoints
    mmtp_send,       // datagram left the sender (arg = payload bytes)
    mmtp_deliver,    // delivered to the application (arg = sequence) [binding]
    mmtp_nak,        // NAK range sent (arg = packed range)
    mmtp_retransmit, // buffer re-sent a sequence (arg = sequence) [binding]
    mmtp_failover,   // stream retargeted at fallback buffer (arg = its addr)
    mmtp_giveup,     // range abandoned as unrecoverable (arg = packed range)
    mmtp_drop,       // endpoint discarded a payload (reason says why)
    // control-plane reconfiguration spans (packet_id = 0, arg = epoch)
    ctl_reconfig_planned,   // engine decided to re-plan (arg = new epoch)
    ctl_reconfig_installed, // new epoch's rules live on the elements
    ctl_reconfig_committed, // drain window over; old epoch retired
    ctl_reconfig_aborted,   // plan dropped (duplicate / no-op / superseded)
};

/// Why a *_drop record was emitted.
enum class reason : std::uint8_t {
    none,
    queue_full,
    oversize,
    link_down,
    random_loss,
    corrupted,
    malformed,
    pipeline,
    unroutable,
    deadline_shed,
};

const char* hop_name(hop k);
const char* reason_name(reason r);

/// One fixed-size flight-recorder record (32 bytes, trivially copyable).
struct record {
    std::int64_t at_ns{0};
    std::uint64_t packet_id{0};
    std::uint64_t arg{0};
    std::uint32_t site{0};
    hop kind{hop::link_enqueue};
    reason why{reason::none};
    std::uint16_t pad_{0};
};
static_assert(sizeof(record) == 32);
static_assert(std::is_trivially_copyable_v<record>);

/// Packs a [start, start+len) sequence range into one argument word
/// (48-bit start, 16-bit length — matches the wire's 48-bit sequences).
constexpr std::uint64_t pack_range(std::uint64_t start, std::uint64_t len)
{
    return (len << 48) | (start & 0xffffffffffffull);
}
constexpr std::uint64_t range_start(std::uint64_t packed) { return packed & 0xffffffffffffull; }
constexpr std::uint64_t range_len(std::uint64_t packed) { return packed >> 48; }

/// Fixed-capacity overwrite-oldest ring of trace records, plus the site
/// name table. Emitting is allocation-free; every query is a cold path.
class flight_recorder {
public:
    /// Capacity is rounded up to a power of two (default 64Ki records,
    /// 2 MiB). All storage is allocated here, never on the emit path, and
    /// left unwritten until records fill it.
    explicit flight_recorder(std::size_t capacity = 1u << 16);

    /// Interns `name` and returns its site id (idempotent per name).
    /// Site 0 is reserved for "unnamed". Wiring-time only — allocates.
    std::uint32_t site(const std::string& name);
    const std::string& site_name(std::uint32_t id) const;
    /// Number of interned sites including the reserved "unnamed" slot 0
    /// (ids are dense: 0 .. site_count()-1) — lets a run recorder archive
    /// the whole table for faithful replay.
    std::uint32_t site_count() const { return static_cast<std::uint32_t>(site_names_.size()); }

    void emit(std::int64_t at_ns, std::uint32_t site_id, hop kind,
              std::uint64_t packet_id, std::uint64_t arg, reason why) noexcept
    {
        ring_[head_ & mask_] = record{at_ns, packet_id, arg, site_id, kind, why, 0};
        head_++;
    }

    std::size_t capacity() const { return mask_ + 1; }
    /// Total records ever emitted (monotonic, past any overwrites).
    std::uint64_t emitted() const { return head_; }
    /// Records lost to ring overwrite.
    std::uint64_t overwritten() const { return head_ > capacity() ? head_ - capacity() : 0; }

    /// Calls fn(const record&) for each surviving record, oldest first,
    /// read in place.
    template <typename Fn>
    void for_each(Fn&& fn) const
    {
        for (auto i = overwritten(); i < head_; ++i) fn(ring_[i & mask_]);
    }

    /// The oldest surviving record that pred accepts, or nullptr.
    template <typename Pred>
    const record* find_first(Pred&& pred) const
    {
        for (auto i = overwritten(); i < head_; ++i)
            if (pred(ring_[i & mask_])) return &ring_[i & mask_];
        return nullptr;
    }

    /// Surviving records, oldest first, as a copy.
    std::vector<record> events() const;

    /// Surviving records for one packet id, oldest first.
    std::vector<record> packet_events(std::uint64_t packet_id) const;

    /// The full journey of the message carrying sequence number `seq`:
    /// every record for any packet bound to the sequence (via seq-insert,
    /// retransmit or deliver records), their clones (chased through
    /// clone-binding records), plus stream-scoped records whose packed
    /// range covers the sequence (NAK, give-up) and failover records.
    std::vector<record> message_timeline(std::uint64_t seq) const;

    /// True when `seq`'s timeline contains a link-layer record at `site_id`
    /// no earlier than `after_ns` — "this message traversed the backup
    /// span after the fault".
    bool traversed(std::uint64_t seq, std::uint32_t site_id,
                   std::int64_t after_ns = std::numeric_limits<std::int64_t>::min()) const;

    /// Renders records as an aligned, deterministic text table.
    std::string format_timeline(const std::vector<record>& events) const;

private:
    struct free_ring {
        void operator()(record* p) const noexcept { ::operator delete(p); }
    };
    std::unique_ptr<record[], free_ring> ring_; // raw storage: never zero-filled
    std::uint64_t mask_{0};
    std::uint64_t head_{0};
    std::vector<std::string> site_names_;
};

// --- global installation -----------------------------------------------
//
// Each simulation thread observes through at most one recorder at a
// time; the pointer is thread_local, so emits stay lock-free. Components
// read the installed pointer on every emit, so installation can happen after
// wiring. scoped_recorder un-installs on destruction, keeping sequential
// scenarios (tests, reruns) independent.

namespace detail {
inline thread_local flight_recorder* g_recorder = nullptr;
} // namespace detail

inline flight_recorder* recorder() noexcept { return detail::g_recorder; }
inline void install(flight_recorder* r) noexcept { detail::g_recorder = r; }
inline bool active() noexcept { return detail::g_recorder != nullptr; }

/// Hot-path emit: one pointer test when no recorder is installed.
inline void emit(sim_time at, std::uint32_t site_id, hop kind, std::uint64_t packet_id,
                 std::uint64_t arg = 0, reason why = reason::none) noexcept
{
    if (flight_recorder* r = detail::g_recorder)
        r->emit(at.ns, site_id, kind, packet_id, arg, why);
}

class scoped_recorder {
public:
    explicit scoped_recorder(flight_recorder& r) { install(&r); }
    ~scoped_recorder() { install(nullptr); }
    scoped_recorder(const scoped_recorder&) = delete;
    scoped_recorder& operator=(const scoped_recorder&) = delete;
};

} // namespace mmtp::trace
