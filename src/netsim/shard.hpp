// shard.hpp — conservative parallel simulation across per-domain engines.
//
// The simulation is partitioned by network domain (site LAN, WAN span,
// remote facility): each domain gets its own single-threaded engine, and
// the coordinator advances them in *epochs* bounded by the minimum
// propagation delay over cut links (SimBricks-style conservative
// synchronization — inter-domain links have real propagation delay,
// which is exactly the lookahead bound a conservative scheme needs).
//
// Epoch algorithm (DESIGN.md §16):
//   1. deliver cross-shard mail staged during the previous epoch
//   2. T_min = earliest pending event across all shards
//   3. every shard runs its events in [T_min, T_min + L) concurrently,
//      where L = min propagation over cut links (the lookahead)
//   4. barrier; goto 1
//
// Safety: an event at time s >= T_min that transmits on a cut link
// produces an arrival at s + tx + propagation >= T_min + L — strictly
// outside the running epoch — so no shard can receive a message "from
// the past". Zero-latency links are therefore rejected from partition
// cuts (netsim::network enforces this at connect time).
//
// Determinism: each engine is internally deterministic; staged mail is
// merged per destination in (arrival time, source shard, mailbox seq)
// order before insertion, so engine sequence numbers — and with them the
// whole run — are reproducible for a given seed and partition,
// regardless of thread interleaving. With one shard there are no cut
// links and no mail: run() degenerates to engine::run() on the same
// code path, keeping single-shard telemetry byte-identical with the
// pre-shard engine.
//
// Cross-domain *observers* (a recovery tracker reading a planner in one
// domain and a receiver in another) ride the barrier-synchronous control
// plane: control_plane() tasks run between epochs, when every shard is
// quiescent, at their scheduled virtual time — deterministic, race-free
// reads of any shard's state. With one shard control_plane() is the
// engine itself, so single-shard scheduling order is unchanged.
#pragma once

#include "netsim/engine.hpp"
#include "netsim/packet.hpp"

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mmtp::trace {
class flight_recorder;
}

namespace mmtp::netsim {

class node;

/// Barrier-synchronous scheduler for cross-domain control-plane tasks.
/// Tasks run between epochs — all shards quiescent and advanced past the
/// task's time — with now() pinned to each task's scheduled time. Only
/// the coordinator thread may touch it (schedule during build, or from a
/// running control-plane task).
class barrier_scheduler final : public scheduler {
public:
    sim_time now() const override { return now_; }
    bool cancel(timer_handle& h) override;
    std::uint64_t reserve_seq(std::uint64_t n) override;

    /// Earliest queued live task time; false when drained.
    bool peek(sim_time& at);
    /// Runs queued tasks with at <= limit in (time, schedule-order),
    /// advancing now() through each task's time. Returns tasks run.
    std::uint64_t run_due(sim_time limit);

    bool empty();

protected:
    void post(sim_time at, task_class tc, inline_task&& t) override;
    timer_handle post_cancellable(sim_time at, task_class tc, inline_task&& t) override;
    void post_reserved(sim_time at, std::uint64_t seq, task_class tc,
                       inline_task&& t) override;

private:
    struct entry {
        sim_time at;
        std::uint64_t seq;
        std::uint32_t slot;
    };
    struct slot_rec {
        inline_task fn;
        std::uint32_t gen{0};
        bool dead{false};
    };
    std::uint32_t park(sim_time at, std::uint64_t seq, inline_task&& t);

    std::vector<entry> queue_; // kept as a (at, seq) min-heap
    std::vector<slot_rec> slots_;
    std::vector<std::uint32_t> free_slots_;
    sim_time now_{sim_time::zero()};
    std::uint64_t next_seq_{0};
};

/// Owns N per-domain engines and advances them conservatively. One
/// instance per network; netsim::network constructs it and routes
/// cross-domain link traversals through post_arrival().
class shard_coordinator {
public:
    /// `shards` >= 1. With 1 shard the coordinator is a thin pass-through
    /// around a single engine (no threads, no mailboxes, no barriers).
    explicit shard_coordinator(unsigned shards);
    ~shard_coordinator();

    shard_coordinator(const shard_coordinator&) = delete;
    shard_coordinator& operator=(const shard_coordinator&) = delete;

    unsigned shard_count() const { return static_cast<unsigned>(shards_.size()); }
    bool multi() const { return shards_.size() > 1; }
    engine& shard(unsigned i) { return *shards_[i]; }
    const engine& shard(unsigned i) const { return *shards_[i]; }

    /// The barrier-synchronous control plane — or shard 0's engine when
    /// single-sharded, so single-shard scheduling order is unchanged.
    scheduler& control_plane();

    /// Registers a cut link's propagation delay; the minimum over all
    /// cut links is the epoch lookahead. Callers must reject zero-latency
    /// cuts before getting here (network::connect_simplex does).
    void note_cut_link(sim_duration propagation);
    /// Conservative lookahead (sim_duration::zero() when no cut links —
    /// epochs then run unbounded, i.e. one epoch drains everything).
    sim_duration lookahead() const { return lookahead_; }

    /// Stages a cross-shard link arrival: packet `p` reaches `dst` on
    /// `ingress_port` at absolute time `at`. Called from `from`'s worker
    /// thread during an epoch; delivered (sorted deterministically) at
    /// the next barrier.
    void post_arrival(unsigned from, unsigned to, sim_time at, packet&& p, node& dst,
                      unsigned ingress_port);

    /// Installs a per-shard flight recorder: shard `i`'s events emit into
    /// `rec` (thread-local install around each epoch). Shard 0 defaults
    /// to whatever recorder the calling thread had installed at run().
    void set_recorder(unsigned i, trace::flight_recorder* rec);

    /// Drains all shards (and the control plane) to completion. Returns
    /// total events executed across engines and control tasks.
    std::uint64_t run();

    /// Force worker threads on/off for multi-shard runs. Default: threads
    /// when the host has >1 hardware thread, or when MMTP_SHARD_THREADS=1;
    /// the epoch algorithm and its results are identical either way.
    void set_threading(bool on) { threads_on_ = on; }
    bool threading() const { return threads_on_; }

    /// Parallelism accounting for the shard-scaling bench: wall time of
    /// the slowest shard per epoch, summed (the critical path a parallel
    /// run is bounded by), versus the serial sum of all shards' dispatch
    /// time. Measurement-only — never byte-compared.
    struct scaling_profile {
        double critical_path_seconds{0.0};
        double serial_seconds{0.0};
        std::uint64_t epochs{0};
        std::uint64_t cross_shard_messages{0};
    };
    const scaling_profile& scaling() const { return scaling_; }

    /// Sum of per-shard executed-event counts (post-run reporting).
    std::uint64_t executed() const;

private:
    struct mail {
        sim_time at;
        std::uint32_t src;
        std::uint64_t seq;
        node* dst;
        unsigned port;
        packet pkt;
    };
    struct mailbox {
        std::vector<mail> box;
        std::uint64_t next_seq{0};
    };

    std::uint64_t deliver_mail();
    std::uint64_t run_epoch(sim_time target);
    void start_workers();
    void stop_workers();
    void worker_loop(unsigned i);

    std::vector<std::unique_ptr<engine>> shards_;
    std::vector<mailbox> mailboxes_; // [from * N + to]
    std::vector<mail> staged_;       // scratch for the per-barrier merge
    std::vector<trace::flight_recorder*> recorders_;
    barrier_scheduler ctl_;
    sim_duration lookahead_{sim_duration::zero()}; // zero = unbounded epoch
    bool have_cut_{false};
    scaling_profile scaling_;

    // Worker-thread rendezvous (multi-shard only). The mutex/cv pair
    // also publishes mailbox writes between epochs: workers finish an
    // epoch under the lock, the coordinator merges mail, then releases
    // the next epoch — a full happens-before chain each round.
    bool threads_on_{false};
    std::vector<std::thread> workers_;
    std::mutex mu_;
    std::condition_variable cv_go_;
    std::condition_variable cv_done_;
    std::uint64_t epoch_gen_{0};
    sim_time epoch_target_{sim_time::zero()};
    unsigned done_count_{0};
    bool quit_{false};
    std::vector<std::uint64_t> epoch_executed_;
};

} // namespace mmtp::netsim
