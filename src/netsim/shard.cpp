#include "netsim/shard.hpp"

#include "common/trace.hpp"
#include "netsim/node.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace mmtp::netsim {

// --- barrier_scheduler ---------------------------------------------------

std::uint32_t barrier_scheduler::park(sim_time at, std::uint64_t seq, inline_task&& t)
{
    std::uint32_t slot;
    if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    slots_[slot].fn = std::move(t);
    slots_[slot].dead = false;
    queue_.push_back(entry{at < now_ ? now_ : at, seq, slot});
    std::push_heap(queue_.begin(), queue_.end(), [](const entry& a, const entry& b) {
        if (a.at != b.at) return a.at > b.at;
        return a.seq > b.seq;
    });
    return slot;
}

void barrier_scheduler::post(sim_time at, task_class, inline_task&& t)
{
    park(at, next_seq_++, std::move(t));
}

timer_handle barrier_scheduler::post_cancellable(sim_time at, task_class,
                                                 inline_task&& t)
{
    const std::uint32_t slot = park(at, next_seq_++, std::move(t));
    return timer_handle{slot, slots_[slot].gen};
}

std::uint64_t barrier_scheduler::reserve_seq(std::uint64_t n)
{
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
}

void barrier_scheduler::post_reserved(sim_time at, std::uint64_t seq, task_class,
                                      inline_task&& t)
{
    park(at, seq, std::move(t));
}

bool barrier_scheduler::cancel(timer_handle& h)
{
    const std::uint32_t slot = h.slot;
    const std::uint32_t gen = h.gen;
    h.slot = scheduler_no_slot;
    if (slot == scheduler_no_slot || slot >= slots_.size()) return false;
    if (slots_[slot].gen != gen || slots_[slot].dead) return false;
    slots_[slot].dead = true;
    slots_[slot].fn.reset();
    return true;
}

bool barrier_scheduler::peek(sim_time& at)
{
    auto later = [](const entry& a, const entry& b) {
        if (a.at != b.at) return a.at > b.at;
        return a.seq > b.seq;
    };
    while (!queue_.empty()) {
        const entry& top = queue_.front();
        if (!slots_[top.slot].dead) {
            at = top.at;
            return true;
        }
        std::pop_heap(queue_.begin(), queue_.end(), later);
        const std::uint32_t slot = queue_.back().slot;
        queue_.pop_back();
        slots_[slot].dead = false;
        slots_[slot].gen++;
        free_slots_.push_back(slot);
    }
    return false;
}

bool barrier_scheduler::empty()
{
    sim_time unused;
    return !peek(unused);
}

std::uint64_t barrier_scheduler::run_due(sim_time limit)
{
    auto later = [](const entry& a, const entry& b) {
        if (a.at != b.at) return a.at > b.at;
        return a.seq > b.seq;
    };
    std::uint64_t n = 0;
    sim_time at;
    while (peek(at) && at <= limit) {
        std::pop_heap(queue_.begin(), queue_.end(), later);
        const entry e = queue_.back();
        queue_.pop_back();
        now_ = e.at;
        slots_[e.slot].fn.run_and_reset();
        slots_[e.slot].gen++;
        free_slots_.push_back(e.slot);
        ++n;
    }
    return n;
}

// --- shard_coordinator ---------------------------------------------------

shard_coordinator::shard_coordinator(unsigned shards)
{
    if (shards == 0) shards = 1;
    shards_.reserve(shards);
    for (unsigned i = 0; i < shards; ++i) shards_.push_back(std::make_unique<engine>());
    mailboxes_.resize(static_cast<std::size_t>(shards) * shards);
    recorders_.assign(shards, nullptr);
    epoch_executed_.assign(shards, 0);

    // Threads buy wall-clock only with real cores; the epoch algorithm
    // and its output are identical either way, so default them off on
    // single-core hosts (and let MMTP_SHARD_THREADS force either mode —
    // the TSan job forces 1 to exercise the rendezvous under contention).
    threads_on_ = std::thread::hardware_concurrency() > 1;
    if (const char* env = std::getenv("MMTP_SHARD_THREADS")) {
        if (std::strcmp(env, "0") == 0) threads_on_ = false;
        if (std::strcmp(env, "1") == 0) threads_on_ = true;
    }
}

shard_coordinator::~shard_coordinator() { stop_workers(); }

scheduler& shard_coordinator::control_plane()
{
    if (!multi()) return *shards_[0];
    return ctl_;
}

void shard_coordinator::note_cut_link(sim_duration propagation)
{
    if (propagation.ns <= 0) return; // network rejects these before us
    if (!have_cut_ || propagation < lookahead_) lookahead_ = propagation;
    have_cut_ = true;
}

void shard_coordinator::post_arrival(unsigned from, unsigned to, sim_time at,
                                     packet&& p, node& dst, unsigned ingress_port)
{
    mailbox& mb = mailboxes_[static_cast<std::size_t>(from) * shard_count() + to];
    mb.box.push_back(mail{at, from, mb.next_seq++, &dst, ingress_port, std::move(p)});
}

void shard_coordinator::set_recorder(unsigned i, trace::flight_recorder* rec)
{
    recorders_[i] = rec;
}

std::uint64_t shard_coordinator::deliver_mail()
{
    const unsigned n = shard_count();
    std::uint64_t delivered = 0;
    for (unsigned d = 0; d < n; ++d) {
        staged_.clear();
        for (unsigned s = 0; s < n; ++s) {
            auto& box = mailboxes_[static_cast<std::size_t>(s) * n + d].box;
            for (auto& m : box) staged_.push_back(std::move(m));
            box.clear();
        }
        if (staged_.empty()) continue;
        // Deterministic merge: arrival time, then source shard, then the
        // source mailbox's own monotonic seq — thread interleaving can
        // never reorder insertion, so the destination engine's sequence
        // numbers (and everything downstream) are reproducible.
        std::sort(staged_.begin(), staged_.end(), [](const mail& a, const mail& b) {
            if (a.at != b.at) return a.at < b.at;
            if (a.src != b.src) return a.src < b.src;
            return a.seq < b.seq;
        });
        engine& e = *shards_[d];
        for (auto& m : staged_) {
            auto arrival = [dst = m.dst, port = m.port, pkt = std::move(m.pkt)]() mutable {
                pkt.hops++;
                dst->deliver(std::move(pkt), port);
            };
            static_assert(inline_task::stored_inline<decltype(arrival)>,
                          "cross-shard arrival closure must not heap-allocate");
            e.schedule_at(m.at, task_class::link_arrival, std::move(arrival));
            ++delivered;
        }
    }
    scaling_.cross_shard_messages += delivered;
    return delivered;
}

std::uint64_t shard_coordinator::run_epoch(sim_time until)
{
    const unsigned n = shard_count();
    std::uint64_t executed = 0;
    double slowest = 0.0;
    double serial = 0.0;
    if (threads_on_) {
        if (workers_.empty()) start_workers();
        std::vector<double> wall_before(n);
        for (unsigned i = 0; i < n; ++i)
            wall_before[i] = shards_[i]->profile().wall_seconds;
        {
            std::unique_lock<std::mutex> lk(mu_);
            epoch_target_ = until;
            done_count_ = 0;
            epoch_gen_++;
            cv_go_.notify_all();
            cv_done_.wait(lk, [&] { return done_count_ == n; });
        }
        for (unsigned i = 0; i < n; ++i) {
            executed += epoch_executed_[i];
            const double dt = shards_[i]->profile().wall_seconds - wall_before[i];
            serial += dt;
            if (dt > slowest) slowest = dt;
        }
    } else {
        trace::flight_recorder* saved = trace::recorder();
        for (unsigned i = 0; i < n; ++i) {
            trace::install(recorders_[i]);
            const double before = shards_[i]->profile().wall_seconds;
            executed += shards_[i]->run_until(until);
            const double dt = shards_[i]->profile().wall_seconds - before;
            serial += dt;
            if (dt > slowest) slowest = dt;
        }
        trace::install(saved);
    }
    scaling_.critical_path_seconds += slowest;
    scaling_.serial_seconds += serial;
    return executed;
}

std::uint64_t shard_coordinator::run()
{
    if (!multi()) return shards_[0]->run();

    // Shard 0 inherits the caller's recorder unless one was set
    // explicitly, mirroring the single-shard tracing contract.
    if (recorders_[0] == nullptr) recorders_[0] = trace::recorder();

    constexpr sim_time horizon{std::numeric_limits<std::int64_t>::max()};
    std::uint64_t executed = 0;
    for (;;) {
        deliver_mail();
        sim_time tmin{};
        bool have = false;
        for (auto& sh : shards_) {
            sim_time a;
            if (sh->next_event_at(a) && (!have || a < tmin)) {
                tmin = a;
                have = true;
            }
        }
        sim_time tctl{};
        const bool have_ctl = ctl_.peek(tctl);
        if (!have && !have_ctl) break;
        // Control-plane tasks due no later than the next engine event run
        // first, at the barrier, with every shard quiescent beyond them.
        if (have_ctl && (!have || tctl <= tmin)) {
            executed += ctl_.run_due(have ? tmin : tctl);
            continue;
        }
        sim_time until = horizon; // no cut links: one epoch drains all
        if (have_cut_ && horizon.ns - lookahead_.ns > tmin.ns)
            until = sim_time{tmin.ns + lookahead_.ns - 1}; // [T_min, T_min+L)
        executed += run_epoch(until);
        scaling_.epochs++;
    }
    return executed;
}

std::uint64_t shard_coordinator::executed() const
{
    std::uint64_t n = 0;
    for (const auto& sh : shards_) n += sh->profile().executed;
    return n;
}

void shard_coordinator::start_workers()
{
    quit_ = false;
    workers_.reserve(shard_count());
    for (unsigned i = 0; i < shard_count(); ++i)
        workers_.emplace_back([this, i] { worker_loop(i); });
}

void shard_coordinator::stop_workers()
{
    if (workers_.empty()) return;
    {
        std::lock_guard<std::mutex> lk(mu_);
        quit_ = true;
        cv_go_.notify_all();
    }
    for (auto& w : workers_) w.join();
    workers_.clear();
}

void shard_coordinator::worker_loop(unsigned i)
{
    std::uint64_t seen = 0;
    for (;;) {
        sim_time until;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_go_.wait(lk, [&] { return quit_ || epoch_gen_ != seen; });
            if (quit_) return;
            seen = epoch_gen_;
            until = epoch_target_;
        }
        // Thread-local recorder: this shard's emits land in its own ring.
        trace::install(recorders_[i]);
        const std::uint64_t n = shards_[i]->run_until(until);
        {
            std::lock_guard<std::mutex> lk(mu_);
            epoch_executed_[i] = n;
            if (++done_count_ == shard_count()) cv_done_.notify_one();
        }
    }
}

} // namespace mmtp::netsim
