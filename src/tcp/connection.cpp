#include "tcp/connection.hpp"

#include "netsim/engine.hpp"
#include "wire/lower.hpp"

namespace mmtp::tcp {

namespace {

/// Jumbo frames (§2.1), leaving header room in a 9000-byte MTU.
constexpr std::uint32_t mss = 8900;
constexpr std::uint64_t init_cwnd_bytes = 10ull * mss;
constexpr sim_duration min_rto{200000000};      // 200 ms (Linux)
constexpr sim_duration initial_rto{1000000000}; // 1 s pre-RTT-sample
constexpr sim_duration delayed_ack{500000};     // 500 us

} // namespace

tcp_config tuned_dtn_config(data_rate path_rate, sim_duration rtt, data_rate host_limit)
{
    tcp_config cfg;
    const double bdp = static_cast<double>(path_rate.bits_per_sec) / 8.0 * rtt.seconds();
    cfg.send_buffer_bytes = static_cast<std::uint64_t>(bdp * 2.0) + 1 * 1024 * 1024;
    cfg.recv_buffer_bytes = cfg.send_buffer_bytes;
    cfg.host_limit = host_limit;
    return cfg;
}

connection::connection(netsim::host& h, netsim::packet_id_source& ids, tcp_config cfg,
                       std::uint16_t local_port, wire::ipv4_addr remote_addr,
                       std::uint16_t remote_port)
    : host_(h),
      eng_(h.sim()),
      ids_(ids),
      cfg_(cfg),
      local_port_(local_port),
      remote_addr_(remote_addr),
      remote_port_(remote_port),
      cc_(mss, init_cwnd_bytes)
{
    rwnd_ = cfg_.recv_buffer_bytes; // assume a peer like us until told
}

sim_duration connection::rto() const
{
    sim_duration base = initial_rto;
    if (srtt_) {
        base = *srtt_ + 4 * rttvar_;
        if (base < min_rto) base = min_rto;
    }
    // exponential backoff on consecutive timeouts
    for (std::uint32_t i = 0; i < rto_backoff_ && base.ns < 60'000'000'000; ++i)
        base = base * 2;
    return base;
}

void connection::rtt_sample(sim_duration sample)
{
    if (!srtt_) {
        srtt_ = sample;
        rttvar_ = sample / 2;
    } else {
        const auto err = sim_duration{std::abs(sample.ns - srtt_->ns)};
        rttvar_ = sim_duration{(3 * rttvar_.ns + err.ns) / 4};
        srtt_ = sim_duration{(7 * srtt_->ns + sample.ns) / 8};
    }
    stats_.last_srtt = *srtt_;
    cc_.on_rtt_sample(sample);
}

void connection::connect()
{
    state_ = state::syn_sent;
    emit(0, 0, flag_bit(tcp_flag::syn), false);
    snd_nxt_ = 1;
    stream_end_ = 1 + app_written_;
    arm_rto();
}

void connection::begin_passive(const segment_header& syn)
{
    rcv_nxt_ = syn.seq + 1;
    rwnd_ = syn.window;
    state_ = state::syn_received;
    emit(0, 0, flag_bit(tcp_flag::syn) | flag_bit(tcp_flag::ack), false);
    snd_nxt_ = 1;
    stream_end_ = 1 + app_written_;
    arm_rto();
}

std::uint64_t connection::send(std::uint64_t bytes)
{
    const std::uint64_t queued = state_ == state::closed
        ? app_written_
        : (stream_end_ > snd_una_ ? stream_end_ - snd_una_ : 0);
    const std::uint64_t room =
        cfg_.send_buffer_bytes > queued ? cfg_.send_buffer_bytes - queued : 0;
    const std::uint64_t accepted = bytes < room ? bytes : room;
    app_written_ += accepted;
    if (state_ != state::closed) stream_end_ = 1 + app_written_;
    maybe_send_data();
    return accepted;
}

std::uint64_t connection::inflight() const
{
    const std::uint64_t outstanding = snd_nxt_ - snd_una_;
    const std::uint64_t sacked = sacked_.covered();
    return outstanding > sacked ? outstanding - sacked : 0;
}

std::uint64_t connection::effective_window() const
{
    const std::uint64_t w = cc_.cwnd();
    return w < rwnd_ ? w : rwnd_;
}

std::uint32_t connection::advertised_window() const
{
    // App consumes delivered bytes instantly, so only out-of-order bytes
    // occupy the receive buffer.
    const std::uint64_t ooo = received_.covered();
    const std::uint64_t free_bytes =
        cfg_.recv_buffer_bytes > ooo ? cfg_.recv_buffer_bytes - ooo : 0;
    return free_bytes > 0xffffffffull ? 0xffffffffu
                                      : static_cast<std::uint32_t>(free_bytes);
}

std::vector<sack_block> connection::current_sacks() const
{
    std::vector<sack_block> out;
    for (const auto& [s, e] : received_.intervals()) {
        if (e <= rcv_nxt_) continue;
        out.push_back({s > rcv_nxt_ ? s : rcv_nxt_, e});
        if (out.size() >= max_sack_blocks) break;
    }
    return out;
}

void connection::emit(std::uint64_t seq, std::uint64_t len, std::uint8_t flags,
                      bool retransmission)
{
    segment_header seg;
    seg.src_port = local_port_;
    seg.dst_port = remote_port_;
    seg.seq = seq;
    seg.ack = rcv_nxt_;
    seg.flags = flags;
    if (state_ != state::closed && rcv_nxt_ > 0) seg.flags |= flag_bit(tcp_flag::ack);
    seg.window = advertised_window();
    seg.sacks = current_sacks();

    netsim::packet p = host_.make_ipv4_packet(wire::ipproto_tcp, remote_addr_);
    byte_writer w;
    seg.serialize(w);
    const auto hdr_bytes = w.take();
    p.headers.insert(p.headers.end(), hdr_bytes.begin(), hdr_bytes.end());
    p.virtual_payload = len;
    p.id = ids_.next();

    stats_.segments_sent++;
    if (len > 0) {
        stats_.bytes_sent += len;
        if (retransmission) {
            stats_.retransmitted_segments++;
        } else if (timing_.size() < max_timing_probes && seq >= snd_high_) {
            // Karn's algorithm: only time data on its first transmission
            // (seq below snd_high_ means a post-RTO resend of old data).
            timing_.push_back({seq + len, eng_.now()});
        }
        const auto end = seq + len;
        if (end > snd_high_) snd_high_ = end;
    }
    host_.send_ipv4(std::move(p), remote_addr_);
}

void connection::send_ack_now()
{
    ack_generation_++;
    ack_scheduled_ = false;
    segs_since_ack_ = 0;
    emit(snd_nxt_, 0, flag_bit(tcp_flag::ack), false);
}

void connection::maybe_send_data()
{
    if (state_ != state::established) return;

    const auto now = eng_.now();
    // End-host processing ceiling: the leaky bucket says when the host
    // can next push a segment through its stack (§4.1's tuning wall).
    if (cfg_.host_limit.bits_per_sec != 0 && host_ready_ > now) {
        if (!send_pending_) {
            send_pending_ = true;
            eng_.schedule_at(host_ready_, [this] {
                send_pending_ = false;
                maybe_send_data();
            });
        }
        return;
    }

    bool sent_any = false;
    while (true) {
        const std::uint64_t wnd = effective_window();
        const std::uint64_t used = inflight();
        if (used >= wnd) break;
        const std::uint64_t budget = wnd - used;

        std::uint64_t seq = 0;
        std::uint64_t len = 0;
        bool is_rtx = false;

        if (in_recovery_) {
            if (rtx_cursor_ < snd_una_) rtx_cursor_ = snd_una_;
            // RFC 6675-flavoured loss inference: only data *below the
            // highest SACKed block* is considered lost; unsacked data
            // above it may simply still be in flight.
            std::uint64_t high = recovery_point_ < snd_nxt_ ? recovery_point_ : snd_nxt_;
            if (!sacked_.intervals().empty()) {
                const auto highest_sacked_start = sacked_.intervals().rbegin()->first;
                if (highest_sacked_start < high) high = highest_sacked_start;
            } else {
                // no SACK info: classic fast retransmit repairs only the
                // segment at snd_una
                const auto una_seg = snd_una_ + mss;
                if (una_seg < high) high = una_seg;
            }
            const auto gaps = sacked_.gaps(rtx_cursor_, high);
            if (!gaps.empty()) {
                seq = gaps.front().first;
                len = gaps.front().second - gaps.front().first;
                if (len > mss) len = mss;
                if (len > budget) len = budget;
                is_rtx = true;
                rtx_cursor_ = seq + len;
            }
        }
        if (len == 0) {
            // new data; in the post-RTO resend region, skip over ranges
            // the peer already SACKed
            if (snd_nxt_ < snd_high_ && sacked_.contains(snd_nxt_)) {
                snd_nxt_ = sacked_.next_missing(snd_nxt_);
                continue;
            }
            const std::uint64_t avail =
                stream_end_ > snd_nxt_ ? stream_end_ - snd_nxt_ : 0;
            if (avail == 0) break;
            seq = snd_nxt_;
            len = avail < mss ? avail : mss;
            if (len > budget) len = budget;
            // do not run into a SACKed range
            auto it = sacked_.intervals().upper_bound(snd_nxt_);
            if (it != sacked_.intervals().end() && it->first < snd_nxt_ + len)
                len = it->first - snd_nxt_;
            if (len == 0) break;
            snd_nxt_ += len;
        }

        emit(seq, len, flag_bit(tcp_flag::ack), is_rtx);
        sent_any = true;

        if (cfg_.host_limit.bits_per_sec != 0) {
            const auto cost = cfg_.host_limit.transmission_time(len);
            host_ready_ = (host_ready_ > now ? host_ready_ : now) + cost;
            if (host_ready_ > now) {
                if (!send_pending_) {
                    send_pending_ = true;
                    eng_.schedule_at(host_ready_, [this] {
                        send_pending_ = false;
                        maybe_send_data();
                    });
                }
                break;
            }
        }
    }
    if (sent_any) arm_rto();
}

void connection::arm_rto()
{
    const auto gen = ++rto_generation_;
    if (snd_una_ >= snd_nxt_) return; // nothing outstanding
    eng_.schedule_in(rto(), [this, gen] {
        if (gen != rto_generation_) return;
        on_rto();
    });
}

void connection::on_rto()
{
    if (snd_una_ >= snd_nxt_) return;
    stats_.timeouts++;
    rto_backoff_++;
    cc_.on_timeout(eng_.now());
    timing_.clear();
    in_recovery_ = false;
    dupacks_ = 0;

    if (state_ == state::syn_sent) {
        emit(0, 0, flag_bit(tcp_flag::syn), true);
        arm_rto();
        return;
    }
    if (state_ == state::syn_received) {
        emit(0, 0, flag_bit(tcp_flag::syn) | flag_bit(tcp_flag::ack), true);
        arm_rto();
        return;
    }

    // Go-back-N with SACK memory: rewind snd_nxt and let slow start
    // resend from the cumulative-ack point, skipping ranges the peer has
    // already SACKed (the resend path in maybe_send_data consults
    // sacked_), so only genuinely missing data crosses the wire again.
    snd_nxt_ = snd_una_;
    stats_.retransmitted_segments++; // count the rewind as repair work
    maybe_send_data();
    arm_rto();
}

void connection::enter_established()
{
    state_ = state::established;
    stream_end_ = 1 + app_written_;
    if (on_connected_) on_connected_();
    maybe_send_data();
}

void connection::deliver_in_order()
{
    const auto before = rcv_nxt_;
    auto next = received_.next_missing(rcv_nxt_);
    if (next > rcv_nxt_) {
        received_.erase(0, next);
        rcv_nxt_ = next;
    }
    if (rcv_nxt_ == before) return;

    delivered_app_ += rcv_nxt_ - before;
    if (on_delivered_) on_delivered_(delivered_app_);
}

void connection::process_ack(const segment_header& seg)
{
    rwnd_ = seg.window;
    for (const auto& b : seg.sacks) {
        if (b.start >= snd_una_) sacked_.insert(b.start, b.end);
    }

    if (seg.ack > snd_nxt_) {
        if (seg.ack > snd_high_) return; // acking data never sent: ignore
        // After a go-back-N rewind, acks may cover pre-rewind data the
        // peer already holds; fast-forward instead of resending it.
        snd_nxt_ = seg.ack;
    }

    if (seg.ack > snd_una_) {
        const std::uint64_t newly = seg.ack - snd_una_;
        snd_una_ = seg.ack;
        stats_.bytes_acked += newly;
        sacked_.erase(0, snd_una_);
        dupacks_ = 0;
        rto_backoff_ = 0;

        // sample from the newest probe the ack covers (stretch-ack safe)
        std::optional<sim_time> sent_at;
        while (!timing_.empty() && timing_.front().first <= seg.ack) {
            sent_at = timing_.front().second;
            timing_.pop_front();
        }
        if (sent_at) rtt_sample(eng_.now() - *sent_at);

        if (in_recovery_) {
            if (snd_una_ >= recovery_point_) {
                in_recovery_ = false;
            } else if (rtx_cursor_ < snd_una_) {
                rtx_cursor_ = snd_una_; // partial ack: keep repairing
            }
        } else {
            cc_.on_ack(newly, eng_.now());
        }

        if (snd_una_ >= snd_nxt_)
            rto_generation_++; // everything acked: cancel timer
        else
            arm_rto();
        if (on_writable_) on_writable_();
    } else if (seg.ack == snd_una_ && snd_nxt_ > snd_una_) {
        dupacks_++;
        if (dupacks_ == 3 && !in_recovery_) {
            stats_.fast_retransmits++;
            cc_.on_loss(eng_.now());
            in_recovery_ = true;
            // NewReno-style: recovery lasts until everything sent so far
            // is acknowledged, preventing repeated window collapses from
            // one loss burst.
            recovery_point_ = snd_high_;
            rtx_cursor_ = snd_una_;
            timing_.clear(); // Karn: don't time retransmitted data
        }
    }
    maybe_send_data();
}

void connection::handle_segment(const segment_header& seg, std::uint64_t payload_len)
{
    switch (state_) {
    case state::syn_sent:
        if (seg.has(tcp_flag::syn) && seg.has(tcp_flag::ack) && seg.ack >= 1) {
            rcv_nxt_ = seg.seq + 1;
            snd_una_ = seg.ack;
            rwnd_ = seg.window;
            rto_generation_++;
            rto_backoff_ = 0;
            enter_established();
            send_ack_now();
        }
        return;
    case state::syn_received:
        if (seg.has(tcp_flag::ack) && seg.ack >= 1) {
            snd_una_ = seg.ack > snd_una_ ? seg.ack : snd_una_;
            rto_generation_++;
            rto_backoff_ = 0;
            enter_established();
            // fall through to normal processing of any piggybacked data
            break;
        }
        return;
    case state::closed:
        return;
    case state::established:
        break;
    }

    if (seg.has(tcp_flag::ack)) process_ack(seg);
    if (payload_len == 0) return; // pure ack

    bool need_immediate_ack = false;
    const std::uint64_t seg_end = seg.seq + payload_len;
    if (seg_end <= rcv_nxt_) {
        need_immediate_ack = true; // stale duplicate
    } else if (seg.seq > rcv_nxt_ + cfg_.recv_buffer_bytes) {
        need_immediate_ack = true; // beyond our buffer: drop
    } else {
        const bool in_order = seg.seq <= rcv_nxt_;
        received_.insert(seg.seq, seg_end);
        deliver_in_order();
        if (!in_order || !received_.empty()) need_immediate_ack = true;
        segs_since_ack_++;
    }

    if (need_immediate_ack || segs_since_ack_ >= 2) {
        send_ack_now();
    } else if (!ack_scheduled_) {
        ack_scheduled_ = true;
        const auto gen = ++ack_generation_;
        eng_.schedule_in(delayed_ack, [this, gen] {
            if (gen != ack_generation_ || !ack_scheduled_) return;
            send_ack_now();
        });
    }
}

} // namespace mmtp::tcp
