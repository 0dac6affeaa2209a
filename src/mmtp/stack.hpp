// stack.hpp — per-host MMTP demultiplexer.
//
// One stack per host. It claims MMTP traffic arriving either directly on
// L2 (ethertype 0x88B5) or over IPv4 protocol 253 (Req 1), separates data
// datagrams from control messages, and fans them out to the components
// that registered interest: receivers (data), buffer services (NAKs),
// senders (backpressure), and monitoring hooks (deadline notifications,
// buffer adverts).
#pragma once

#include "netsim/host.hpp"
#include "wire/build.hpp"
#include "wire/control.hpp"
#include "wire/header.hpp"

#include <functional>
#include <vector>

namespace mmtp::core {

/// A datagram delivered up from the wire, header fully parsed.
struct delivered_datagram {
    wire::header hdr;
    std::vector<std::uint8_t> payload;
    std::uint64_t total_payload_bytes{0};
    sim_time received{sim_time::zero()};
    wire::ipv4_addr src{0}; // 0 when the datagram arrived directly on L2
    bool over_l2{false};
    std::uint64_t packet_id{0};
};

class stack {
public:
    using data_cb = std::function<void(delivered_datagram&&)>;
    using nak_cb = std::function<void(const wire::nak_body&, wire::experiment_id,
                                      wire::ipv4_addr src)>;
    using backpressure_cb = std::function<void(const wire::backpressure_body&)>;
    using deadline_cb = std::function<void(const wire::deadline_exceeded_body&)>;
    using advert_cb = std::function<void(const wire::buffer_advert_body&)>;
    using flush_cb = std::function<void(const wire::stream_flush_body&)>;

    stack(netsim::host& h, netsim::packet_id_source& ids);

    void set_data_sink(data_cb cb) { data_sink_ = std::move(cb); }
    void set_nak_handler(nak_cb cb) { nak_handler_ = std::move(cb); }
    void add_backpressure_handler(backpressure_cb cb)
    {
        backpressure_handlers_.push_back(std::move(cb));
    }
    void set_deadline_handler(deadline_cb cb) { deadline_handler_ = std::move(cb); }
    void set_advert_handler(advert_cb cb) { advert_handler_ = std::move(cb); }
    void set_flush_handler(flush_cb cb) { flush_handler_ = std::move(cb); }

    /// Sends an MMTP datagram over IPv4 toward `dst`. Returns packet id.
    std::uint64_t send_datagram(wire::ipv4_addr dst, const wire::header& h,
                                std::vector<std::uint8_t> payload,
                                std::uint64_t extra_virtual = 0);

    /// Sends an MMTP datagram directly over L2 out of `port` (Req 1).
    std::uint64_t send_datagram_l2(unsigned port, const wire::header& h,
                                   std::vector<std::uint8_t> payload,
                                   std::uint64_t extra_virtual = 0);

    /// Convenience: send a control message with a serialized body.
    std::uint64_t send_control(wire::ipv4_addr dst, wire::experiment_id experiment,
                               wire::control_type type, std::vector<std::uint8_t> body);

    netsim::host& host() { return host_; }
    netsim::engine& sim() { return host_.sim(); }

    struct stack_stats {
        std::uint64_t data_in{0};
        std::uint64_t control_in{0};
        std::uint64_t malformed{0};
        /// Control messages whose type was known but whose body failed to
        /// parse (truncated/corrupted) — dropped, not silently ignored.
        std::uint64_t control_parse_errors{0};
        std::uint64_t sent{0};
    };
    const stack_stats& stats() const { return stats_; }

    /// Interned flight-recorder site id for endpoint drop records.
    void set_trace_site(std::uint32_t site) { trace_site_ = site; }

private:
    void on_ipv4(netsim::packet&& p, const wire::ipv4_header& ip, std::size_t offset);
    void on_l2(netsim::packet&& p, std::size_t offset);
    void dispatch(netsim::packet&& p, std::size_t mmtp_offset, wire::ipv4_addr src,
                  bool over_l2);
    void dispatch_control(const wire::header& h, const delivered_datagram& d);
    void note_parse_error(const delivered_datagram& d);

    netsim::host& host_;
    netsim::packet_id_source& ids_;
    data_cb data_sink_;
    nak_cb nak_handler_;
    std::vector<backpressure_cb> backpressure_handlers_;
    deadline_cb deadline_handler_;
    advert_cb advert_handler_;
    flush_cb flush_handler_;
    stack_stats stats_;
    std::uint32_t trace_site_{0};
};

} // namespace mmtp::core
