#include "mmtp/stack.hpp"

#include "common/trace.hpp"
#include "netsim/engine.hpp"

namespace mmtp::core {

stack::stack(netsim::host& h, netsim::packet_id_source& ids) : host_(h), ids_(ids)
{
    host_.set_protocol_handler(
        wire::ipproto_mmtp,
        [this](netsim::packet&& p, const wire::ipv4_header& ip, std::size_t offset) {
            on_ipv4(std::move(p), ip, offset);
        });
    host_.set_ethertype_handler(
        wire::ethertype_mmtp, [this](netsim::packet&& p, std::size_t offset) {
            on_l2(std::move(p), offset);
        });
}

void stack::on_ipv4(netsim::packet&& p, const wire::ipv4_header& ip, std::size_t offset)
{
    dispatch(std::move(p), offset, ip.src, false);
}

void stack::on_l2(netsim::packet&& p, std::size_t offset)
{
    dispatch(std::move(p), offset, 0, true);
}

void stack::dispatch(netsim::packet&& p, std::size_t mmtp_offset, wire::ipv4_addr src,
                     bool over_l2)
{
    const auto h =
        wire::parse(std::span<const std::uint8_t>(p.headers).subspan(mmtp_offset));
    if (!h) {
        stats_.malformed++;
        return;
    }

    delivered_datagram d;
    d.hdr = *h;
    d.total_payload_bytes = p.payload.size() + p.virtual_payload;
    d.payload = std::move(p.payload);
    d.received = host_.sim().now();
    d.src = src;
    d.over_l2 = over_l2;
    d.packet_id = p.id;

    if (h->m.has(wire::feature::control)) {
        stats_.control_in++;
        dispatch_control(*h, d);
        return;
    }
    stats_.data_in++;
    if (data_sink_) data_sink_(std::move(d));
}

void stack::note_parse_error(const delivered_datagram& d)
{
    // A truncated or corrupted control body is a dropped message, not a
    // silent no-op: count it and leave a trace record.
    stats_.control_parse_errors++;
    trace::emit(d.received, trace_site_, trace::hop::mmtp_drop, d.packet_id,
                d.payload.size(), trace::reason::malformed);
}

void stack::dispatch_control(const wire::header& h, const delivered_datagram& d)
{
    switch (h.control.value_or(static_cast<wire::control_type>(0))) {
    case wire::control_type::nak:
        if (const auto body = wire::parse_nak(d.payload)) {
            if (nak_handler_) nak_handler_(*body, h.experiment, d.src);
        } else {
            note_parse_error(d);
        }
        break;
    case wire::control_type::backpressure:
        if (const auto body = wire::parse_backpressure(d.payload)) {
            for (const auto& cb : backpressure_handlers_) cb(*body);
        } else {
            note_parse_error(d);
        }
        break;
    case wire::control_type::deadline_exceeded:
        if (const auto body = wire::parse_deadline_exceeded(d.payload)) {
            if (deadline_handler_) deadline_handler_(*body);
        } else {
            note_parse_error(d);
        }
        break;
    case wire::control_type::stream_flush:
        if (const auto body = wire::parse_stream_flush(d.payload)) {
            if (flush_handler_) flush_handler_(*body);
        } else {
            note_parse_error(d);
        }
        break;
    case wire::control_type::buffer_advert:
        if (const auto body = wire::parse_buffer_advert(d.payload)) {
            if (advert_handler_) advert_handler_(*body);
        } else {
            note_parse_error(d);
        }
        break;
    default:
        stats_.malformed++;
        break;
    }
}

std::uint64_t stack::send_datagram(wire::ipv4_addr dst, const wire::header& h,
                                   std::vector<std::uint8_t> payload,
                                   std::uint64_t extra_virtual)
{
    netsim::packet p;
    wire::build_mmtp_over_ipv4(p.headers, host_.mac(), host_.address(), dst, h,
                               payload.size() + extra_virtual);
    p.payload = std::move(payload);
    p.virtual_payload = extra_virtual;
    p.id = ids_.next();
    const auto id = p.id;
    stats_.sent++;
    host_.send_ipv4(std::move(p), dst);
    return id;
}

std::uint64_t stack::send_datagram_l2(unsigned port, const wire::header& h,
                                      std::vector<std::uint8_t> payload,
                                      std::uint64_t extra_virtual)
{
    netsim::packet p;
    wire::build_mmtp_over_l2(p.headers, host_.mac(), /*dst_mac=*/0, h);
    p.payload = std::move(payload);
    p.virtual_payload = extra_virtual;
    p.id = ids_.next();
    const auto id = p.id;
    stats_.sent++;
    host_.send_l2(std::move(p), port);
    return id;
}

std::uint64_t stack::send_control(wire::ipv4_addr dst, wire::experiment_id experiment,
                                  wire::control_type type, std::vector<std::uint8_t> body)
{
    wire::header h;
    h.m.set(wire::feature::control);
    h.experiment = experiment;
    h.control = type;
    return send_datagram(dst, h, std::move(body));
}

} // namespace mmtp::core
