#include "daq/alerts.hpp"

namespace mmtp::daq {

alert_burst_source::alert_burst_source(rng r, config cfg) : rng_(r), cfg_(cfg) {}

std::optional<timed_message> alert_burst_source::next()
{
    if (cfg_.visit_limit != 0 && visit_ >= cfg_.visit_limit) return std::nullopt;

    timed_message tm;
    tm.at = visit_start_ + cfg_.intra_burst_gap * static_cast<std::int64_t>(within_);
    tm.msg.experiment = cfg_.experiment;
    tm.msg.sequence = seq_++;
    tm.msg.timestamp_ns = static_cast<std::uint64_t>(tm.at.ns);
    // Alert sizes vary around the mean (serialized image cutouts differ);
    // clamp to [mean/4, mean*4] to keep the distribution realistic.
    const double factor = 0.25 + rng_.exponential(0.75);
    double sz = static_cast<double>(cfg_.mean_alert_bytes) * (factor > 4.0 ? 4.0 : factor);
    tm.msg.size_bytes = static_cast<std::uint32_t>(sz);
    if (tm.msg.size_bytes < daq_header::wire_bytes)
        tm.msg.size_bytes = daq_header::wire_bytes;

    byte_writer w;
    daq_header dh;
    dh.experiment = cfg_.experiment;
    dh.sequence = tm.msg.sequence;
    dh.timestamp_ns = tm.msg.timestamp_ns;
    dh.record_count = 1;
    dh.serialize(w);
    tm.msg.inline_payload = w.take();

    if (++within_ >= cfg_.alerts_per_visit) {
        within_ = 0;
        visit_++;
        visit_start_ = visit_start_ + cfg_.visit_interval;
    }
    return tm;
}

std::vector<std::uint8_t> supernova_alert_source::alert_body::serialize(
    wire::experiment_id experiment, std::uint64_t timestamp_ns) const
{
    byte_writer w;
    daq_header dh;
    dh.experiment = experiment;
    dh.sequence = 0;
    dh.timestamp_ns = timestamp_ns;
    dh.record_count = 1;
    dh.flags = 0x8000; // alert flag
    dh.serialize(w);
    w.u32(static_cast<std::uint32_t>(ra_udeg));
    w.u32(static_cast<std::uint32_t>(dec_udeg));
    w.u16(confidence_permille);
    return w.take();
}

std::optional<supernova_alert_source::alert_body> supernova_alert_source::alert_body::parse(
    std::span<const std::uint8_t> payload)
{
    if (payload.size() < daq_header::wire_bytes + 10) return std::nullopt;
    byte_reader r(payload.subspan(daq_header::wire_bytes));
    alert_body b;
    b.ra_udeg = static_cast<std::int32_t>(r.u32());
    b.dec_udeg = static_cast<std::int32_t>(r.u32());
    b.confidence_permille = r.u16();
    if (r.failed()) return std::nullopt;
    return b;
}

supernova_alert_source::supernova_alert_source(wire::experiment_id experiment,
                                               sim_time onset, alert_body body)
    : experiment_(experiment), onset_(onset), body_(body)
{
}

std::optional<timed_message> supernova_alert_source::next()
{
    if (emitted_) return std::nullopt;
    emitted_ = true;
    timed_message tm;
    tm.at = onset_;
    tm.msg.experiment = experiment_;
    tm.msg.sequence = 0;
    tm.msg.timestamp_ns = static_cast<std::uint64_t>(onset_.ns);
    tm.msg.inline_payload =
        body_.serialize(experiment_, tm.msg.timestamp_ns);
    tm.msg.size_bytes = static_cast<std::uint32_t>(tm.msg.inline_payload.size());
    return tm;
}

} // namespace mmtp::daq
