#include "daq/trigger.hpp"

namespace mmtp::daq {

iceberg_stream::iceberg_stream(rng r, config cfg)
    : cfg_(cfg), synth_(r, cfg.synth)
{
}

std::optional<timed_message> iceberg_stream::next()
{
    if (cfg_.record_limit != 0 && emitted_ >= cfg_.record_limit) return std::nullopt;

    timed_message tm;
    tm.at = at_;
    tm.msg.experiment =
        wire::make_experiment_id(wire::experiments::iceberg, cfg_.slice);
    tm.msg.sequence = emitted_;
    tm.msg.timestamp_ns = static_cast<std::uint64_t>(at_.ns);
    tm.msg.size_bytes = message_bytes(cfg_.frames_per_record);

    // Reserved to the bytes written below: the header, plus the frames
    // when they are materialized (size_bytes counts both).
    byte_writer w(cfg_.materialize_frames ? tm.msg.size_bytes : daq_header::wire_bytes);
    daq_header dh;
    dh.experiment = tm.msg.experiment;
    dh.sequence = emitted_;
    dh.timestamp_ns = tm.msg.timestamp_ns;
    dh.record_count = static_cast<std::uint16_t>(cfg_.frames_per_record);
    dh.serialize(w);

    if (cfg_.materialize_frames) {
        wib_frame f;
        f.crate = 1;
        f.slot = static_cast<std::uint8_t>(cfg_.slice >> 2);
        f.fiber = static_cast<std::uint8_t>(cfg_.slice & 3);
        for (std::uint32_t i = 0; i < cfg_.frames_per_record; ++i) {
            f.timestamp = static_cast<std::uint64_t>(at_.ns) / wib_tick_ns + i;
            synth_.fill(f);
            const auto bytes = f.serialize();
            w.bytes(bytes);
        }
    }
    tm.msg.inline_payload = w.take();

    emitted_++;
    at_ = at_ + cfg_.trigger_interval;
    return tm;
}

bool supernova_source::in_burst(sim_time t) const
{
    if (cfg_.burst_onset.is_never()) return false;
    return t >= cfg_.burst_onset && t < cfg_.burst_onset + cfg_.burst_duration;
}

std::optional<timed_message> supernova_source::next()
{
    if (cfg_.message_limit != 0 && emitted_ >= cfg_.message_limit) return std::nullopt;

    timed_message tm;
    tm.at = at_;
    tm.msg.experiment = cfg_.experiment;
    tm.msg.sequence = emitted_;
    tm.msg.timestamp_ns = static_cast<std::uint64_t>(at_.ns);
    tm.msg.size_bytes = cfg_.message_bytes;
    // Flag burst messages so downstream (alert generation) can react.
    byte_writer w(daq_header::wire_bytes);
    daq_header dh;
    dh.experiment = cfg_.experiment;
    dh.sequence = emitted_;
    dh.timestamp_ns = tm.msg.timestamp_ns;
    dh.record_count = 1;
    dh.flags = in_burst(at_) ? 1 : 0;
    dh.serialize(w);
    tm.msg.inline_payload = w.take();

    emitted_++;
    const auto step = in_burst(at_)
        ? sim_duration{cfg_.quiet_interval.ns / cfg_.burst_multiplier}
        : cfg_.quiet_interval;
    at_ = at_ + step;
    return tm;
}

} // namespace mmtp::daq
