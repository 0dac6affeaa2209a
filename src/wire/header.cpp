#include "wire/header.hpp"

namespace mmtp::wire {

std::string to_string(const mode& m)
{
    std::string s = "cfg" + std::to_string(m.cfg_id) + "[";
    bool first = true;
    auto add = [&](feature f, const char* name) {
        if (!m.has(f)) return;
        if (!first) s += ',';
        s += name;
        first = false;
    };
    add(feature::sequencing, "seq");
    add(feature::retransmission, "rtx");
    add(feature::timeliness, "time");
    add(feature::pacing, "pace");
    add(feature::backpressure, "bp");
    add(feature::duplication, "dup");
    add(feature::encrypted, "enc");
    add(feature::control, "ctl");
    add(feature::timestamped, "ts");
    s += ']';
    return s;
}

bool header::consistent() const
{
    if (m.has(feature::sequencing) != sequencing.has_value()) return false;
    if (m.has(feature::retransmission) != retransmission.has_value()) return false;
    if (m.has(feature::timeliness) != timeliness.has_value()) return false;
    if (m.has(feature::pacing) != pacing.has_value()) return false;
    if (m.has(feature::control) != control.has_value()) return false;
    if (m.has(feature::timestamped) != timestamp_ns.has_value()) return false;
    return true;
}

void write_fields(const header& h, std::uint8_t* out)
{
    write_cursor c(out);
    c.u8(h.m.cfg_id);
    c.u24(h.m.cfg_data);
    c.u32(h.experiment);

    if (h.sequencing) {
        c.u48(h.sequencing->sequence);
        c.u16(h.sequencing->epoch);
    }
    if (h.retransmission) {
        c.u32(h.retransmission->buffer_addr);
    }
    if (h.timeliness) {
        c.u32(h.timeliness->deadline_us);
        c.u32(h.timeliness->age_us);
        c.u16(h.timeliness->flags);
        c.u32(h.timeliness->notify_addr);
    }
    if (h.pacing) {
        c.u32(h.pacing->pace_mbps);
    }
    if (h.control) {
        c.u8(static_cast<std::uint8_t>(*h.control));
    }
    if (h.timestamp_ns) {
        c.u64(*h.timestamp_ns);
    }
}

std::optional<header> parse(std::span<const std::uint8_t> data)
{
    if (data.size() < core_header_size) return std::nullopt;
    read_cursor r(data.data());
    header h;
    h.m.cfg_id = r.u8();
    h.m.cfg_data = r.u24();
    h.experiment = r.u32();
    // cfg_id carries the control plane's policy epoch; every epoch uses the
    // cfg-0 field layout, so any value parses.  Unknown feature bits still
    // make the extension region unparseable and must be rejected.
    if ((h.m.cfg_data & ~known_feature_mask) != 0) return std::nullopt;
    // Every extension offset is a function of the mode: one check covers
    // all the fields read below.
    if (data.size() < header_size_for(h.m)) return std::nullopt;

    if (h.m.has(feature::sequencing)) {
        sequencing_field f;
        f.sequence = r.u48();
        f.epoch = r.u16();
        h.sequencing = f;
    }
    if (h.m.has(feature::retransmission)) {
        retransmission_field f;
        f.buffer_addr = r.u32();
        h.retransmission = f;
    }
    if (h.m.has(feature::timeliness)) {
        timeliness_field f;
        f.deadline_us = r.u32();
        f.age_us = r.u32();
        f.flags = r.u16();
        f.notify_addr = r.u32();
        h.timeliness = f;
    }
    if (h.m.has(feature::pacing)) {
        pacing_field f;
        f.pace_mbps = r.u32();
        h.pacing = f;
    }
    if (h.m.has(feature::control)) {
        h.control = static_cast<control_type>(r.u8());
    }
    if (h.m.has(feature::timestamped)) {
        h.timestamp_ns = r.u64();
    }
    return h;
}

void materialize_missing_fields(header& h)
{
    if (h.m.has(feature::sequencing)) {
        if (!h.sequencing) h.sequencing = sequencing_field{};
    } else {
        h.sequencing.reset();
    }
    if (h.m.has(feature::retransmission)) {
        if (!h.retransmission) h.retransmission = retransmission_field{};
    } else {
        h.retransmission.reset();
    }
    if (h.m.has(feature::timeliness)) {
        if (!h.timeliness) h.timeliness = timeliness_field{};
    } else {
        h.timeliness.reset();
    }
    if (h.m.has(feature::pacing)) {
        if (!h.pacing) h.pacing = pacing_field{};
    } else {
        h.pacing.reset();
    }
    if (h.m.has(feature::control)) {
        if (!h.control) h.control = static_cast<control_type>(0);
    } else {
        h.control.reset();
    }
    if (h.m.has(feature::timestamped)) {
        if (!h.timestamp_ns) h.timestamp_ns = 0;
    } else {
        h.timestamp_ns.reset();
    }
}

std::optional<header> parse_core(std::span<const std::uint8_t> data)
{
    if (data.size() < core_header_size) return std::nullopt;
    read_cursor r(data.data());
    header h;
    h.m.cfg_id = r.u8();
    h.m.cfg_data = r.u24();
    h.experiment = r.u32();
    return h;
}

} // namespace mmtp::wire
