#include "telemetry/run_recorder.hpp"

#include "common/bytes.hpp"

#include <cstdlib>

namespace mmtp::telemetry {

namespace {

void put_string(byte_writer& w, const std::string& s)
{
    w.u16(static_cast<std::uint16_t>(s.size()));
    w.bytes(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

std::string get_string(byte_reader& r)
{
    const auto n = r.u16();
    const auto b = r.bytes(n);
    if (r.failed()) return {};
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

} // namespace

// ------------------------------------------------------------- recorder

run_recorder::run_recorder(const std::string& scenario, std::uint64_t seed)
{
    writer_.set_attribute("scenario", scenario);
    writer_.set_attribute("seed", std::to_string(seed));
}

void run_recorder::capture_trace(const trace::flight_recorder& fr)
{
    for (std::uint32_t id = 0; id < fr.site_count(); ++id) {
        const auto& name = fr.site_name(id);
        daq::archived_record rec;
        rec.sequence = id;
        rec.payload.assign(name.begin(), name.end());
        rec.size_bytes = static_cast<std::uint32_t>(rec.payload.size());
        writer_.append(run_ds_sites, rec);
    }
    for (const auto& ev : fr.events()) {
        byte_writer w;
        w.u32(ev.site);
        w.u8(static_cast<std::uint8_t>(ev.kind));
        w.u8(static_cast<std::uint8_t>(ev.why));
        w.u64(ev.packet_id);
        w.u64(ev.arg);
        daq::archived_record rec;
        rec.sequence = wire_events_;
        rec.timestamp_ns = static_cast<std::uint64_t>(ev.at_ns);
        rec.payload = w.take();
        rec.size_bytes = static_cast<std::uint32_t>(rec.payload.size());
        writer_.append(run_ds_wire, rec);
        wire_events_++;
    }
    writer_.set_attribute("wire_events", std::to_string(wire_events_));
    writer_.set_attribute("sites", std::to_string(fr.site_count()));
}

void run_recorder::capture_metrics(const metrics_registry& reg)
{
    for (const auto& row : reg.snapshot()) {
        byte_writer w;
        put_string(w, row.metric);
        put_string(w, row.field);
        w.u64(static_cast<std::uint64_t>(row.value)); // two's complement
        daq::archived_record rec;
        rec.sequence = metrics_rows_;
        rec.payload = w.take();
        rec.size_bytes = static_cast<std::uint32_t>(rec.payload.size());
        writer_.append(run_ds_metrics, rec);
        metrics_rows_++;
    }
    writer_.set_attribute("metrics_rows", std::to_string(metrics_rows_));
}

void run_recorder::capture_report(const std::string& csv)
{
    daq::archived_record rec;
    rec.sequence = 0;
    rec.payload.assign(csv.begin(), csv.end());
    rec.size_bytes = static_cast<std::uint32_t>(rec.payload.size());
    writer_.append(run_ds_report, rec);
}

std::vector<std::uint8_t> run_recorder::finalize() { return writer_.finalize(); }

// ------------------------------------------------------------- replayer

std::optional<run_replayer> run_replayer::open(std::vector<std::uint8_t> blob)
{
    auto reader = daq::archive_reader::open(std::move(blob));
    if (!reader) return std::nullopt;
    return run_replayer(std::move(*reader));
}

std::string run_replayer::scenario() const
{
    return reader_.attribute("scenario").value_or("");
}

std::uint64_t run_replayer::seed() const
{
    const auto s = reader_.attribute("seed").value_or("0");
    return std::strtoull(s.c_str(), nullptr, 10);
}

std::string run_replayer::metrics_csv() const
{
    std::string out = "metric,field,value\n";
    for (const auto& rec : reader_.read_all(run_ds_metrics)) {
        byte_reader r(rec.payload);
        const auto metric = get_string(r);
        const auto field = get_string(r);
        const auto value = static_cast<std::int64_t>(r.u64());
        if (r.failed()) continue;
        out += metric;
        out += ',';
        out += field;
        out += ',';
        out += std::to_string(value);
        out += '\n';
    }
    return out;
}

std::string run_replayer::report_csv() const
{
    const auto recs = reader_.read_all(run_ds_report);
    if (recs.empty()) return {};
    return std::string(recs.front().payload.begin(), recs.front().payload.end());
}

std::vector<replayed_event> run_replayer::wire_events() const
{
    std::vector<replayed_event> out;
    for (const auto& rec : reader_.read_all(run_ds_wire)) {
        byte_reader r(rec.payload);
        replayed_event ev;
        ev.at_ns = static_cast<std::int64_t>(rec.timestamp_ns);
        ev.site = r.u32();
        ev.kind = static_cast<trace::hop>(r.u8());
        ev.why = static_cast<trace::reason>(r.u8());
        ev.packet_id = r.u64();
        ev.arg = r.u64();
        if (r.failed()) continue;
        out.push_back(ev);
    }
    return out;
}

void run_replayer::replay_wire(const std::function<void(const replayed_event&)>& fn) const
{
    for (const auto& ev : wire_events()) fn(ev);
}

void run_replayer::rebuild_flight_recorder(trace::flight_recorder& fr) const
{
    for (const auto& rec : reader_.read_all(run_ds_sites)) {
        if (rec.sequence == 0) continue; // slot 0 is the reserved unnamed site
        fr.site(std::string(rec.payload.begin(), rec.payload.end()));
    }
    for (const auto& ev : wire_events())
        fr.emit(ev.at_ns, ev.site, ev.kind, ev.packet_id, ev.arg, ev.why);
}

bool run_replayer::verify() const
{
    const auto want_events = reader_.attribute("wire_events");
    const auto want_rows = reader_.attribute("metrics_rows");
    if (want_events
        && std::strtoull(want_events->c_str(), nullptr, 10)
            != reader_.record_count(run_ds_wire))
        return false;
    if (want_rows
        && std::strtoull(want_rows->c_str(), nullptr, 10)
            != reader_.record_count(run_ds_metrics))
        return false;
    return true;
}

} // namespace mmtp::telemetry
