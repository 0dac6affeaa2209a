// dune_archive — transport + storage, end to end (§6 challenge 2).
//
// Runs the Fig. 4 pilot over a lossy WAN with *materialized* LArTPC
// frames (real WIB payload bytes, not virtual bulk), has DTN 2 transcode
// every delivered trigger record into the HDF5-style archival container,
// then reopens the archive and re-validates every WIB frame CRC — the
// full detector → transport → storage → analysis loop.
//
//   $ ./dune_archive
#include "daq/archive.hpp"
#include "daq/trigger.hpp"
#include "daq/wib.hpp"
#include "scenario/pilot.hpp"
#include "telemetry/report.hpp"

#include <cstdio>

using namespace mmtp;
using namespace mmtp::literals;

int main()
{
    scenario::pilot_config cfg;
    cfg.wan_loss = 0.02;
    cfg.wan_delay = 5_ms;
    auto tb = scenario::make_pilot(cfg);

    // DTN 2: archive every delivered record (fragments of one record share
    // a timestamp; this workload keeps records within one datagram).
    daq::archive_writer writer;
    writer.set_attribute("facility", "far-site-archive");
    writer.set_attribute("source", "iceberg-pilot");
    const auto exp = wire::make_experiment_id(wire::experiments::iceberg, 0);
    writer.set_dataset_attribute(exp, "detector", "ICEBERG LArTPC");
    std::uint64_t archived = 0;
    tb->dtn2_rx->set_on_datagram([&](const core::delivered_datagram& d) {
        daq::archived_record rec;
        rec.sequence = d.hdr.sequencing ? d.hdr.sequencing->sequence : archived;
        rec.timestamp_ns = d.hdr.timestamp_ns.value_or(0);
        rec.size_bytes = static_cast<std::uint32_t>(d.total_payload_bytes);
        rec.payload = d.payload;
        writer.append(d.hdr.experiment, rec);
        archived++;
    });

    // Detector: 400 trigger records of 3 materialized WIB frames each.
    daq::iceberg_stream::config scfg;
    scfg.record_limit = 400;
    scfg.frames_per_record = 3;
    scfg.materialize_frames = true;
    daq::iceberg_stream src(tb->net.fork_rng(), scfg);
    std::printf("streaming %llu materialized ICEBERG records across a %.0f%%-loss "
                "WAN and archiving at DTN2...\n",
                static_cast<unsigned long long>(scfg.record_limit), cfg.wan_loss * 100);
    tb->sensor_tx->drive(src);
    tb->net.sim().run();

    const auto blob = writer.finalize();

    // Re-open and verify everything, like an analysis job would.
    auto reader = daq::archive_reader::open(blob);
    if (!reader) {
        std::printf("FAILED: archive did not validate!\n");
        return 1;
    }
    std::uint64_t frames_ok = 0, frames_bad = 0;
    const auto records = reader->read_all(exp);
    for (const auto& rec : records) {
        for (std::uint32_t f = 0; f < scfg.frames_per_record; ++f) {
            const auto off = daq::daq_header::wire_bytes + f * daq::wib_frame_bytes;
            if (off + daq::wib_frame_bytes > rec.payload.size()) {
                frames_bad++;
                continue;
            }
            const auto frame = daq::wib_frame::parse(
                std::span<const std::uint8_t>(rec.payload)
                    .subspan(off, daq::wib_frame_bytes));
            if (frame)
                frames_ok++;
            else
                frames_bad++;
        }
    }

    telemetry::table t("detector -> MMTP (lossy WAN) -> archive -> analysis");
    t.set_columns({"stage", "value"});
    t.add_row({"records streamed", telemetry::fmt_count(scfg.record_limit)});
    t.add_row({"recovered from DTN1 buffer",
               telemetry::fmt_count(tb->dtn2_rx->stats().recovered)});
    t.add_row({"records archived", telemetry::fmt_count(archived)});
    t.add_row({"archive size", telemetry::fmt_count(blob.size()) + " B"});
    t.add_row({"archive facility attr", reader->attribute("facility").value_or("?")});
    t.add_row({"records read back", telemetry::fmt_count(records.size())});
    t.add_row({"WIB frames CRC-valid", telemetry::fmt_count(frames_ok)});
    t.add_row({"WIB frames corrupt", telemetry::fmt_count(frames_bad)});
    t.print();

    const bool ok = archived == scfg.record_limit && records.size() == archived
        && frames_bad == 0 && frames_ok == scfg.record_limit * scfg.frames_per_record;
    std::printf("\n%s\n",
                ok ? "OK: every frame crossed the lossy WAN and the archive intact."
                   : "FAILED: data corrupted or lost on the way to the archive!");
    return ok ? 0 : 1;
}
