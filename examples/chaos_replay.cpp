// chaos_replay — record a kill-and-revive chaos run into an archive
// blob, then replay it without re-running the simulation.
//
//   chaos_replay record <blob>            run the drill, write the
//                                         recording plus <blob>.metrics.csv
//   chaos_replay replay <blob> <csv-out>  reopen the recording and write
//                                         the re-derived metrics CSV
//   chaos_replay --diff <a.blob> <b.blob> structural wire-event diff: the
//                                         first divergent event (index,
//                                         site, kind, timestamps), or
//                                         "identical" and exit 0
//
// Record the same seed twice: the blobs are byte-identical. Replay a
// recording: the CSV it re-derives matches the live run's byte-for-byte
// (the CI replay-determinism job diffs exactly that). The blob also
// carries every wire event and the interned site table, so offline
// tools can rebuild a flight recorder and walk message timelines long
// after the run — the recorded-run corpus the ROADMAP asks for.
#include "scenario/chaos.hpp"
#include "telemetry/run_recorder.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace {

bool write_file(const std::string& path, const void* data, std::size_t size)
{
    std::ofstream f(path, std::ios::binary);
    if (!f) return false;
    f.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
    return static_cast<bool>(f);
}

std::vector<std::uint8_t> read_file(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

int do_record(const std::string& blob_path, std::uint64_t seed)
{
    using namespace mmtp;
    auto cfg = scenario::kill_revive_config();
    cfg.record = true;
    cfg.seed = seed;
    const auto r = scenario::run_chaos_drill(cfg);

    if (!write_file(blob_path, r.recording.data(), r.recording.size())) {
        std::fprintf(stderr, "cannot write %s\n", blob_path.c_str());
        return 1;
    }
    const auto csv_path = blob_path + ".metrics.csv";
    if (!write_file(csv_path, r.metrics_csv.data(), r.metrics_csv.size())) {
        std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
        return 1;
    }
    std::printf("recorded run: %zu bytes -> %s (live metrics -> %s)\n",
                r.recording.size(), blob_path.c_str(), csv_path.c_str());
    std::printf("delivered %llu/%llu, given up %llu, revivals %llu, "
                "recovered from archive %llu\n",
                static_cast<unsigned long long>(r.rx.datagrams),
                static_cast<unsigned long long>(r.messages_sent),
                static_cast<unsigned long long>(r.rx.given_up),
                static_cast<unsigned long long>(r.buf1.revivals),
                static_cast<unsigned long long>(r.buf1.recovered_records));
    return r.recovered2 && r.rx.given_up == 0 ? 0 : 1;
}

int do_replay(const std::string& blob_path, const std::string& csv_out)
{
    using namespace mmtp;
    auto blob = read_file(blob_path);
    if (blob.empty()) {
        std::fprintf(stderr, "cannot read %s\n", blob_path.c_str());
        return 1;
    }
    auto rep = telemetry::run_replayer::open(std::move(blob));
    if (!rep || !rep->verify()) {
        std::fprintf(stderr, "malformed or inconsistent recording\n");
        return 1;
    }
    const auto csv = rep->metrics_csv();
    if (!write_file(csv_out, csv.data(), csv.size())) {
        std::fprintf(stderr, "cannot write %s\n", csv_out.c_str());
        return 1;
    }

    std::uint64_t events = 0;
    rep->replay_wire([&events](const telemetry::replayed_event&) { events++; });
    std::printf("replayed scenario '%s' (seed %llu): %llu wire events, "
                "metrics -> %s\n",
                rep->scenario().c_str(),
                static_cast<unsigned long long>(rep->seed()),
                static_cast<unsigned long long>(events), csv_out.c_str());
    return 0;
}

/// Renders one replayed event for the diff report, resolving the site id
/// through the recording's own interned site table.
std::string fmt_event(const mmtp::telemetry::replayed_event& ev,
                      const mmtp::trace::flight_recorder& fr)
{
    using namespace mmtp;
    std::string site = ev.site < fr.site_count() ? fr.site_name(ev.site)
                                                 : "site#" + std::to_string(ev.site);
    std::string out = "t=" + std::to_string(ev.at_ns) + "ns site=" + site
        + " kind=" + trace::hop_name(ev.kind) + " packet=" + std::to_string(ev.packet_id)
        + " arg=" + std::to_string(ev.arg);
    if (ev.why != trace::reason::none)
        out += std::string(" why=") + trace::reason_name(ev.why);
    return out;
}

int do_diff(const std::string& path_a, const std::string& path_b)
{
    using namespace mmtp;
    struct side {
        std::optional<telemetry::run_replayer> rep;
        std::vector<telemetry::replayed_event> events;
        trace::flight_recorder fr{1};
    };
    side s[2];
    const std::string* paths[2] = {&path_a, &path_b};
    for (int i = 0; i < 2; ++i) {
        auto blob = read_file(*paths[i]);
        if (blob.empty()) {
            std::fprintf(stderr, "cannot read %s\n", paths[i]->c_str());
            return 2;
        }
        s[i].rep = telemetry::run_replayer::open(std::move(blob));
        if (!s[i].rep || !s[i].rep->verify()) {
            std::fprintf(stderr, "%s: malformed or inconsistent recording\n",
                         paths[i]->c_str());
            return 2;
        }
        s[i].events = s[i].rep->wire_events();
        s[i].fr = trace::flight_recorder(s[i].events.size() | 1);
        s[i].rep->rebuild_flight_recorder(s[i].fr);
    }

    std::printf("a: scenario '%s' seed %llu, %zu wire events\n",
                s[0].rep->scenario().c_str(),
                static_cast<unsigned long long>(s[0].rep->seed()),
                s[0].events.size());
    std::printf("b: scenario '%s' seed %llu, %zu wire events\n",
                s[1].rep->scenario().c_str(),
                static_cast<unsigned long long>(s[1].rep->seed()),
                s[1].events.size());

    const std::size_t common = std::min(s[0].events.size(), s[1].events.size());
    for (std::size_t i = 0; i < common; ++i) {
        const auto& a = s[0].events[i];
        const auto& b = s[1].events[i];
        if (a.at_ns == b.at_ns && a.packet_id == b.packet_id && a.arg == b.arg
            && a.site == b.site && a.kind == b.kind && a.why == b.why)
            continue;
        std::printf("first divergence at event %zu:\n", i);
        std::printf("  a: %s\n", fmt_event(a, s[0].fr).c_str());
        std::printf("  b: %s\n", fmt_event(b, s[1].fr).c_str());
        return 1;
    }
    if (s[0].events.size() != s[1].events.size()) {
        const int longer = s[0].events.size() > s[1].events.size() ? 0 : 1;
        std::printf("identical through event %zu, then %c has %zu extra "
                    "event(s); first extra:\n  %c: %s\n",
                    common, longer == 0 ? 'a' : 'b',
                    s[longer].events.size() - common, longer == 0 ? 'a' : 'b',
                    fmt_event(s[longer].events[common], s[longer].fr).c_str());
        return 1;
    }
    std::printf("identical: %zu wire events match\n", common);
    return 0;
}

} // namespace

int main(int argc, char** argv)
{
    if (argc >= 3 && std::strcmp(argv[1], "record") == 0)
        return do_record(argv[2],
                         argc >= 4 ? std::strtoull(argv[3], nullptr, 10) : 42);
    if (argc >= 4 && std::strcmp(argv[1], "replay") == 0)
        return do_replay(argv[2], argv[3]);
    if (argc >= 4 && std::strcmp(argv[1], "--diff") == 0)
        return do_diff(argv[2], argv[3]);
    std::fprintf(stderr,
                 "usage: %s record <blob> [seed]\n"
                 "       %s replay <blob> <csv-out>\n"
                 "       %s --diff <a.blob> <b.blob>\n",
                 argv[0], argv[0], argv[0]);
    return 2;
}
