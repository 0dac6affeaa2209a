// bench_e2e — one workload run of the end-to-end benchmark, in a fresh
// single-threaded process.
//
//   bench_e2e --workload <name> --seed <n> [--trace 0|1] [--spans <file>]
//       Runs the workload once and prints one JSON object of raw
//       measurements (run.py repeats processes and aggregates them).
//       --trace 1 drains through engine::step() and charges each step to
//       its task_class; --spans writes the run's phase spans as JSON
//       lines once the run has ended.
//   bench_e2e --print-specs <name> --seed <n>
//       Prints the scenario text the workload hands to the simulator.
//   bench_e2e --scenario <file> [--trace 0|1]
//       Runs one scenario file (say, a spec --print-specs printed) with
//       the same checks, as a workload whose operations are messages.
//   bench_e2e --probe
//       Times the fixed host-speed probe (see probe.cpp).
//   bench_e2e --self-test <scenario file>
//       The benchmark's own checks (see selftest.cpp).
#include "execute.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

namespace bench {
int self_test(const std::string& scenario_path);
double probe_seconds(std::uint64_t& checksum);
}

namespace {

std::string quoted(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string number(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string hex32(std::uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "\"%08x\"", v);
    return buf;
}

double peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::string to_json(const bench::run_result& r, std::uint64_t seed)
{
    std::string j = "{";
    auto field = [&](const char* k, const std::string& v) {
        if (j.size() > 1) j += ", ";
        j += quoted(k) + ": " + v;
    };
    auto list = [](const std::vector<std::string>& v) {
        std::string s = "[";
        for (std::size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + quoted(v[i]);
        return s + "]";
    };
    field("workload", quoted(r.workload));
    field("seed", std::to_string(seed));
    field("traced", r.traced ? "true" : "false");
    field("wall_s", number(r.wall_s));
    field("setup_s", number(r.setup_s));
    field("drain_s", number(r.drain_s));
    field("parse_s", number(r.parse_s));
    field("build_s", number(r.build_s));
    field("export_s", number(r.export_s));
    field("check_s", number(r.check_s));
    std::string cls = "{";
    for (std::size_t c = 0; c < bench::class_count; ++c)
        cls += (c ? ", " : "") + quoted(bench::class_names[c]) + ": " + number(r.class_s[c]);
    field("class_s", cls + "}");
    field("attempted", std::to_string(r.attempted));
    field("failed", std::to_string(r.failed));
    field("delivered", std::to_string(r.delivered));
    field("violations", list(r.violations));
    field("errors", list(r.errors));
    field("report_crc", hex32(r.report_crc));
    field("metrics_crc", hex32(r.metrics_crc));
    field("peak_rss_mb", number(peak_rss_mb()));
    std::string counts = "{";
    for (const auto& [k, v] : r.counts)
        counts += (counts.size() > 1 ? ", " : "") + quoted(k) + ": " + std::to_string(v);
    field("counts", counts + "}");
    return j + "}";
}

bool write_spans(const std::string& path, const bench::run_result& r)
{
    std::ofstream f(path);
    for (const auto& s : r.spans)
        f << "{\"exec\": " << s.exec << ", \"spec\": " << quoted(s.spec)
          << ", \"span\": " << quoted(s.name) << ", \"start_s\": " << number(s.start_s)
          << ", \"end_s\": " << number(s.end_s) << "}\n";
    return static_cast<bool>(f);
}

int usage()
{
    std::fprintf(stderr,
                 "usage: bench_e2e --workload <name> --seed <n> [--trace 0|1] [--spans <file>]\n"
                 "       bench_e2e --print-specs <name> --seed <n>\n"
                 "       bench_e2e --scenario <file> [--trace 0|1]\n"
                 "       bench_e2e --probe\n"
                 "       bench_e2e --self-test <scenario file>\n");
    return 2;
}

} // namespace

int main(int argc, char** argv)
{
    if (argc == 2 && std::string(argv[1]) == "--probe") {
        std::uint64_t checksum = 0;
        const double s = bench::probe_seconds(checksum);
        std::printf("{\"probe_s\": %s, \"checksum\": %llu}\n", number(s).c_str(),
                    static_cast<unsigned long long>(checksum));
        return 0;
    }
    std::string workload, spans, self_test, scenario_file;
    bool print_specs = false, traced = false, have_seed = false;
    std::uint64_t seed = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload") {
            workload = v;
        } else if (k == "--print-specs") {
            workload = v;
            print_specs = true;
        } else if (k == "--seed") {
            char* end = nullptr;
            seed = std::strtoull(v.c_str(), &end, 10);
            have_seed = end != v.c_str() && *end == '\0';
        } else if (k == "--trace") {
            traced = v == "1";
        } else if (k == "--spans") {
            spans = v;
        } else if (k == "--scenario") {
            scenario_file = v;
        } else if (k == "--self-test") {
            self_test = v;
        } else {
            return usage();
        }
    }
    if (argc % 2 == 0) return usage();
    if (!self_test.empty()) return bench::self_test(self_test);

    std::optional<bench::workload> w;
    if (!scenario_file.empty()) {
        std::ifstream f(scenario_file);
        std::stringstream text;
        text << f.rdbuf();
        if (!f) {
            std::fprintf(stderr, "cannot read %s\n", scenario_file.c_str());
            return 2;
        }
        workload = scenario_file;
        w = bench::workload{workload, {{workload, text.str()}}};
    } else if (have_seed) {
        w = bench::make_workload(workload, seed);
    } else {
        return usage();
    }
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
        return 2;
    }
    if (print_specs) {
        for (const auto& s : w->specs) std::printf("# --- %s\n%s\n", s.name.c_str(), s.text.c_str());
        return 0;
    }
    try {
        const bench::run_result r = bench::run_workload(*w, traced);
        if (!spans.empty() && !write_spans(spans, r)) {
            std::fprintf(stderr, "cannot write spans to %s\n", spans.c_str());
            return 1;
        }
        std::printf("%s\n", to_json(r, seed).c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_e2e: %s\n", e.what());
        return 1;
    }
    return 0;
}
