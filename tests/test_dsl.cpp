// The declarative scenario format fails closed: every malformed input
// yields a line-anchored diagnostic (never a crash, never a partially
// applied spec), typed values carry unit suffixes, render/parse is a
// fixed point, and the seeded campaign generator is deterministic.
#include "scenario/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <utility>

using namespace mmtp;
using namespace mmtp::scenario;

namespace {

/// Asserts text fails to parse with the given 1-based line (0 = whole
/// file) and a diagnostic containing `needle`.
void expect_error(const std::string& text, unsigned line, const std::string& needle)
{
    const auto out = parse_scenario(text);
    ASSERT_FALSE(out) << "accepted malformed input:\n" << text;
    EXPECT_EQ(out.error.line, line) << out.error.to_string();
    EXPECT_NE(out.error.message.find(needle), std::string::npos)
        << out.error.to_string();
}

} // namespace

// ------------------------------------------------------- happy-path parses

TEST(dsl_parse, minimal_scenario_takes_topology_defaults)
{
    const auto out = parse_scenario("[scenario]\ntopology = chaos\n");
    ASSERT_TRUE(out) << out.error.to_string();
    EXPECT_EQ(out.spec->topology, "chaos");
    EXPECT_FALSE(out.spec->lossy);
    EXPECT_EQ(out.spec->seed(), chaos_config{}.seed);
    EXPECT_EQ(out.spec->chaos.messages, chaos_config{}.messages);
}

// The pilot keeps a key of every unit type: counts, rates, durations,
// sizes, fractions and booleans.
TEST(dsl_parse, typed_values_carry_unit_suffixes)
{
    const auto out = parse_scenario(R"([scenario]
name = unit-check
topology = pilot
seed = 1234
link_burst = 8

[traffic]
records = 700
frames_per_record = 12

[links]
daq_rate = 400mbps
wan_rate = 10gbps
wan_delay = 4us
wan_loss = 0.0025
wan_queue = 512kib

[policy]
deadline_us = 4096
notifications = off
)");
    ASSERT_TRUE(out) << out.error.to_string();
    const auto& o = out.spec->pilot;
    EXPECT_EQ(out.spec->name, "unit-check");
    EXPECT_EQ(out.spec->seed(), 1234u);
    EXPECT_EQ(out.spec->link_burst(), 1u); // parsed, then dropped
    EXPECT_EQ(o.records, 700u);
    EXPECT_EQ(o.frames_per_record, 12u);
    EXPECT_EQ(o.pilot.daq_rate.bits_per_sec, 400'000'000ull);
    EXPECT_EQ(o.pilot.wan_rate.bits_per_sec, 10'000'000'000ull);
    EXPECT_EQ(o.pilot.wan_delay.ns, 4'000);
    EXPECT_EQ(o.pilot.wan_loss, 0.0025);
    EXPECT_EQ(o.pilot.wan_queue_bytes, 512u * 1024u);
    EXPECT_EQ(o.pilot.deadline_us, 4096u);
    EXPECT_FALSE(o.pilot.notifications);

    // Milliseconds, and times as well as durations.
    const auto chaos = parse_scenario(
        "[scenario]\ntopology = chaos\n[traffic]\nmessage_interval = 2ms\n"
        "[faults]\nfault_at = 3ms\n");
    ASSERT_TRUE(chaos) << chaos.error.to_string();
    EXPECT_EQ(chaos.spec->chaos.message_interval.ns, 2'000'000);
    EXPECT_EQ(chaos.spec->chaos.fault_at.ns, 3'000'000);
}

// A fraction parses to the double its C++ literal names, so a scenario
// file is bit for bit the config it spells. These are the fractions the
// checked-in scenarios and the end-to-end benchmark's specs write.
TEST(dsl_parse, fractions_parse_to_their_cpp_literals)
{
    const std::pair<const char*, double> cases[] = {
        {"0.000002", 2e-6}, {"0.00001", 1e-5}, {"0.00002", 2e-5}, {"0.0001", 1e-4},
        {"0.001", 0.001},   {"0.005", 0.005},  {"0.01", 0.01},    {"0.02", 0.02},
        {"0.05", 0.05},     {"0", 0.0},        {"1", 1.0},        {"1.000", 1.0},
    };
    for (const auto& [text, literal] : cases) {
        const auto out = parse_scenario(
            std::string("[scenario]\ntopology = pilot\n[links]\nwan_loss = ") + text + "\n");
        ASSERT_TRUE(out) << text << ": " << out.error.to_string();
        EXPECT_EQ(out.spec->pilot.pilot.wan_loss, literal) << text;
    }
    // 18 fraction digits still parse; the 19th fails closed.
    EXPECT_TRUE(parse_scenario(
        "[scenario]\ntopology = pilot\n[links]\nwan_loss = 0.000000000000000001\n"));
    expect_error(
        "[scenario]\ntopology = pilot\n[links]\nwan_loss = 0.0000000000000000001\n", 4,
        "expected a fraction in [0, 1]");
    expect_error("[scenario]\ntopology = pilot\n[links]\nwan_loss = 1.0001\n", 4,
                 "expected a fraction in [0, 1]");
}

TEST(dsl_parse, scenario_keys_apply_regardless_of_order)
{
    // seed is staged and applied after the topology's bindings exist,
    // so it may precede the topology key; so may the inert link_burst.
    const auto out = parse_scenario(
        "[scenario]\nseed = 77\nlink_burst = 4\ntopology = overload\n");
    ASSERT_TRUE(out) << out.error.to_string();
    EXPECT_EQ(out.spec->seed(), 77u);
    EXPECT_EQ(out.spec->link_burst(), 1u);

    // [engine] is topology-independent too; the end-to-end benchmark's
    // specs pin its one legal shard count.
    const auto pinned =
        parse_scenario("[engine]\nshards = 1\n[scenario]\ntopology = overload\n");
    ASSERT_TRUE(pinned) << pinned.error.to_string();
    EXPECT_EQ(pinned.spec->shards(), 1u);
}

TEST(dsl_parse, comments_blank_lines_and_crlf_are_tolerated)
{
    const auto out = parse_scenario(
        "# header comment\r\n\r\n[scenario]\r\ntopology = pilot # trailing\r\n"
        "\r\n[traffic]\r\nrecords = 42\r\n");
    ASSERT_TRUE(out) << out.error.to_string();
    EXPECT_EQ(out.spec->pilot.records, 42u);
}

TEST(dsl_parse, soak_experiment_mix_syntax)
{
    const auto out = parse_scenario(R"([scenario]
topology = soak

[experiments]
cms = on
dune = off
ecce = 250
mu2e = 300 @ 150us
rubin = off
)");
    ASSERT_TRUE(out) << out.error.to_string();
    const auto& c = out.spec->soak;
    EXPECT_EQ(c.experiment_mask, 0b01101u);
    EXPECT_EQ(c.experiment_messages[2], 250u);
    EXPECT_EQ(c.experiment_messages[3], 300u);
    EXPECT_EQ(c.experiment_interval[3].ns, 150'000);
}

// ------------------------------------------ line-anchored fail-closed errors

TEST(dsl_errors, truncated_file_missing_topology)
{
    expect_error("[scenario]\nname = cut-short\n", 0, "topology");
}

TEST(dsl_errors, truncated_file_missing_scenario_section)
{
    expect_error("", 0, "missing [scenario] section");
    expect_error("# only a comment\n", 0, "missing [scenario] section");
}

TEST(dsl_errors, truncated_mid_section_header)
{
    expect_error("[scenario]\ntopology = chaos\n[tra", 3, "unclosed");
}

TEST(dsl_errors, unknown_key_names_its_line)
{
    expect_error("[scenario]\ntopology = pilot\n\n[traffic]\nrecords = 5\nbogus = 1\n",
                 6, "unknown key 'bogus'");
    expect_error("[scenario]\ntopology = pilot\nbogus = 1\n", 3,
                 "unknown key 'bogus' in [scenario]");
}

TEST(dsl_errors, out_of_range_values)
{
    // link_burst changes nothing, but keeps the range it always had.
    expect_error("[scenario]\ntopology = chaos\nlink_burst = 99\n", 3,
                 "link_burst must be in [1, ");
    expect_error("[scenario]\ntopology = chaos\nlink_burst = 0\n", 3,
                 "link_burst must be in [1, ");
    expect_error("[scenario]\ntopology = pilot\n[links]\nwan_loss = 1.5\n", 4,
                 "expected a fraction in [0, 1]");
    expect_error("[scenario]\ntopology = chaos\n[traffic]\nmessages = 0\n", 4,
                 "out of range");
    expect_error(
        "[scenario]\ntopology = chaos\n[traffic]\nmessages = 99999999999999999999\n",
        4, "");
    // The simulator runs one engine: 1 is the only legal shard count.
    expect_error("[scenario]\ntopology = chaos\n[engine]\nshards = 2\n", 4, "shards");
    expect_error("[scenario]\ntopology = chaos\n[engine]\nshards = 0\n", 4, "shards");
}

TEST(dsl_errors, duplicate_section_names_its_line)
{
    expect_error("[scenario]\ntopology = chaos\n[traffic]\nmessages = 5\n[traffic]\n",
                 5, "duplicate section [traffic]");
}

TEST(dsl_errors, duplicate_key_names_its_line)
{
    expect_error("[scenario]\ntopology = chaos\n[traffic]\nmessages = 5\nmessages = 6\n",
                 5, "duplicate key 'messages'");
}

TEST(dsl_errors, unknown_topology_lists_known_ones)
{
    expect_error("[scenario]\ntopology = banana\n", 2, "unknown topology 'banana'");
}

TEST(dsl_errors, section_unknown_for_topology)
{
    // pilot has no [faults]; the same section is legal under chaos.
    expect_error("[scenario]\ntopology = pilot\n[faults]\n", 3,
                 "unknown section [faults] for topology 'pilot'");
    EXPECT_TRUE(parse_scenario("[scenario]\ntopology = chaos\n[faults]\n"));
}

TEST(dsl_errors, section_before_topology_declared)
{
    expect_error("[scenario]\n[traffic]\ntopology = chaos\n", 2,
                 "declares the topology");
}

TEST(dsl_errors, key_outside_any_section)
{
    expect_error("topology = chaos\n", 1, "outside any section");
}

TEST(dsl_errors, malformed_values)
{
    expect_error("[scenario]\ntopology = chaos\n[traffic]\nmessage_interval = 4\n",
                 4, "expected a duration");
    expect_error("[scenario]\ntopology = chaos\n[traffic]\nmessage_interval = 4parsecs\n",
                 4, "unknown duration unit 'parsecs'");
    expect_error("[scenario]\ntopology = pilot\n[links]\nwan_rate = fast\n", 4,
                 "expected a rate");
    expect_error("[scenario]\ntopology = chaos\n[persistence]\npersist = maybe\n",
                 4, "expected a boolean");
    expect_error("[scenario]\ntopology = chaos\n[traffic]\nmessages =\n", 4,
                 "missing value for 'messages'");
    expect_error("[scenario]\ntopology = chaos\n[traffic]\njust some words\n", 4,
                 "expected 'key = value'");
}

TEST(dsl_errors, control_bytes_rejected)
{
    std::string text = "[scenario]\ntopology = chaos\nname = a";
    text.push_back('\0');
    text += "b\n";
    expect_error(text, 3, "control byte");
}

// ------------------------------------------------- render/parse round trip

TEST(dsl_render, render_parse_is_a_fixed_point_for_every_topology)
{
    for (const auto& topo : topology_names()) {
        scenario_spec spec;
        spec.topology = topo;
        spec.name = topo + "-roundtrip";
        spec.lossy = topo == "today";
        const std::string first = render_scenario(spec);
        const auto parsed = parse_scenario(first);
        ASSERT_TRUE(parsed) << topo << ": " << parsed.error.to_string();
        EXPECT_EQ(parsed.spec->topology, topo);
        EXPECT_EQ(parsed.spec->seed(), spec.seed());
        EXPECT_EQ(render_scenario(*parsed.spec), first)
            << topo << ": render -> parse -> render drifted";
        // The text is not just stable: it parses back to the very values
        // it was rendered from (fractions included, bit for bit).
        EXPECT_TRUE(*parsed.spec == spec) << topo << ": parsed values differ";
    }
}

// Each topology's keyspace, counted as render_scenario writes it. A key
// exists only where a program sets its field to a second value or the
// end-to-end benchmark's specs write it; adding one means editing this
// reviewed constant and giving the reason in CHANGES.md.
TEST(dsl_render, keyspace_per_topology_is_pinned)
{
    const std::pair<const char*, std::size_t> pins[] = {
        {"chaos", 16}, {"overload", 2}, {"pilot", 11},
        {"shapeshift", 9}, {"soak", 48}, {"today", 6},
    };
    ASSERT_EQ(topology_names().size(), std::size(pins));
    std::size_t total = 0;
    for (const auto& [topo, keys] : pins) {
        scenario_spec spec;
        spec.topology = topo;
        std::istringstream text(render_scenario(spec));
        std::size_t n = 0;
        bool in_scenario = false;
        for (std::string line; std::getline(text, line);) {
            if (!line.empty() && line.front() == '[') in_scenario = line == "[scenario]";
            else if (!in_scenario && line.find(" = ") != std::string::npos) ++n;
        }
        EXPECT_EQ(n, keys) << topo;
        total += n;
    }
    EXPECT_EQ(total, 92u);
}

// ------------------------------------------------------ campaign generator

TEST(dsl_generate, same_seed_same_scenario)
{
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        const auto a = campaign::generate(seed);
        const auto b = campaign::generate(seed);
        EXPECT_EQ(render_scenario(a), render_scenario(b)) << "seed " << seed;
    }
}

TEST(dsl_generate, generated_scenarios_survive_the_round_trip)
{
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        const auto spec = campaign::generate(seed);
        const std::string text = render_scenario(spec);
        const auto parsed = parse_scenario(text);
        ASSERT_TRUE(parsed) << "seed " << seed << ": " << parsed.error.to_string()
                            << "\n" << text;
        EXPECT_EQ(render_scenario(*parsed.spec), text) << "seed " << seed;
        EXPECT_TRUE(*parsed.spec == spec) << "seed " << seed << ": parsed values differ";
    }
}

TEST(dsl_generate, covers_every_topology)
{
    std::set<std::string> seen;
    for (std::uint64_t seed = 1; seed <= 200; ++seed)
        seen.insert(campaign::generate(seed).topology);
    for (const auto& topo : topology_names())
        EXPECT_TRUE(seen.count(topo)) << topo << " never generated";
}

// ----------------------------------------------------------- malformed fuzz

TEST(dsl_fuzz, byte_flips_never_crash_the_parser)
{
    const std::string base = render_scenario(campaign::generate(9));
    ASSERT_FALSE(base.empty());
    const auto names = topology_names();
    const unsigned char masks[] = {0x01, 0x20, 0x80};
    for (std::size_t i = 0; i < base.size(); ++i) {
        for (const unsigned char m : masks) {
            std::string mutated = base;
            mutated[i] = static_cast<char>(mutated[i] ^ m);
            // Must return an outcome (ok or diagnostic) — never crash,
            // never loop. A surviving parse must still name a topology.
            const auto out = parse_scenario(mutated);
            if (out) {
                EXPECT_NE(std::find(names.begin(), names.end(), out.spec->topology),
                          names.end());
            }
        }
    }
}

TEST(dsl_fuzz, every_prefix_truncation_parses_or_fails_cleanly)
{
    const std::string base = render_scenario(campaign::generate(9));
    for (std::size_t len = 0; len <= base.size(); ++len) {
        const auto out = parse_scenario(base.substr(0, len));
        if (!out) {
            EXPECT_FALSE(out.error.message.empty());
        }
    }
}

TEST(dsl_fuzz, binary_garbage_is_rejected_not_crashed)
{
    std::string junk;
    std::uint64_t x = 0x243f6a8885a308d3ull; // deterministic junk stream
    for (int i = 0; i < 4096; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        junk.push_back(static_cast<char>(x & 0xff));
    }
    const auto out = parse_scenario(junk);
    EXPECT_FALSE(out);
    EXPECT_FALSE(out.error.message.empty());
}
