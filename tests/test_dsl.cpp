// The declarative scenario format fails closed: every malformed input
// yields a line-anchored diagnostic (never a crash, never a partially
// applied spec), typed values carry unit suffixes, render/parse is a
// fixed point, and the seeded campaign generator is deterministic.
#include "scenario/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

using namespace mmtp;
using namespace mmtp::scenario;

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

TEST(dsl_parse, typed_values_carry_unit_suffixes)
{
    const auto out = parse_scenario(R"([scenario]
name = unit-check
topology = chaos
seed = 1234
link_burst = 8

[traffic]
messages = 700
message_bytes = 4096
message_interval = 4us

[links]
wan_rate = 10gbps
wan_delay = 2ms
wan_queue = 512kib

[faults]
burst_ber = 0.0025
)");
    ASSERT_TRUE(out) << out.error.to_string();
    const auto& c = out.spec->chaos;
    EXPECT_EQ(out.spec->name, "unit-check");
    EXPECT_EQ(out.spec->seed(), 1234u);
    EXPECT_EQ(out.spec->link_burst(), 1u); // parsed, then dropped
    EXPECT_EQ(c.messages, 700u);
    EXPECT_EQ(c.message_bytes, 4096u);
    EXPECT_EQ(c.message_interval.ns, 4'000);
    EXPECT_EQ(c.wan_rate.bits_per_sec, 10'000'000'000ull);
    EXPECT_EQ(c.wan_delay.ns, 2'000'000);
    EXPECT_EQ(c.wan_queue_bytes, 512u * 1024u);
    EXPECT_NEAR(c.burst_ber, 0.0025, 1e-12);
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
    expect_error("[scenario]\ntopology = chaos\n[links]\nwan_rate = fast\n", 4,
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
    }
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
