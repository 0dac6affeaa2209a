#include "scenario/dsl.hpp"

#include "netsim/link.hpp"
#include "scenario/registry.hpp"

#include <fstream>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

namespace mmtp::scenario {

namespace {

// --- lexical helpers (locale-independent by construction: every number
// is parsed and rendered with integer math — no strtod, no sprintf) ---

bool is_space(char c)
{
    return c == ' ' || c == '\t' || c == '\v' || c == '\f';
}

std::string trim(const std::string& s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && is_space(s[b])) ++b;
    while (e > b && is_space(s[e - 1])) --e;
    return s.substr(b, e - b);
}

/// Pure-decimal unsigned parse with overflow detection.
bool parse_count(const std::string& v, std::uint64_t& out)
{
    if (v.empty()) return false;
    std::uint64_t n = 0;
    for (char c : v) {
        if (c < '0' || c > '9') return false;
        const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
        if (n > (std::numeric_limits<std::uint64_t>::max() - d) / 10) return false;
        n = n * 10 + d;
    }
    out = n;
    return true;
}

/// Splits "123abc" into digits and a lower-case alpha suffix; rejects
/// anything else (signs, interior spaces, mixed order).
bool split_suffix(const std::string& v, std::string& num, std::string& suffix)
{
    num.clear();
    suffix.clear();
    std::size_t i = 0;
    while (i < v.size() && v[i] >= '0' && v[i] <= '9') num.push_back(v[i++]);
    while (i < v.size()) {
        const char c = v[i++];
        if (c < 'a' || c > 'z') return false;
        suffix.push_back(c);
    }
    return !num.empty();
}

bool parse_scaled(const std::string& v,
                  std::initializer_list<std::pair<const char*, std::uint64_t>> units,
                  std::uint64_t limit, std::uint64_t& out, std::string& err,
                  const char* what)
{
    std::string num, suffix;
    if (!split_suffix(v, num, suffix) || suffix.empty()) {
        err = std::string("expected a ") + what + " (e.g. " + units.begin()->first
            + "), got '" + v + "'";
        return false;
    }
    std::uint64_t scale = 0;
    for (const auto& [name, s] : units)
        if (suffix == name) scale = s;
    if (scale == 0) {
        err = "unknown " + std::string(what) + " unit '" + suffix + "'";
        return false;
    }
    std::uint64_t n = 0;
    if (!parse_count(num, n) || (scale != 0 && n > limit / scale)) {
        err = std::string(what) + " out of range: '" + v + "'";
        return false;
    }
    out = n * scale;
    return true;
}

bool parse_duration_ns(const std::string& v, std::uint64_t& out, std::string& err)
{
    // Longest-match order not needed: suffixes are matched exactly.
    return parse_scaled(v,
                        {{"ns", 1ull},
                         {"us", 1000ull},
                         {"ms", 1000000ull},
                         {"s", 1000000000ull}},
                        std::uint64_t(std::numeric_limits<std::int64_t>::max()), out,
                        err, "duration");
}

bool parse_rate_bps(const std::string& v, std::uint64_t& out, std::string& err)
{
    return parse_scaled(v,
                        {{"bps", 1ull},
                         {"kbps", 1000ull},
                         {"mbps", 1000000ull},
                         {"gbps", 1000000000ull}},
                        std::numeric_limits<std::uint64_t>::max(), out, err, "rate");
}

bool parse_size_bytes(const std::string& v, std::uint64_t& out, std::string& err)
{
    return parse_scaled(v,
                        {{"b", 1ull},
                         {"kib", 1024ull},
                         {"mib", 1024ull * 1024},
                         {"gib", 1024ull * 1024 * 1024}},
                        std::numeric_limits<std::uint64_t>::max(), out, err, "size");
}

bool parse_bool(const std::string& v, bool& out)
{
    if (v == "true" || v == "on" || v == "yes" || v == "1") return out = true, true;
    if (v == "false" || v == "off" || v == "no" || v == "0")
        return (out = false), true;
    return false;
}

/// Fractions are plain decimals in [0, 1] ("0.02", "0.000002", "1").
/// Parsed digit by digit so the result is locale-independent.
bool parse_fraction(const std::string& v, double& out)
{
    std::size_t i = 0;
    std::uint64_t int_part = 0;
    bool any = false;
    while (i < v.size() && v[i] >= '0' && v[i] <= '9') {
        int_part = int_part * 10 + std::uint64_t(v[i++] - '0');
        if (int_part > 1) return false; // > 1 before the point
        any = true;
    }
    double frac = 0.0;
    if (i < v.size() && v[i] == '.') {
        ++i;
        double scale = 0.1;
        while (i < v.size() && v[i] >= '0' && v[i] <= '9') {
            frac += double(v[i++] - '0') * scale;
            scale *= 0.1;
            any = true;
        }
    }
    if (!any || i != v.size()) return false;
    out = double(int_part) + frac;
    return out >= 0.0 && out <= 1.0;
}

/// Renders a fraction as a plain decimal (12 digits, trailing zeros
/// trimmed) using integer math only.
std::string fmt_fraction(double v)
{
    const std::uint64_t scaled =
        static_cast<std::uint64_t>(v * 1e12 + 0.5); // v in [0,1] => fits
    std::string digits = std::to_string(scaled % 1000000000000ull);
    digits.insert(0, 12 - digits.size(), '0');
    while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
    std::string out = std::to_string(scaled / 1000000000000ull);
    if (digits != "0") out += "." + digits;
    return out;
}

// --- the binding table: section/key -> typed setter + getter ------------
//
// One table describes a topology's whole keyspace; parse_scenario uses
// the setters, render_scenario the getters, so the two can never drift.

struct binding_table {
    using setter = std::function<std::string(const std::string&)>; // "" = ok
    using getter = std::function<std::string()>;
    struct entry {
        std::string key;
        setter set;
        getter get;
    };
    struct section_t {
        std::string name;
        std::vector<entry> entries;
    };
    std::vector<section_t> sections;

    void add(const char* sec, const char* key, setter s, getter g)
    {
        for (auto& sct : sections)
            if (sct.name == sec) {
                sct.entries.push_back({key, std::move(s), std::move(g)});
                return;
            }
        sections.push_back({sec, {{key, std::move(s), std::move(g)}}});
    }

    bool has_section(const std::string& sec) const
    {
        for (const auto& sct : sections)
            if (sct.name == sec) return true;
        return false;
    }

    const entry* find(const std::string& sec, const std::string& key) const
    {
        for (const auto& sct : sections)
            if (sct.name == sec)
                for (const auto& e : sct.entries)
                    if (e.key == key) return &e;
        return nullptr;
    }
};

template <class T>
void bind_count(binding_table& t, const char* sec, const char* key, T* f,
                std::uint64_t minv = 0,
                std::uint64_t maxv = std::numeric_limits<T>::max())
{
    t.add(
        sec, key,
        [f, minv, maxv](const std::string& v) -> std::string {
            std::uint64_t n = 0;
            if (!parse_count(v, n))
                return "expected a non-negative integer, got '" + v + "'";
            if (n < minv || n > maxv)
                return "value out of range [" + std::to_string(minv) + ", "
                    + std::to_string(maxv) + "]: " + v;
            *f = static_cast<T>(n);
            return {};
        },
        [f] { return std::to_string(static_cast<std::uint64_t>(*f)); });
}

void bind_bool(binding_table& t, const char* sec, const char* key, bool* f)
{
    t.add(
        sec, key,
        [f](const std::string& v) -> std::string {
            if (!parse_bool(v, *f)) return "expected a boolean, got '" + v + "'";
            return {};
        },
        [f] { return std::string(*f ? "true" : "false"); });
}

void bind_fraction(binding_table& t, const char* sec, const char* key, double* f)
{
    t.add(
        sec, key,
        [f](const std::string& v) -> std::string {
            if (!parse_fraction(v, *f))
                return "expected a fraction in [0, 1], got '" + v + "'";
            return {};
        },
        [f] { return fmt_fraction(*f); });
}

void bind_duration(binding_table& t, const char* sec, const char* key,
                   sim_duration* f, std::uint64_t min_ns = 0)
{
    t.add(
        sec, key,
        [f, min_ns](const std::string& v) -> std::string {
            std::uint64_t ns = 0;
            std::string err;
            if (!parse_duration_ns(v, ns, err)) return err;
            if (ns < min_ns)
                return "duration must be at least " + std::to_string(min_ns) + "ns";
            f->ns = static_cast<std::int64_t>(ns);
            return {};
        },
        [f] { return std::to_string(f->ns) + "ns"; });
}

void bind_time(binding_table& t, const char* sec, const char* key, sim_time* f)
{
    t.add(
        sec, key,
        [f](const std::string& v) -> std::string {
            std::uint64_t ns = 0;
            std::string err;
            if (!parse_duration_ns(v, ns, err)) return err;
            f->ns = static_cast<std::int64_t>(ns);
            return {};
        },
        [f] { return std::to_string(f->ns) + "ns"; });
}

void bind_rate(binding_table& t, const char* sec, const char* key, data_rate* f)
{
    t.add(
        sec, key,
        [f](const std::string& v) -> std::string {
            std::uint64_t bps = 0;
            std::string err;
            if (!parse_rate_bps(v, bps, err)) return err;
            if (bps == 0) return "rate must be positive";
            f->bits_per_sec = bps;
            return {};
        },
        [f] { return std::to_string(f->bits_per_sec) + "bps"; });
}

void bind_size(binding_table& t, const char* sec, const char* key, std::uint64_t* f,
               std::uint64_t minv = 0)
{
    t.add(
        sec, key,
        [f, minv](const std::string& v) -> std::string {
            std::uint64_t b = 0;
            std::string err;
            if (!parse_size_bytes(v, b, err)) return err;
            if (b < minv) return "size must be at least " + std::to_string(minv) + "b";
            *f = b;
            return {};
        },
        [f] { return std::to_string(*f) + "b"; });
}

void bind_preset(binding_table& t, const char* sec, const char* key,
                 control::mode_preset* f)
{
    t.add(
        sec, key,
        [f](const std::string& v) -> std::string {
            if (v == "static") {
                *f = control::mode_preset::static_preset;
                return {};
            }
            if (v == "closed_loop") {
                *f = control::mode_preset::closed_loop;
                return {};
            }
            return "expected 'static' or 'closed_loop', got '" + v + "'";
        },
        [f] {
            return std::string(*f == control::mode_preset::static_preset
                                   ? "static"
                                   : "closed_loop");
        });
}

/// Soak [experiments] value: "off" | "on" | "<count>" | "<count> @ <gap>".
void bind_experiment(binding_table& t, const char* key, std::size_t idx,
                     soak_config* cfg)
{
    t.add(
        "experiments", key,
        [idx, cfg](const std::string& v) -> std::string {
            const std::uint32_t bit = 1u << idx;
            if (v == "off") {
                cfg->experiment_mask &= ~bit;
                cfg->experiment_messages[idx] = 0;
                cfg->experiment_interval[idx] = sim_duration::zero();
                return {};
            }
            cfg->experiment_mask |= bit;
            if (v == "on") {
                cfg->experiment_messages[idx] = 0;
                cfg->experiment_interval[idx] = sim_duration::zero();
                return {};
            }
            std::string count_part = v;
            std::string gap_part;
            if (const auto at = v.find('@'); at != std::string::npos) {
                count_part = trim(v.substr(0, at));
                gap_part = trim(v.substr(at + 1));
            }
            std::uint64_t n = 0;
            if (!parse_count(count_part, n) || n == 0)
                return "expected 'off', 'on' or a message count (optionally "
                       "'<count> @ <gap>'), got '"
                    + v + "'";
            cfg->experiment_messages[idx] = n;
            cfg->experiment_interval[idx] = sim_duration::zero();
            if (!gap_part.empty()) {
                std::uint64_t ns = 0;
                std::string err;
                if (!parse_duration_ns(gap_part, ns, err)) return err;
                if (ns == 0) return "per-experiment gap must be positive";
                cfg->experiment_interval[idx].ns = static_cast<std::int64_t>(ns);
            }
            return {};
        },
        [idx, cfg]() -> std::string {
            if ((cfg->experiment_mask >> idx & 1u) == 0) return "off";
            if (cfg->experiment_messages[idx] == 0) return "on";
            std::string out = std::to_string(cfg->experiment_messages[idx]);
            if (cfg->experiment_interval[idx].ns != 0)
                out += " @ " + std::to_string(cfg->experiment_interval[idx].ns) + "ns";
            return out;
        });
}

/// Builds the keyspace of spec's topology. The table holds raw pointers
/// into `spec`, so it must not outlive it.
binding_table build_bindings(scenario_spec& spec)
{
    binding_table t;
    if (spec.topology == "pilot") {
        auto& o = spec.pilot;
        bind_count(t, "traffic", "records", &o.records, 1);
        bind_count(t, "traffic", "frames_per_record", &o.frames_per_record, 1);
        bind_rate(t, "links", "daq_rate", &o.pilot.daq_rate);
        bind_rate(t, "links", "wan_rate", &o.pilot.wan_rate);
        bind_duration(t, "links", "wan_delay", &o.pilot.wan_delay);
        bind_fraction(t, "links", "wan_loss", &o.pilot.wan_loss);
        bind_size(t, "links", "wan_queue", &o.pilot.wan_queue_bytes, 1);
        bind_count(t, "policy", "deadline_us", &o.pilot.deadline_us);
        bind_bool(t, "policy", "priority_queues", &o.pilot.priority_queues);
        bind_bool(t, "policy", "notifications", &o.pilot.notifications);
        bind_bool(t, "policy", "sequence_at_dtn", &o.pilot.sequence_at_dtn);
    } else if (spec.topology == "today") {
        auto& o = spec.today;
        bind_count(t, "traffic", "messages", &o.messages, 1);
        bind_count(t, "traffic", "message_bytes", &o.message_bytes, 1);
        bind_duration(t, "traffic", "message_interval", &o.message_interval, 1);
        bind_rate(t, "links", "daq_rate", &o.today.daq_rate);
        bind_rate(t, "links", "wan_rate", &o.today.wan_rate);
        bind_duration(t, "links", "wan_delay", &o.today.wan_delay);
        bind_fraction(t, "links", "wan_loss", &o.today.wan_loss);
        bind_rate(t, "links", "campus_rate", &o.today.campus_rate);
        bind_duration(t, "links", "campus_delay", &o.today.campus_delay);
        bind_size(t, "links", "wan_queue", &o.today.wan_queue_bytes, 1);
        bind_bool(t, "policy", "tuned", &o.today.tuned);
        bind_rate(t, "policy", "tcp_host_limit", &o.today.tcp_host_limit);
    } else if (spec.topology == "chaos") {
        auto& c = spec.chaos;
        bind_count(t, "traffic", "messages", &c.messages, 1);
        bind_count(t, "traffic", "message_bytes", &c.message_bytes, 1);
        bind_duration(t, "traffic", "message_interval", &c.message_interval, 1);
        bind_time(t, "traffic", "first_message", &c.first_message);
        bind_count(t, "traffic", "messages2", &c.messages2);
        bind_time(t, "traffic", "second_wave_at", &c.second_wave_at);
        bind_rate(t, "links", "wan_rate", &c.wan_rate);
        bind_duration(t, "links", "wan_delay", &c.wan_delay);
        bind_size(t, "links", "wan_queue", &c.wan_queue_bytes, 1);
        bind_time(t, "faults", "fault_at", &c.fault_at);
        bind_duration(t, "faults", "feed_cut_after", &c.feed_cut_after);
        bind_time(t, "faults", "fault2_at", &c.fault2_at);
        bind_time(t, "faults", "revive_at", &c.revive_at);
        bind_time(t, "faults", "burst_at", &c.burst_at);
        bind_duration(t, "faults", "burst_duration", &c.burst_duration);
        bind_fraction(t, "faults", "burst_ber", &c.burst_ber);
        bind_duration(t, "recovery", "nak_retry", &c.nak_retry, 1);
        bind_duration(t, "recovery", "nak_retry_cap", &c.nak_retry_cap, 1);
        bind_count(t, "recovery", "max_nak_attempts", &c.max_nak_attempts, 1);
        bind_count(t, "recovery", "failover_attempts", &c.failover_attempts, 1);
        bind_duration(t, "recovery", "probe_interval", &c.probe_interval, 1);
        bind_duration(t, "recovery", "probe_deadline", &c.probe_deadline, 1);
        bind_time(t, "recovery", "flush_at", &c.flush_at);
        bind_time(t, "recovery", "flush2_at", &c.flush2_at);
        bind_rate(t, "policy", "planned_rate", &c.planned_rate);
        bind_bool(t, "persistence", "persist", &c.persist);
        bind_count(t, "persistence", "chunk_records", &c.persist_chunk_records, 1);
        bind_bool(t, "trace", "enabled", &c.trace);
        bind_count(t, "trace", "capacity", &c.trace_capacity, 1);
        bind_bool(t, "trace", "record", &c.record);
    } else if (spec.topology == "overload") {
        auto& c = spec.overload;
        bind_count(t, "traffic", "messages", &c.messages, 1);
        bind_count(t, "traffic", "message_bytes", &c.message_bytes, 1);
        bind_duration(t, "traffic", "message_interval", &c.message_interval, 1);
        bind_time(t, "traffic", "first_message", &c.first_message);
        bind_rate(t, "links", "wan_rate", &c.wan_rate);
        bind_duration(t, "links", "wan_delay", &c.wan_delay);
        bind_size(t, "links", "band_bytes", &c.band_bytes, 1);
        bind_size(t, "overload", "bp_low", &c.bp_low_bytes, 1);
        bind_size(t, "overload", "bp_high", &c.bp_high_bytes, 1);
        bind_duration(t, "overload", "bp_min_interval", &c.bp_min_interval, 1);
        bind_count(t, "overload", "bp_level_bands", &c.bp_level_bands, 1);
        bind_rate(t, "overload", "pace", &c.pace);
        bind_fraction(t, "overload", "min_pace_fraction", &c.min_pace_fraction);
        bind_duration(t, "overload", "backpressure_hold", &c.backpressure_hold, 1);
        bind_fraction(t, "overload", "recovery_step_fraction",
                      &c.recovery_step_fraction);
        bind_duration(t, "overload", "recovery_interval", &c.recovery_interval, 1);
        bind_size(t, "overload", "buffer_capacity", &c.buffer_capacity_bytes, 1);
        bind_duration(t, "overload", "buffer_retention", &c.buffer_retention, 1);
        bind_rate(t, "overload", "retransmit_pace", &c.retransmit_pace);
        bind_size(t, "overload", "occupancy_high", &c.occupancy_high_bytes, 1);
        bind_size(t, "overload", "occupancy_low", &c.occupancy_low_bytes, 1);
        bind_duration(t, "overload", "pressure_poll", &c.pressure_poll, 1);
        bind_time(t, "overload", "poll_until", &c.poll_until);
        bind_time(t, "overload", "second_flow_at", &c.second_flow_at);
        bind_rate(t, "overload", "second_flow_rate", &c.second_flow_rate);
        bind_duration(t, "recovery", "nak_retry", &c.nak_retry, 1);
        bind_duration(t, "recovery", "nak_retry_cap", &c.nak_retry_cap, 1);
        bind_count(t, "recovery", "max_nak_attempts", &c.max_nak_attempts, 1);
        bind_duration(t, "recovery", "flush_check", &c.flush_check, 1);
        bind_duration(t, "recovery", "probe_interval", &c.probe_interval, 1);
        bind_duration(t, "recovery", "probe_deadline", &c.probe_deadline, 1);
        bind_count(t, "policy", "deadline_us", &c.deadline_us);
        bind_rate(t, "policy", "planned_rate", &c.planned_rate);
        bind_bool(t, "trace", "enabled", &c.trace);
        bind_count(t, "trace", "capacity", &c.trace_capacity, 1);
    } else if (spec.topology == "shapeshift") {
        auto& c = spec.shapeshift;
        bind_count(t, "traffic", "messages", &c.messages, 1);
        bind_count(t, "traffic", "message_bytes", &c.message_bytes, 1);
        bind_duration(t, "traffic", "message_interval", &c.message_interval, 1);
        bind_time(t, "traffic", "first_message", &c.first_message);
        bind_rate(t, "links", "wan_rate", &c.wan_rate);
        bind_duration(t, "links", "wan_delay", &c.wan_delay);
        bind_size(t, "links", "wan_queue", &c.wan_queue_bytes, 1);
        bind_time(t, "faults", "burst_at", &c.burst_at);
        bind_duration(t, "faults", "burst_duration", &c.burst_duration);
        bind_fraction(t, "faults", "burst_ber", &c.burst_ber);
        bind_preset(t, "policy", "preset", &c.policy);
        bind_duration(t, "policy", "poll_interval", &c.poll_interval, 1);
        bind_time(t, "policy", "poll_until", &c.poll_until);
        bind_duration(t, "policy", "drain_window", &c.drain_window, 1);
        bind_count(t, "policy", "loss_degrade_threshold",
                   &c.loss_degrade_threshold, 1);
        bind_count(t, "policy", "restore_after_clean_polls",
                   &c.restore_after_clean_polls, 1);
        bind_count(t, "policy", "deadline_us", &c.deadline_us);
        bind_time(t, "recovery", "flush_at", &c.flush_at);
        bind_bool(t, "trace", "enabled", &c.trace);
        bind_count(t, "trace", "capacity", &c.trace_capacity, 1);
    } else if (spec.topology == "soak") {
        auto& c = spec.soak;
        bind_count(t, "traffic", "slices_per_experiment",
                   &c.slices_per_experiment, 1);
        bind_count(t, "traffic", "messages_per_stream", &c.messages_per_stream, 1);
        bind_count(t, "traffic", "message_bytes", &c.message_bytes, 1);
        bind_duration(t, "traffic", "message_interval", &c.message_interval, 1);
        bind_time(t, "traffic", "first_message", &c.first_message);
        bind_experiment(t, "cms", 0, &c);
        bind_experiment(t, "dune", 1, &c);
        bind_experiment(t, "ecce", 2, &c);
        bind_experiment(t, "mu2e", 3, &c);
        bind_experiment(t, "rubin", 4, &c);
        bind_rate(t, "links", "wan_rate", &c.wan_rate);
        bind_duration(t, "links", "wan_delay", &c.wan_delay);
        bind_size(t, "links", "wan_queue", &c.wan_queue_bytes, 1);
        bind_time(t, "faults", "burst1_at", &c.burst1_at);
        bind_duration(t, "faults", "burst1_duration", &c.burst1_duration);
        bind_fraction(t, "faults", "burst1_ber", &c.burst1_ber);
        bind_time(t, "faults", "dtn2_down_at", &c.dtn2_down_at);
        bind_time(t, "faults", "dtn2_up_at", &c.dtn2_up_at);
        bind_time(t, "faults", "wan_down_at", &c.wan_down_at);
        bind_time(t, "faults", "wan_up_at", &c.wan_up_at);
        bind_time(t, "faults", "burst2_at", &c.burst2_at);
        bind_duration(t, "faults", "burst2_duration", &c.burst2_duration);
        bind_fraction(t, "faults", "burst2_ber", &c.burst2_ber);
        bind_preset(t, "policy", "preset", &c.policy);
        bind_duration(t, "policy", "poll_interval", &c.poll_interval, 1);
        bind_duration(t, "policy", "drain_window", &c.drain_window, 1);
        bind_count(t, "policy", "loss_degrade_threshold",
                   &c.loss_degrade_threshold, 1);
        bind_count(t, "policy", "restore_after_clean_polls",
                   &c.restore_after_clean_polls, 1);
        bind_size(t, "overload", "dtn1_capacity", &c.dtn1_capacity_bytes, 1);
        bind_duration(t, "overload", "dtn1_retention", &c.dtn1_retention, 1);
        bind_size(t, "overload", "occupancy_high", &c.occupancy_high_bytes, 1);
        bind_size(t, "overload", "occupancy_low", &c.occupancy_low_bytes, 1);
        bind_duration(t, "overload", "pressure_hold", &c.pressure_hold, 1);
        bind_duration(t, "overload", "pressure_poll", &c.pressure_poll, 1);
        bind_duration(t, "overload", "churn_interval", &c.churn_interval, 1);
        bind_duration(t, "overload", "churn_hold", &c.churn_hold, 1);
        bind_rate(t, "overload", "churn_rate", &c.churn_rate);
        bind_time(t, "overload", "churn_until", &c.churn_until);
        bind_rate(t, "overload", "trunk_rate", &c.trunk_rate);
        bind_count(t, "recovery", "max_nak_attempts", &c.max_nak_attempts, 1);
        bind_count(t, "recovery", "failover_attempts", &c.failover_attempts, 1);
        bind_time(t, "recovery", "flush_at", &c.flush_at);
        bind_time(t, "recovery", "prune_from", &c.prune_from);
        bind_duration(t, "recovery", "prune_interval", &c.prune_interval, 1);
        bind_duration(t, "recovery", "prune_idle_after", &c.prune_idle_after, 1);
        bind_duration(t, "recovery", "probe_interval", &c.probe_interval, 1);
        bind_time(t, "recovery", "end_at", &c.end_at);
        bind_count(t, "persistence", "chunk_records", &c.persist_chunk_records, 1);
    }
    return t;
}

} // namespace

// --- scenario_spec -------------------------------------------------------

std::uint64_t scenario_spec::seed() const
{
    if (topology == "today") return today.today.seed;
    if (topology == "chaos") return chaos.seed;
    if (topology == "overload") return overload.seed;
    if (topology == "shapeshift") return shapeshift.seed;
    if (topology == "soak") return soak.seed;
    return pilot.pilot.seed;
}

void scenario_spec::set_seed(std::uint64_t s)
{
    // Only the active topology's config matters; setting all six keeps
    // this free of topology dispatch.
    pilot.pilot.seed = s;
    today.today.seed = s;
    chaos.seed = s;
    overload.seed = s;
    shapeshift.seed = s;
    soak.seed = s;
}

std::uint32_t scenario_spec::link_burst() const
{
    if (topology == "today") return today.today.link_burst;
    if (topology == "chaos") return chaos.link_burst;
    if (topology == "overload") return overload.link_burst;
    if (topology == "shapeshift") return shapeshift.link_burst;
    if (topology == "soak") return soak.link_burst;
    return pilot.pilot.link_burst;
}

void scenario_spec::set_link_burst(std::uint32_t b)
{
    pilot.pilot.link_burst = b;
    today.today.link_burst = b;
    chaos.link_burst = b;
    overload.link_burst = b;
    shapeshift.link_burst = b;
    soak.link_burst = b;
}

// --- parsing -------------------------------------------------------------

parse_outcome parse_scenario(const std::string& text)
{
    parse_outcome out;
    scenario_spec spec;
    binding_table table;
    bool have_scenario_section = false;
    bool have_topology = false;
    std::string section;
    std::set<std::string> seen_sections;
    std::set<std::string> seen_keys;
    std::optional<std::uint64_t> staged_seed;
    std::optional<std::uint32_t> staged_burst;

    auto fail = [&](unsigned ln, std::string msg) {
        out.spec.reset();
        out.error = dsl_error{ln, std::move(msg)};
        return out;
    };

    unsigned line_no = 0;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        // Next line (the final line may lack a terminating newline).
        if (pos == text.size() && line_no > 0) break;
        const std::size_t nl = text.find('\n', pos);
        std::string raw = text.substr(pos, nl == std::string::npos ? nl : nl - pos);
        pos = nl == std::string::npos ? text.size() + 1 : nl + 1;
        ++line_no;

        if (!raw.empty() && raw.back() == '\r') raw.pop_back();
        if (const auto hash = raw.find('#'); hash != std::string::npos)
            raw.resize(hash);
        // NUL or other control bytes never appear in a well-formed file;
        // reject them rather than let them hide inside keys or values.
        for (char c : raw)
            if (static_cast<unsigned char>(c) < 0x20 && c != '\t')
                return fail(line_no, "control byte in input");
        const std::string line = trim(raw);
        if (line.empty()) continue;

        if (line.front() == '[') {
            if (line.back() != ']' || line.size() < 3)
                return fail(line_no, "unclosed or empty section header: '" + line
                                + "'");
            const std::string name = trim(line.substr(1, line.size() - 2));
            if (name.empty()) return fail(line_no, "empty section name");
            if (!seen_sections.insert(name).second)
                return fail(line_no, "duplicate section [" + name + "]");
            if (name == "scenario") {
                have_scenario_section = true;
            } else if (name == "engine") {
                // Topology-independent, like [scenario] itself.
            } else {
                if (!have_topology)
                    return fail(line_no, "section [" + name
                                    + "] before [scenario] declares the topology");
                if (!table.has_section(name))
                    return fail(line_no, "unknown section [" + name
                                    + "] for topology '" + spec.topology + "'");
            }
            section = name;
            continue;
        }

        const auto eq = line.find('=');
        if (eq == std::string::npos)
            return fail(line_no, "expected 'key = value' or '[section]', got '"
                            + line + "'");
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key.empty()) return fail(line_no, "empty key");
        if (section.empty())
            return fail(line_no, "'" + key + "' outside any section");
        if (value.empty()) return fail(line_no, "missing value for '" + key + "'");
        if (!seen_keys.insert(section + "." + key).second)
            return fail(line_no,
                        "duplicate key '" + key + "' in [" + section + "]");

        if (section == "scenario") {
            if (key == "name") {
                spec.name = value;
            } else if (key == "topology") {
                if (!registry::known(value)) {
                    std::string known_names;
                    for (const auto& n : registry::names())
                        known_names += (known_names.empty() ? "" : ", ") + n;
                    return fail(line_no, "unknown topology '" + value
                                    + "' (known: " + known_names + ")");
                }
                spec.topology = value;
                table = build_bindings(spec);
                have_topology = true;
            } else if (key == "seed") {
                std::uint64_t s = 0;
                if (!parse_count(value, s))
                    return fail(line_no, "expected an integer seed, got '" + value
                                    + "'");
                staged_seed = s;
            } else if (key == "lossy") {
                if (!parse_bool(value, spec.lossy))
                    return fail(line_no, "expected a boolean, got '" + value + "'");
            } else if (key == "link_burst") {
                std::uint64_t b = 0;
                if (!parse_count(value, b) || b < 1 || b > netsim::max_burst)
                    return fail(line_no, "link_burst must be in [1, "
                                    + std::to_string(netsim::max_burst) + "], got '"
                                    + value + "'");
                staged_burst = static_cast<std::uint32_t>(b);
            } else {
                return fail(line_no, "unknown key '" + key + "' in [scenario]");
            }
            continue;
        }

        if (section == "engine") {
            if (key == "shards") {
                // One engine: 1 is the only legal count.
                std::uint64_t n = 0;
                if (!parse_count(value, n) || n != 1)
                    return fail(line_no, "shards must be 1, got '" + value + "'");
            } else {
                return fail(line_no, "unknown key '" + key + "' in [engine]");
            }
            continue;
        }

        const auto* entry = table.find(section, key);
        if (entry == nullptr)
            return fail(line_no, "unknown key '" + key + "' in [" + section
                            + "] for topology '" + spec.topology + "'");
        if (const std::string err = entry->set(value); !err.empty())
            return fail(line_no, err);
    }

    if (!have_scenario_section) return fail(0, "missing [scenario] section");
    if (!have_topology)
        return fail(0, "missing 'topology' key in [scenario]");

    if (staged_seed) spec.set_seed(*staged_seed);
    if (staged_burst) spec.set_link_burst(*staged_burst);
    out.spec = std::move(spec);
    return out;
}

parse_outcome load_scenario_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        parse_outcome out;
        out.error = dsl_error{0, "cannot open scenario file: " + path};
        return out;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse_scenario(buf.str());
}

std::string render_scenario(const scenario_spec& spec)
{
    scenario_spec copy = spec; // bindings want mutable field pointers
    const binding_table table = build_bindings(copy);

    std::string out;
    out += "[scenario]\n";
    if (!copy.name.empty()) out += "name = " + copy.name + "\n";
    out += "topology = " + copy.topology + "\n";
    out += "seed = " + std::to_string(copy.seed()) + "\n";
    out += "lossy = " + std::string(copy.lossy ? "true" : "false") + "\n";
    out += "link_burst = " + std::to_string(copy.link_burst()) + "\n";
    for (const auto& sct : table.sections) {
        out += "\n[" + sct.name + "]\n";
        for (const auto& e : sct.entries) out += e.key + " = " + e.get() + "\n";
    }
    return out;
}

// --- dsl_driver ----------------------------------------------------------

dsl_driver::dsl_driver(scenario_spec spec) : spec_(std::move(spec))
{
    inner_ = registry::make(spec_);
    if (inner_ == nullptr)
        throw std::invalid_argument("dsl_driver: unknown topology '"
                                    + spec_.topology + "'");
}

dsl_driver::~dsl_driver() = default;

std::string dsl_driver::describe() const
{
    const std::string label = spec_.name.empty() ? spec_.topology : spec_.name;
    return "scenario '" + label + "': " + inner_->describe();
}

run_context dsl_driver::build()
{
    return inner_->build();
}

telemetry::table dsl_driver::report(telemetry::metrics_registry& reg)
{
    return inner_->report(reg);
}

dsl_driver::acceptance dsl_driver::accept()
{
    acceptance a;
    if (spec_.topology == "pilot") {
        auto& d = static_cast<pilot_driver&>(*inner_);
        const auto st = d.testbed().dtn2_rx->stats();
        a.expected = d.records_driven();
        a.delivered = st.datagrams;
        a.duplicates = st.duplicates;
        a.given_up = st.given_up;
        a.outstanding_gaps = d.testbed().dtn2_rx->outstanding_gaps();
    } else if (spec_.topology == "today") {
        auto& d = static_cast<today_driver&>(*inner_);
        // The status-quo pipeline has no sequencing: acceptance is byte
        // accounting at the first UDP hop (and the scenario is lossy).
        a.expected = d.bytes_scheduled();
        a.delivered = d.testbed().dtn1_received_bytes;
    } else if (spec_.topology == "chaos") {
        auto& d = static_cast<chaos_driver&>(*inner_);
        const auto& r = d.result();
        a.expected = r.messages_sent;
        a.delivered = r.rx.datagrams;
        a.duplicates = r.rx.duplicates;
        a.given_up = r.rx.given_up;
        a.outstanding_gaps = d.testbed().rx->outstanding_gaps();
    } else if (spec_.topology == "overload") {
        auto& d = static_cast<overload_driver&>(*inner_);
        const auto& r = d.result();
        a.expected = r.messages_sent;
        a.delivered = r.rx.datagrams;
        a.duplicates = r.rx.duplicates;
        a.given_up = r.rx.given_up;
        a.outstanding_gaps = d.testbed().rx->outstanding_gaps();
    } else if (spec_.topology == "shapeshift") {
        auto& d = static_cast<shapeshift_driver&>(*inner_);
        const auto& r = d.result();
        a.expected = r.messages_sent;
        a.delivered = r.delivered;
        a.duplicates = r.rx.duplicates;
        a.given_up = r.rx.given_up;
        a.outstanding_gaps = d.testbed().rx->outstanding_gaps();
    } else if (spec_.topology == "soak") {
        auto& d = static_cast<soak_driver&>(*inner_);
        const auto& r = d.result();
        a.expected = r.messages_sent;
        a.delivered = r.delivered;
        a.duplicates = r.rx.duplicates;
        a.given_up = r.rx.given_up;
        a.outstanding_gaps = d.testbed().rx->outstanding_gaps();
    }
    a.whole = a.delivered == a.expected && a.given_up == 0
        && a.outstanding_gaps == 0;
    return a;
}

netsim::network& dsl_driver::network()
{
    if (spec_.topology == "pilot")
        return static_cast<pilot_driver&>(*inner_).testbed().net;
    if (spec_.topology == "today")
        return static_cast<today_driver&>(*inner_).testbed().net;
    if (spec_.topology == "chaos")
        return static_cast<chaos_driver&>(*inner_).testbed().net;
    if (spec_.topology == "overload")
        return static_cast<overload_driver&>(*inner_).testbed().net;
    if (spec_.topology == "shapeshift")
        return static_cast<shapeshift_driver&>(*inner_).testbed().net;
    return static_cast<soak_driver&>(*inner_).testbed().net;
}

} // namespace mmtp::scenario
