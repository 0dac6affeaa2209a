#include "common/trace.hpp"

#include <cstdio>
#include <unordered_set>

namespace mmtp::trace {

const char* hop_name(hop k)
{
    switch (k) {
    case hop::link_enqueue: return "link_enqueue";
    case hop::link_dequeue: return "link_dequeue";
    case hop::link_drop: return "link_drop";
    case hop::link_corrupt: return "link_corrupt";
    case hop::link_down: return "link_down";
    case hop::link_up: return "link_up";
    case hop::sw_mode_rewrite: return "mode_rewrite";
    case hop::sw_seq_insert: return "seq_insert";
    case hop::sw_age_update: return "age_update";
    case hop::sw_clone: return "clone";
    case hop::sw_backpressure: return "backpressure";
    case hop::sw_drop: return "pipeline_drop";
    case hop::mmtp_send: return "send";
    case hop::mmtp_deliver: return "deliver";
    case hop::mmtp_nak: return "nak";
    case hop::mmtp_retransmit: return "retransmit";
    case hop::mmtp_failover: return "failover";
    case hop::mmtp_giveup: return "give_up";
    case hop::mmtp_drop: return "endpoint_drop";
    case hop::ctl_reconfig_planned: return "reconfig_planned";
    case hop::ctl_reconfig_installed: return "reconfig_installed";
    case hop::ctl_reconfig_committed: return "reconfig_committed";
    case hop::ctl_reconfig_aborted: return "reconfig_aborted";
    }
    return "?";
}

const char* reason_name(reason r)
{
    switch (r) {
    case reason::none: return "";
    case reason::queue_full: return "queue_full";
    case reason::oversize: return "oversize";
    case reason::link_down: return "link_down";
    case reason::random_loss: return "random_loss";
    case reason::corrupted: return "corrupted";
    case reason::malformed: return "malformed";
    case reason::pipeline: return "pipeline";
    case reason::unroutable: return "unroutable";
    case reason::deadline_shed: return "deadline_shed";
    }
    return "?";
}

namespace {
std::size_t round_up_pow2(std::size_t n)
{
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
}
} // namespace

flight_recorder::flight_recorder(std::size_t capacity)
    : mask_(round_up_pow2(capacity < 2 ? 2 : capacity) - 1)
{
    ring_.reset(static_cast<record*>(::operator new(this->capacity() * sizeof(record))));
    site_names_.push_back("?"); // site 0: unnamed
}

std::uint32_t flight_recorder::site(const std::string& name)
{
    for (std::uint32_t i = 0; i < site_names_.size(); ++i)
        if (site_names_[i] == name) return i;
    site_names_.push_back(name);
    return static_cast<std::uint32_t>(site_names_.size() - 1);
}

const std::string& flight_recorder::site_name(std::uint32_t id) const
{
    return site_names_[id < site_names_.size() ? id : 0];
}

std::vector<record> flight_recorder::events() const
{
    std::vector<record> out;
    out.reserve(head_ - overwritten());
    for_each([&](const record& r) { out.push_back(r); });
    return out;
}

std::vector<record> flight_recorder::message_timeline(std::uint64_t seq) const
{
    // Pass 1: collect every packet id bound to the sequence. Binding
    // records appear before any dependent binding (a clone record follows
    // its parent's seq-insert in the same pipeline pass; a retransmit
    // binds its fresh id at emission), so one ordered pass converges.
    std::unordered_set<std::uint64_t> ids;
    for_each([&](const record& r) {
        switch (r.kind) {
        case hop::sw_seq_insert:
        case hop::mmtp_retransmit:
        case hop::mmtp_deliver:
            if (r.arg == seq && r.packet_id != 0) ids.insert(r.packet_id);
            break;
        case hop::sw_clone:
            if (ids.count(r.arg)) ids.insert(r.packet_id);
            break;
        default:
            break;
        }
    });

    // Pass 2: keep records for bound packets plus stream-scoped records
    // that name (or cover) the sequence.
    std::vector<record> out;
    for_each([&](const record& r) {
        bool keep = r.packet_id != 0 && ids.count(r.packet_id) != 0;
        switch (r.kind) {
        case hop::mmtp_nak:
        case hop::mmtp_giveup:
            keep = seq >= range_start(r.arg) && seq < range_start(r.arg) + range_len(r.arg);
            break;
        case hop::mmtp_failover:
            keep = true;
            break;
        default:
            break;
        }
        if (keep) out.push_back(r);
    });
    return out;
}

bool flight_recorder::traversed(std::uint64_t seq, std::uint32_t site_id,
                                std::int64_t after_ns) const
{
    for (const auto& r : message_timeline(seq)) {
        if (r.site != site_id || r.at_ns < after_ns) continue;
        if (r.kind == hop::link_enqueue || r.kind == hop::link_dequeue) return true;
    }
    return false;
}

std::string flight_recorder::format_timeline(const std::vector<record>& evs) const
{
    std::string out;
    char line[192];
    char arg[64];
    for (const auto& r : evs) {
        const char* why = reason_name(r.why);
        if (r.kind == hop::mmtp_nak || r.kind == hop::mmtp_giveup)
            std::snprintf(arg, sizeof arg, "seq=[%llu,+%llu)",
                          static_cast<unsigned long long>(range_start(r.arg)),
                          static_cast<unsigned long long>(range_len(r.arg)));
        else
            std::snprintf(arg, sizeof arg, "%llu", static_cast<unsigned long long>(r.arg));
        std::snprintf(line, sizeof line, "%12lld ns  %-14s %-13s pkt=%-8llu arg=%s%s%s\n",
                      static_cast<long long>(r.at_ns), site_name(r.site).c_str(),
                      hop_name(r.kind), static_cast<unsigned long long>(r.packet_id), arg,
                      *why ? " reason=" : "", why);
        out += line;
    }
    return out;
}

} // namespace mmtp::trace
