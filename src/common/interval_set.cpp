#include "common/interval_set.hpp"

namespace mmtp {

void interval_set::insert(std::uint64_t start, std::uint64_t end)
{
    if (start >= end) return;
    // Find the first interval that could overlap or touch [start, end).
    auto it = m_.upper_bound(start);
    if (it != m_.begin()) {
        auto prev = std::prev(it);
        if (prev->second >= start) {
            // Overlaps or touches on the left: grow that node in place (an
            // in-order arrival extends the last interval without a node
            // erase and re-insert), then absorb on the right.
            if (end > prev->second) prev->second = end;
            while (it != m_.end() && it->first <= prev->second) {
                if (it->second > prev->second) prev->second = it->second;
                it = m_.erase(it);
            }
            return;
        }
    }
    while (it != m_.end() && it->first <= end) { // absorb on the right
        if (it->second > end) end = it->second;
        it = m_.erase(it);
    }
    m_.emplace_hint(it, start, end);
}

void interval_set::erase(std::uint64_t start, std::uint64_t end)
{
    if (start >= end) return;
    auto it = m_.lower_bound(start);
    if (it != m_.begin()) {
        auto prev = std::prev(it);
        if (prev->second > start) it = prev;
    }
    while (it != m_.end() && it->first < end) {
        const auto s = it->first;
        const auto e = it->second;
        it = m_.erase(it);
        if (s < start) m_[s] = start;
        if (e > end) {
            m_[end] = e;
            break;
        }
    }
}

bool interval_set::contains(std::uint64_t value) const
{
    auto it = m_.upper_bound(value);
    if (it == m_.begin()) return false;
    return std::prev(it)->second > value;
}

bool interval_set::covers(std::uint64_t start, std::uint64_t end) const
{
    if (start >= end) return true;
    auto it = m_.upper_bound(start);
    if (it == m_.begin()) return false;
    return std::prev(it)->second >= end;
}

std::uint64_t interval_set::next_missing(std::uint64_t from) const
{
    auto it = m_.upper_bound(from);
    if (it == m_.begin()) return from;
    auto prev = std::prev(it);
    return prev->second > from ? prev->second : from;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> interval_set::gaps(
    std::uint64_t start, std::uint64_t end) const
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    if (start >= end) return out;
    std::uint64_t cursor = start;
    for (const auto& [s, e] : m_) {
        if (e <= cursor) continue;
        if (s >= end) break;
        if (s > cursor) out.push_back({cursor, s < end ? s : end});
        if (e > cursor) cursor = e;
        if (cursor >= end) break;
    }
    if (cursor < end) out.push_back({cursor, end});
    return out;
}

std::uint64_t interval_set::covered() const
{
    std::uint64_t total = 0;
    for (const auto& [s, e] : m_) total += e - s;
    return total;
}

} // namespace mmtp
