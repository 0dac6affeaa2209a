#include "telemetry/report.hpp"

#include <cstdio>
#include <fstream>

namespace mmtp::telemetry {

void table::print() const
{
    std::printf("\n== %s ==\n", title_.c_str());
    std::vector<std::size_t> widths(columns_.size(), 0);
    for (std::size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
    for (const auto& row : rows_)
        for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
            if (row[c].size() > widths[c]) widths[c] = row[c].size();

    auto print_row = [&](const std::vector<std::string>& cells) {
        for (std::size_t c = 0; c < widths.size(); ++c) {
            const std::string& v = c < cells.size() ? cells[c] : std::string{};
            std::printf("%-*s  ", static_cast<int>(widths[c]), v.c_str());
        }
        std::printf("\n");
    };
    print_row(columns_);
    std::string sep;
    for (std::size_t c = 0; c < widths.size(); ++c) {
        sep.append(widths[c], '-');
        sep.append("  ");
    }
    std::printf("%s\n", sep.c_str());
    for (const auto& row : rows_) print_row(row);
}

std::string table::csv() const
{
    std::string out;
    auto write_row = [&](const std::vector<std::string>& cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            if (c) out.push_back(',');
            out.append(cells[c]);
        }
        out.push_back('\n');
    };
    write_row(columns_);
    for (const auto& row : rows_) write_row(row);
    return out;
}

bool table::write_csv(const std::string& path) const
{
    std::ofstream out(path);
    if (!out) return false;
    out << csv();
    return static_cast<bool>(out);
}

std::string fmt_rate(double mbps)
{
    char buf[64];
    if (mbps >= 1000.0)
        std::snprintf(buf, sizeof buf, "%.2f Gbps", mbps / 1000.0);
    else
        std::snprintf(buf, sizeof buf, "%.2f Mbps", mbps);
    return buf;
}

std::string fmt_duration_us(double us)
{
    char buf[64];
    if (us >= 1e6)
        std::snprintf(buf, sizeof buf, "%.3f s", us / 1e6);
    else if (us >= 1e3)
        std::snprintf(buf, sizeof buf, "%.3f ms", us / 1e3);
    else
        std::snprintf(buf, sizeof buf, "%.1f us", us);
    return buf;
}

std::string fmt_count(std::uint64_t n)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(n));
    return buf;
}

} // namespace mmtp::telemetry
