// report.hpp — console table and CSV emitters for the bench harness.
//
// Every bench prints the same rows/series the paper's evaluation reports,
// through this one table type, so outputs stay uniform and greppable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mmtp::telemetry {

class table {
public:
    explicit table(std::string title) : title_(std::move(title)) {}

    void set_columns(std::vector<std::string> names) { columns_ = std::move(names); }
    void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

    /// Renders aligned columns to stdout.
    void print() const;

    /// Renders the table as CSV text. Deterministic: identical rows
    /// produce identical bytes, which is how chaos drills verify that
    /// two same-seed runs emit byte-identical telemetry.
    std::string csv() const;

    /// Writes a CSV file; returns false on I/O failure.
    bool write_csv(const std::string& path) const;

    std::size_t row_count() const { return rows_.size(); }

private:
    std::string title_;
    std::vector<std::string> columns_;
    std::vector<std::vector<std::string>> rows_;
};

/// Formats helpers used across benches.
std::string fmt_rate(double mbps);
std::string fmt_duration_us(double us);
std::string fmt_count(std::uint64_t n);

} // namespace mmtp::telemetry
