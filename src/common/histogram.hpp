// histogram.hpp — log-bucketed latency/size histogram with percentile
// queries, used by telemetry and every bench that reports distributions.
#pragma once

#include <cstdint>
#include <cstddef>
#include <vector>

namespace mmtp {

/// Records non-negative 64-bit samples into ~log-spaced buckets
/// (HdrHistogram-style: 64 sub-buckets per power of two) and answers
/// percentile queries with bounded relative error.
class histogram {
public:
    histogram();

    void record(std::uint64_t value);

    std::uint64_t count() const { return count_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }

    /// Value at percentile p in [0, 100]. Returns 0 for an empty histogram.
    std::uint64_t percentile(double p) const;

private:
    static std::size_t bucket_for(std::uint64_t value);
    static std::uint64_t bucket_midpoint(std::size_t bucket);

    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_{0};
    std::uint64_t min_{0};
    std::uint64_t max_{0};
};

} // namespace mmtp
