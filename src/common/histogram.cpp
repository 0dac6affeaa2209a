#include "common/histogram.hpp"

#include <bit>
#include <limits>

namespace mmtp {

namespace {
constexpr int kSubBucketBits = 6; // 64 sub-buckets per octave
constexpr std::size_t kSubBuckets = 1u << kSubBucketBits;
// 64 octaves x 64 sub-buckets comfortably covers the uint64 range.
constexpr std::size_t kBucketCount = 64 * kSubBuckets;
} // namespace

histogram::histogram() : buckets_(kBucketCount, 0) {}

std::size_t histogram::bucket_for(std::uint64_t value)
{
    if (value < kSubBuckets) return static_cast<std::size_t>(value);
    const int msb = 63 - std::countl_zero(value);
    const int octave = msb - kSubBucketBits + 1;
    const std::uint64_t sub = value >> octave; // in [kSubBuckets/2? .. kSubBuckets)
    return static_cast<std::size_t>(octave) * kSubBuckets + static_cast<std::size_t>(sub);
}

std::uint64_t histogram::bucket_midpoint(std::size_t bucket)
{
    const std::size_t octave = bucket / kSubBuckets;
    const std::uint64_t sub = bucket % kSubBuckets;
    if (octave == 0) return sub;
    const std::uint64_t lo = sub << octave;
    const std::uint64_t width = 1ull << octave;
    return lo + width / 2;
}

void histogram::record(std::uint64_t value)
{
    buckets_[bucket_for(value)]++;
    count_++;
    if (count_ == 1 || value < min_) min_ = value;
    if (value > max_) max_ = value;
}

std::uint64_t histogram::percentile(double p) const
{
    if (count_ == 0) return 0;
    if (!(p >= 0.0)) p = 0.0; // also catches NaN (comparisons are false)
    if (p > 100.0) p = 100.0;
    const auto target = static_cast<std::uint64_t>(p / 100.0 * static_cast<double>(count_ - 1)) + 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
        seen += buckets_[i];
        if (seen >= target) {
            // clamp the estimate into the observed range
            auto v = bucket_midpoint(i);
            if (v < min_) v = min_;
            if (v > max_) v = max_;
            return v;
        }
    }
    return max_;
}

} // namespace mmtp
