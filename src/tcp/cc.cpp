#include "tcp/cc.hpp"

#include <cmath>

namespace mmtp::tcp {

namespace {

/// Window ceiling: high enough that no simulated path reaches it.
constexpr std::uint64_t max_cwnd_bytes = 1ull << 40;

} // namespace

cubic::cubic(std::uint32_t mss, std::uint64_t init_cwnd_bytes)
    : mss_(mss), cwnd_(init_cwnd_bytes), ssthresh_(max_cwnd_bytes)
{
}

void cubic::on_rtt_sample(sim_duration rtt)
{
    // HyStart-lite: in slow start, a delay increase of max(1 ms,
    // min_rtt/8) over the observed floor signals queue build-up;
    // exit slow start before overshooting the bottleneck buffer.
    if (min_rtt_.ns == 0 || rtt < min_rtt_) min_rtt_ = rtt;
    if (cwnd_ < ssthresh_) {
        const auto thresh = min_rtt_.ns / 8 > 1'000'000 ? min_rtt_.ns / 8 : 1'000'000;
        if (rtt.ns > min_rtt_.ns + thresh) ssthresh_ = cwnd_;
    }
}

void cubic::on_ack(std::uint64_t newly_acked, sim_time now)
{
    if (cwnd_ < ssthresh_) {
        cwnd_ += newly_acked;
        if (cwnd_ > max_cwnd_bytes) cwnd_ = max_cwnd_bytes;
        return;
    }
    if (epoch_start_.is_never()) {
        epoch_start_ = now;
        if (w_max_ == 0) w_max_ = cwnd_;
        const double wmax_mss = static_cast<double>(w_max_) / mss_;
        const double cw_mss = static_cast<double>(cwnd_) / mss_;
        k_ = std::cbrt(wmax_mss * beta_ / c_);
        if (cw_mss > wmax_mss) k_ = 0.0;
    }
    const double t = (now - epoch_start_).seconds();
    const double target_mss = c_ * std::pow(t - k_, 3.0) + static_cast<double>(w_max_) / mss_;
    std::uint64_t target =
        static_cast<std::uint64_t>(target_mss > 1.0 ? target_mss * mss_ : mss_);
    if (target > cwnd_) {
        // approach the cubic target over the next RTT (per-ACK share)
        const std::uint64_t inc = ((target - cwnd_) * newly_acked) / (cwnd_ ? cwnd_ : 1);
        cwnd_ += inc > 0 ? inc : 1;
    } else {
        const std::uint64_t inc =
            (static_cast<std::uint64_t>(mss_) * mss_) / (100 * (cwnd_ ? cwnd_ : 1));
        cwnd_ += inc; // TCP-friendly floor growth
    }
    if (cwnd_ > max_cwnd_bytes) cwnd_ = max_cwnd_bytes;
}

void cubic::on_loss(sim_time)
{
    w_max_ = cwnd_;
    cwnd_ = static_cast<std::uint64_t>(static_cast<double>(cwnd_) * (1.0 - beta_));
    if (cwnd_ < 2ull * mss_) cwnd_ = 2ull * mss_;
    ssthresh_ = cwnd_;
    epoch_start_ = sim_time::never();
}

void cubic::on_timeout(sim_time)
{
    w_max_ = cwnd_;
    ssthresh_ = cwnd_ / 2;
    if (ssthresh_ < 2ull * mss_) ssthresh_ = 2ull * mss_;
    cwnd_ = mss_;
    epoch_start_ = sim_time::never();
}

} // namespace mmtp::tcp
