#include "tcp/cc.hpp"

#include <cmath>

namespace mmtp::tcp {

namespace {

/// Window ceiling: high enough that no simulated path reaches it.
constexpr std::uint64_t max_cwnd_bytes = 1ull << 40;

class reno final : public congestion_control {
public:
    explicit reno(cc_config cfg)
        : cfg_(cfg), cwnd_(cfg.init_cwnd_bytes), ssthresh_(max_cwnd_bytes)
    {
    }

    void on_ack(std::uint64_t newly_acked, sim_time) override
    {
        if (cwnd_ < ssthresh_) {
            // slow start: one MSS per acked MSS
            cwnd_ += newly_acked;
        } else {
            // congestion avoidance: ~one MSS per RTT (per-ACK increment)
            const std::uint64_t inc = (static_cast<std::uint64_t>(cfg_.mss) * cfg_.mss) / cwnd_;
            cwnd_ += inc > 0 ? inc : 1;
        }
        if (cwnd_ > max_cwnd_bytes) cwnd_ = max_cwnd_bytes;
    }

    void on_loss(sim_time) override
    {
        ssthresh_ = cwnd_ / 2;
        if (ssthresh_ < 2ull * cfg_.mss) ssthresh_ = 2ull * cfg_.mss;
        cwnd_ = ssthresh_;
    }

    void on_timeout(sim_time) override
    {
        ssthresh_ = cwnd_ / 2;
        if (ssthresh_ < 2ull * cfg_.mss) ssthresh_ = 2ull * cfg_.mss;
        cwnd_ = cfg_.mss;
    }

    std::uint64_t cwnd() const override { return cwnd_; }
    std::string name() const override { return "reno"; }

private:
    cc_config cfg_;
    std::uint64_t cwnd_;
    std::uint64_t ssthresh_;
};

/// CUBIC (RFC 8312-flavoured): window growth is a cubic function of time
/// since the last loss, anchored at the pre-loss window w_max.
class cubic final : public congestion_control {
public:
    explicit cubic(cc_config cfg)
        : cfg_(cfg), cwnd_(cfg.init_cwnd_bytes), ssthresh_(max_cwnd_bytes)
    {
    }

    void on_rtt_sample(sim_duration rtt) override
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

    void on_ack(std::uint64_t newly_acked, sim_time now) override
    {
        if (cwnd_ < ssthresh_) {
            cwnd_ += newly_acked;
            if (cwnd_ > max_cwnd_bytes) cwnd_ = max_cwnd_bytes;
            return;
        }
        if (epoch_start_.is_never()) {
            epoch_start_ = now;
            if (w_max_ == 0) w_max_ = cwnd_;
            const double wmax_mss = static_cast<double>(w_max_) / cfg_.mss;
            const double cw_mss = static_cast<double>(cwnd_) / cfg_.mss;
            k_ = std::cbrt(wmax_mss * beta_ / c_);
            if (cw_mss > wmax_mss) k_ = 0.0;
        }
        const double t = (now - epoch_start_).seconds();
        const double target_mss =
            c_ * std::pow(t - k_, 3.0) + static_cast<double>(w_max_) / cfg_.mss;
        std::uint64_t target = static_cast<std::uint64_t>(
            target_mss > 1.0 ? target_mss * cfg_.mss : cfg_.mss);
        if (target > cwnd_) {
            // approach the cubic target over the next RTT (per-ACK share)
            const std::uint64_t inc =
                ((target - cwnd_) * newly_acked) / (cwnd_ ? cwnd_ : 1);
            cwnd_ += inc > 0 ? inc : 1;
        } else {
            const std::uint64_t inc = (static_cast<std::uint64_t>(cfg_.mss) * cfg_.mss)
                / (100 * (cwnd_ ? cwnd_ : 1));
            cwnd_ += inc; // TCP-friendly floor growth
        }
        if (cwnd_ > max_cwnd_bytes) cwnd_ = max_cwnd_bytes;
    }

    void on_loss(sim_time) override
    {
        w_max_ = cwnd_;
        cwnd_ = static_cast<std::uint64_t>(static_cast<double>(cwnd_) * (1.0 - beta_));
        if (cwnd_ < 2ull * cfg_.mss) cwnd_ = 2ull * cfg_.mss;
        ssthresh_ = cwnd_;
        epoch_start_ = sim_time::never();
    }

    void on_timeout(sim_time) override
    {
        w_max_ = cwnd_;
        ssthresh_ = cwnd_ / 2;
        if (ssthresh_ < 2ull * cfg_.mss) ssthresh_ = 2ull * cfg_.mss;
        cwnd_ = cfg_.mss;
        epoch_start_ = sim_time::never();
    }

    std::uint64_t cwnd() const override { return cwnd_; }
    std::string name() const override { return "cubic"; }

private:
    static constexpr double c_ = 0.4;
    static constexpr double beta_ = 0.3; // CUBIC's multiplicative decrease

    cc_config cfg_;
    std::uint64_t cwnd_;
    std::uint64_t ssthresh_;
    std::uint64_t w_max_{0};
    double k_{0.0};
    sim_time epoch_start_{sim_time::never()};
    sim_duration min_rtt_{sim_duration::zero()};
};

} // namespace

std::unique_ptr<congestion_control> make_reno(cc_config cfg)
{
    return std::make_unique<reno>(cfg);
}

std::unique_ptr<congestion_control> make_cubic(cc_config cfg)
{
    return std::make_unique<cubic>(cfg);
}

std::unique_ptr<congestion_control> make_cc(cc_kind kind, cc_config cfg)
{
    switch (kind) {
    case cc_kind::cubic: return make_cubic(cfg);
    case cc_kind::reno: default: return make_reno(cfg);
    }
}

} // namespace mmtp::tcp
