#include "scenario/today.hpp"

namespace mmtp::scenario {

namespace {
// The pipeline's fixed spans; today_config holds what programs vary.
/// Every span — DAQ, border, WAN, storage and campus — is 100 GbE.
constexpr data_rate link_rate = data_rate::from_gbps(100);
/// The researcher access leg, one way.
constexpr sim_duration campus_delay{5000000}; // 5 ms
/// Egress queue capacity on the border, WAN and campus spans.
constexpr std::uint64_t queue_bytes = 32ull * 1024 * 1024;
} // namespace

tcp_relay::tcp_relay(tcp::connection& in, tcp::connection& out) : in_(in), out_(out)
{
    in_.set_on_delivered([this](std::uint64_t) { pump(); });
    out_.set_on_writable([this] { pump(); });
    out_.set_on_connected([this] { pump(); });
}

void tcp_relay::pump()
{
    const std::uint64_t available = in_.delivered_bytes() - relayed_;
    if (available == 0) return;
    relayed_ += out_.send(available);
}

tcp::tcp_config today_testbed::wan_tcp_config() const
{
    if (!cfg.tuned) return tcp::tcp_config{}; // stock: 256 KiB buffers
    return tcp::tuned_dtn_config(link_rate, cfg.wan_delay * 2);
}

tcp::tcp_config today_testbed::campus_tcp_config() const
{
    if (!cfg.tuned) return tcp::tcp_config{};
    return tcp::tuned_dtn_config(link_rate, campus_delay * 2);
}

std::uint64_t today_testbed::drive_sensor(daq::message_source& src, std::uint64_t limit)
{
    constexpr std::uint64_t max_udp_payload = 8192;
    std::uint64_t total = 0;
    std::uint64_t n = 0;
    auto& eng = net.sim();
    auto* udp_stack = sensor_udp.get();
    const auto dst = dtn1->address();
    auto& sock = udp_stack->open(40000);

    while (limit == 0 || n < limit) {
        auto tm = src.next();
        if (!tm) break;
        n++;
        total += tm->msg.size_bytes;
        eng.schedule_at(tm->at, [this, &sock, dst, msg = std::move(tm->msg)] {
            std::uint64_t remaining = msg.size_bytes;
            std::span<const std::uint8_t> inline_left(msg.inline_payload);
            bool first = true;
            while (remaining > 0 || first) {
                first = false;
                const std::uint64_t chunk =
                    remaining < max_udp_payload ? remaining : max_udp_payload;
                const std::uint64_t take =
                    inline_left.size() < chunk ? inline_left.size() : chunk;
                std::vector<std::uint8_t> content(inline_left.begin(),
                                                  inline_left.begin() + take);
                inline_left = inline_left.subspan(take);
                sock.send_to(dst, daq_port, std::move(content), chunk - take);
                remaining -= chunk;
            }
        });
    }
    return total;
}

std::unique_ptr<today_testbed> make_today(const today_config& cfg)
{
    auto tb = std::make_unique<today_testbed>();
    tb->cfg = cfg;
    tb->net = netsim::network(cfg.seed);
    auto& net = tb->net;

    tb->sensor = &net.add_host("sensor");
    tb->dtn1 = &net.add_host("dtn1");
    tb->border = &net.emplace<pnet::programmable_switch>("border-router");
    tb->storage_router = &net.emplace<pnet::programmable_switch>("storage-router");
    tb->storage = &net.add_host("storage");
    tb->campus = &net.add_host("campus");

    netsim::link_config daq_link;
    daq_link.rate = link_rate;
    daq_link.propagation = sim_duration{500};

    netsim::link_config border_link;
    border_link.rate = link_rate;
    border_link.propagation = sim_duration{1000};
    border_link.queue_capacity_bytes = queue_bytes;

    netsim::link_config wan_link = border_link;
    wan_link.propagation = cfg.wan_delay;
    wan_link.drop_probability = cfg.wan_loss;

    netsim::link_config campus_link;
    campus_link.rate = link_rate;
    campus_link.propagation = campus_delay;
    campus_link.queue_capacity_bytes = queue_bytes;

    net.connect(*tb->sensor, *tb->dtn1, daq_link);
    net.connect(*tb->dtn1, *tb->border, border_link);
    // the WAN span (loss and delay live here)
    net.connect_simplex(*tb->border, *tb->storage_router, wan_link);
    netsim::link_config wan_back = border_link;
    wan_back.propagation = cfg.wan_delay;
    wan_back.drop_probability = cfg.wan_loss;
    net.connect_simplex(*tb->storage_router, *tb->border, wan_back);
    net.connect(*tb->storage_router, *tb->storage, border_link);
    // researcher access leg
    net.connect(*tb->storage, *tb->campus, campus_link);
    net.compute_routes();

    tb->sensor_udp = std::make_unique<udp::stack>(*tb->sensor, net.ids());
    tb->dtn1_udp = std::make_unique<udp::stack>(*tb->dtn1, net.ids());
    tb->dtn1_tcp = std::make_unique<tcp::stack>(*tb->dtn1, net.ids());
    tb->storage_tcp = std::make_unique<tcp::stack>(*tb->storage, net.ids());
    tb->campus_tcp = std::make_unique<tcp::stack>(*tb->campus, net.ids());

    // DAQ ingest counter at DTN1 (applications wire their own relay).
    auto& ingest = tb->dtn1_udp->open(today_testbed::daq_port);
    ingest.set_on_receive([tbp = tb.get()](udp::datagram&& d) {
        tbp->dtn1_received_bytes += d.total_payload_bytes;
        tbp->dtn1_received_datagrams++;
    });

    return tb;
}

// --- today_driver ----------------------------------------------------------

today_driver::today_driver() : today_driver(options{}) {}
today_driver::today_driver(options opt) : opt_(std::move(opt)) {}

std::string today_driver::describe() const
{
    return "status-quo pipeline (Fig. 2): " + std::to_string(opt_.messages)
        + " UDP messages of " + std::to_string(opt_.message_bytes)
        + " B into the relay chain";
}

run_context today_driver::build()
{
    tb_ = make_today(opt_.today);
    daq::steady_source source(wire::make_experiment_id(wire::experiments::dune, 0),
                              opt_.message_bytes, opt_.message_interval,
                              sim_time::zero(), opt_.messages);
    bytes_scheduled_ = tb_->drive_sensor(source);
    return run_context(tb_->net);
}

telemetry::table today_driver::report(telemetry::metrics_registry& reg)
{
    telemetry::register_engine_metrics(reg, tb_->net.sim());

    telemetry::table t("status-quo pipeline");
    t.set_columns({"metric", "value"});
    t.add_row({"bytes_scheduled", telemetry::fmt_count(bytes_scheduled_)});
    t.add_row({"dtn1_received_bytes", telemetry::fmt_count(tb_->dtn1_received_bytes)});
    t.add_row(
        {"dtn1_received_datagrams", telemetry::fmt_count(tb_->dtn1_received_datagrams)});
    return t;
}

driver::acceptance today_driver::accept()
{
    acceptance a;
    a.expected = bytes_scheduled_;
    a.delivered = tb_->dtn1_received_bytes;
    a.whole = a.delivered == a.expected;
    return a;
}

} // namespace mmtp::scenario
