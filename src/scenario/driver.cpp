#include "scenario/driver.hpp"

#include "daq/message.hpp"
#include "daq/trigger.hpp"

#include <cstdio>

namespace mmtp::scenario {

int run_example(driver& d, driver* rerun)
{
    std::printf("%s\n", d.describe().c_str());
    d.run();

    telemetry::metrics_registry reg;
    auto t = d.report(reg);
    t.print();
    const auto snapshot = reg.to_csv();
    std::printf("\nmetrics snapshot:\n%s", snapshot.c_str());

    if (rerun != nullptr) {
        rerun->run();
        telemetry::metrics_registry reg2;
        const auto t2 = rerun->report(reg2);
        const bool identical = t.csv() == t2.csv() && snapshot == reg2.to_csv();
        std::printf("\nsame-seed rerun telemetry identical: %s\n",
                    identical ? "yes" : "NO — determinism broken");
        if (!identical) return 1;
    }
    return 0;
}

// --- pilot ---------------------------------------------------------------

pilot_driver::pilot_driver() : pilot_driver(options{}) {}
pilot_driver::pilot_driver(options opt) : opt_(std::move(opt)) {}

std::string pilot_driver::describe() const
{
    // Integer-only formatting: std::to_string(double) renders through
    // sprintf("%f"), whose decimal point is locale-dependent — the
    // determinism audit pins every banner to pure integer math.
    const auto loss_bp =
        static_cast<std::uint64_t>(opt_.pilot.wan_loss * 10000.0 + 0.5);
    return "pilot study (Fig. 4): " + std::to_string(opt_.records)
        + " ICEBERG trigger records, " + std::to_string(loss_bp / 100) + "."
        + std::to_string(loss_bp % 100 / 10) + std::to_string(loss_bp % 10)
        + "% WAN loss, " + std::to_string(opt_.pilot.wan_delay.ns / 1000000)
        + " ms WAN delay";
}

run_context pilot_driver::build()
{
    tb_ = make_pilot(opt_.pilot);
    daq::iceberg_stream::config icfg;
    icfg.record_limit = opt_.records;
    icfg.frames_per_record = opt_.frames_per_record;
    daq::iceberg_stream source(tb_->net.fork_rng(), icfg);
    records_driven_ = tb_->sensor_tx->drive(source);
    return run_context(tb_->net);
}

telemetry::table pilot_driver::report(telemetry::metrics_registry& reg)
{
    telemetry::register_engine_metrics(reg, tb_->net.sim());
    telemetry::register_stack_metrics(reg, "sensor", *tb_->sensor_stack);
    telemetry::register_stack_metrics(reg, "dtn1", *tb_->dtn1_stack);
    telemetry::register_stack_metrics(reg, "dtn2", *tb_->dtn2_stack);
    telemetry::register_sender_metrics(reg, "sensor", *tb_->sensor_tx);
    telemetry::register_receiver_metrics(reg, "dtn2", *tb_->dtn2_rx);
    telemetry::register_buffer_metrics(reg, "dtn1", *tb_->dtn1_svc);
    telemetry::register_element_metrics(reg, "tofino2", *tb_->tofino2);
    telemetry::register_element_metrics(reg, "alveo", *tb_->alveo_rx);

    telemetry::table t("pilot study");
    t.set_columns({"metric", "value"});
    auto row = [&](const char* name, std::uint64_t v) {
        t.add_row({name, telemetry::fmt_count(v)});
    };
    row("records_driven", records_driven_);
    row("dtn1_relayed", tb_->dtn1_svc->stats().relayed);
    row("mode_transitions", tb_->tofino2->state().counter("mode_transitions"));
    row("nak_requests_served", tb_->dtn1_svc->stats().nak_requests);
    row("retransmitted", tb_->dtn1_svc->stats().retransmitted);
    row("delivered", tb_->dtn2_rx->stats().datagrams);
    row("recovered", tb_->dtn2_rx->stats().recovered);
    row("duplicates", tb_->dtn2_rx->stats().duplicates);
    row("given_up", tb_->dtn2_rx->stats().given_up);
    row("aged_on_arrival", tb_->dtn2_rx->stats().aged_on_arrival);
    row("deadline_notifications", tb_->deadline_notifications);
    return t;
}

// --- today ---------------------------------------------------------------

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

// --- chaos ---------------------------------------------------------------

std::string chaos_driver::describe() const
{
    return "chaos drill: " + std::to_string(cfg_.messages) + " messages of "
        + std::to_string(cfg_.message_bytes) + " B, WAN + buffer fault at "
        + std::to_string(cfg_.fault_at.ns / 1000000) + " ms";
}

run_context chaos_driver::build()
{
    tb_ = make_chaos(cfg_);
    return run_context(tb_->net);
}

const chaos_result& chaos_driver::result()
{
    if (!result_) result_ = summarize_chaos(*tb_);
    return *result_;
}

telemetry::table chaos_driver::report(telemetry::metrics_registry& reg)
{
    telemetry::register_engine_metrics(reg, tb_->net.sim());
    telemetry::register_link_metrics(reg, "wan-primary", *tb_->wan_primary);
    telemetry::register_link_metrics(reg, "wan-backup", *tb_->wan_backup);
    telemetry::register_link_metrics(reg, "buf1-feed", *tb_->buf1_feed);
    telemetry::register_planner_metrics(reg, tb_->planner,
                                        {"daq", "wan-primary", "wan-backup"});
    telemetry::register_health_metrics(reg, *tb_->health);
    telemetry::register_stack_metrics(reg, "rx", *tb_->rx_stack);
    telemetry::register_sender_metrics(reg, "src", *tb_->tx);
    telemetry::register_receiver_metrics(reg, "rx", *tb_->rx);
    telemetry::register_buffer_metrics(reg, "buf1", *tb_->buf1_svc);
    telemetry::register_buffer_metrics(reg, "buf2", *tb_->buf2_svc);
    return result().report;
}

// --- overload ------------------------------------------------------------

std::string overload_driver::describe() const
{
    // Offered Gbps in tenths, integer-only (bits per ns == Gbps).
    const std::uint64_t offered_dgbps = cfg_.message_interval.ns > 0
        ? (80ull * cfg_.message_bytes)
            / static_cast<std::uint64_t>(cfg_.message_interval.ns)
        : 0;
    return "overload drill: " + std::to_string(cfg_.messages) + " messages at "
        + std::to_string(offered_dgbps / 10) + "."
        + std::to_string(offered_dgbps % 10) + " Gbps offered over a "
        + std::to_string(cfg_.wan_rate.bits_per_sec / 1000000000) + " Gbps WAN";
}

run_context overload_driver::build()
{
    tb_ = make_overload(cfg_);
    return run_context(tb_->net);
}

const overload_result& overload_driver::result()
{
    if (!result_) result_ = summarize_overload(*tb_);
    return *result_;
}

telemetry::table overload_driver::report(telemetry::metrics_registry& reg)
{
    telemetry::register_engine_metrics(reg, tb_->net.sim());
    telemetry::register_link_metrics(reg, "wan", *tb_->wan);
    telemetry::register_priority_queue_metrics(reg, "wan", *tb_->wan_queue);
    telemetry::register_planner_metrics(reg, tb_->planner,
                                        {"daq", "wan", "dtn-storage"});
    telemetry::register_element_metrics(reg, "tofino", *tb_->tofino);
    telemetry::register_stack_metrics(reg, "src", *tb_->src_stack);
    telemetry::register_stack_metrics(reg, "rx", *tb_->rx_stack);
    telemetry::register_sender_metrics(reg, "src", *tb_->tx);
    telemetry::register_receiver_metrics(reg, "rx", *tb_->rx);
    telemetry::register_buffer_metrics(reg, "buf", *tb_->buf_svc);
    return result().report;
}

// --- soak ----------------------------------------------------------------

std::string soak_driver::describe() const
{
    const std::uint64_t total = static_cast<std::uint64_t>(soak_experiments)
        * cfg_.slices_per_experiment * cfg_.messages_per_stream;
    return "facility soak: 5 experiments x "
        + std::to_string(cfg_.slices_per_experiment) + " slices x "
        + std::to_string(cfg_.messages_per_stream) + " messages ("
        + std::to_string(total) + " total) under a fault-and-overload storm";
}

run_context soak_driver::build()
{
    tb_ = make_soak(cfg_);
    return run_context(tb_->net);
}

const soak_result& soak_driver::result()
{
    if (!result_) result_ = summarize_soak(*tb_);
    return *result_;
}

telemetry::table soak_driver::report(telemetry::metrics_registry& reg)
{
    telemetry::register_engine_metrics(reg, tb_->net.sim());
    telemetry::register_link_metrics(reg, "wan-primary", *tb_->wan_primary);
    telemetry::register_link_metrics(reg, "wan-backup", *tb_->wan_backup);
    telemetry::register_link_metrics(reg, "dtn2-feed", *tb_->dtn2_feed);
    telemetry::register_planner_metrics(reg, tb_->planner,
                                        {"daq", "wan-primary", "wan-backup"});
    telemetry::register_health_metrics(reg, *tb_->health);
    telemetry::register_element_metrics(reg, "tofino", *tb_->tofino);
    telemetry::register_stack_metrics(reg, "dtn1", *tb_->dtn1_stack);
    telemetry::register_stack_metrics(reg, "rx", *tb_->rx_stack);
    telemetry::register_receiver_metrics(reg, "rx", *tb_->rx);
    telemetry::register_buffer_metrics(reg, "dtn1", *tb_->dtn1_svc);
    telemetry::register_buffer_metrics(reg, "dtn2", *tb_->dtn2_svc);
    static const char* const engine_names[soak_experiments] = {"cms", "dune",
                                                               "ecce", "mu2e",
                                                               "rubin"};
    for (std::size_t i = 0; i < soak_experiments; ++i) {
        telemetry::register_policy_engine_metrics(reg, engine_names[i],
                                                  *tb_->engines[i]);
        telemetry::register_sender_metrics(reg, engine_names[i],
                                           *tb_->senders[i]);
    }
    return result().report;
}

// --- shapeshift ----------------------------------------------------------

std::string shapeshift_driver::describe() const
{
    return "shapeshift drill: " + std::to_string(cfg_.messages) + " messages of "
        + std::to_string(cfg_.message_bytes) + " B, WAN corruption burst at "
        + std::to_string(cfg_.burst_at.ns / 1000000) + " ms answered by a runtime "
        + "mode shift";
}

run_context shapeshift_driver::build()
{
    tb_ = make_shapeshift(cfg_);
    return run_context(tb_->net);
}

const shapeshift_result& shapeshift_driver::result()
{
    if (!result_) result_ = summarize_shapeshift(*tb_);
    return *result_;
}

telemetry::table shapeshift_driver::report(telemetry::metrics_registry& reg)
{
    telemetry::register_engine_metrics(reg, tb_->net.sim());
    telemetry::register_link_metrics(reg, "wan", *tb_->wan);
    telemetry::register_policy_engine_metrics(reg, *tb_->policy_ctl);
    telemetry::register_element_metrics(reg, "tofino", *tb_->tofino);
    telemetry::register_stack_metrics(reg, "sensor", *tb_->sensor_stack);
    telemetry::register_stack_metrics(reg, "rx", *tb_->rx_stack);
    telemetry::register_sender_metrics(reg, "sensor", *tb_->tx);
    telemetry::register_receiver_metrics(reg, "rx", *tb_->rx);
    telemetry::register_buffer_metrics(reg, "dtn1", *tb_->dtn1_svc);
    return result().report;
}

} // namespace mmtp::scenario
