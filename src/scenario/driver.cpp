#include "scenario/driver.hpp"

#include "pnet/stages.hpp"

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

driver::acceptance driver::stream_acceptance(std::uint64_t expected,
                                             std::uint64_t delivered,
                                             const core::receiver& rx)
{
    acceptance a;
    a.expected = expected;
    a.delivered = delivered;
    a.duplicates = rx.stats().duplicates;
    a.given_up = rx.stats().given_up;
    a.outstanding_gaps = rx.outstanding_gaps();
    a.whole = a.delivered == a.expected && a.given_up == 0 && a.outstanding_gaps == 0;
    return a;
}

void send_switch_flush(pnet::programmable_switch& sw, core::stack& from,
                       wire::ipv4_addr to, wire::experiment_id stream)
{
    auto& st = sw.state();
    st.create_register("mode_seq", pnet::mode_transition_stage::seq_register_cells);
    const auto cell =
        st.reg("mode_seq", pnet::mode_transition_stage::seq_cell_of(stream));
    wire::stream_flush_body body;
    body.experiment = stream;
    body.epoch = static_cast<std::uint16_t>(cell >> 48);
    body.next_sequence = cell & 0xffffffffffffull;
    byte_writer w;
    serialize(body, w);
    for (int i = 0; i < 3; ++i)
        from.send_control(to, stream, wire::control_type::stream_flush,
                          std::vector<std::uint8_t>(w.view().begin(), w.view().end()));
}

} // namespace mmtp::scenario
