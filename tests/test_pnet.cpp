// Unit tests for src/pnet: parser/deparser, the four in-network MMTP
// programs (mode transition, age update, backpressure, duplication), the
// timeliness band classifier, and end-to-end forwarding through a
// programmable switch.
#include "netsim/network.hpp"
#include "pnet/element.hpp"
#include "pnet/stages.hpp"
#include "wire/build.hpp"

#include <gtest/gtest.h>

using namespace mmtp;
using namespace mmtp::netsim;
using namespace mmtp::pnet;
using namespace mmtp::literals;

namespace {

packet make_mmtp_packet(const wire::header& h, wire::ipv4_addr src, wire::ipv4_addr dst,
                        std::uint64_t payload = 1000)
{
    packet p;
    wire::build_mmtp_over_ipv4(p.headers, 0x02, src, dst, h, payload);
    p.virtual_payload = payload;
    p.id = 1;
    return p;
}

packet_context make_ctx(const wire::header& h, wire::ipv4_addr src, wire::ipv4_addr dst,
                        sim_time now = sim_time::zero())
{
    packet_context ctx;
    ctx.pkt = make_mmtp_packet(h, src, dst);
    ctx.now = now;
    EXPECT_TRUE(parse_context(ctx));
    return ctx;
}

wire::header basic_header(std::uint32_t experiment_num = 6, std::uint32_t slice = 0)
{
    wire::header h;
    h.experiment = wire::make_experiment_id(experiment_num, slice);
    h.m.set(wire::feature::timestamped);
    h.timestamp_ns = 0;
    return h;
}

wire::header timed_header(std::uint64_t ts_ns, std::uint32_t deadline_us,
                          wire::ipv4_addr notify = 0)
{
    auto h = basic_header(6);
    h.timestamp_ns = ts_ns;
    h.m.set(wire::feature::timeliness);
    wire::timeliness_field t;
    t.deadline_us = deadline_us;
    t.notify_addr = notify;
    h.timeliness = t;
    return h;
}

} // namespace

// ------------------------------------------------------- parse / deparse

TEST(context, parses_mmtp_over_ipv4)
{
    auto ctx = make_ctx(basic_header(), 0x0a000001, 0x0a000002);
    ASSERT_TRUE(ctx.ip.has_value());
    ASSERT_TRUE(ctx.mmtp.has_value());
    EXPECT_FALSE(ctx.mmtp_over_l2);
    EXPECT_EQ(ctx.ip->dst, 0x0a000002u);
}

TEST(context, parses_mmtp_over_l2)
{
    packet_context ctx;
    wire::build_mmtp_over_l2(ctx.pkt.headers, 0x02, 0x03, basic_header());
    ASSERT_TRUE(parse_context(ctx));
    EXPECT_TRUE(ctx.mmtp_over_l2);
    ASSERT_TRUE(ctx.mmtp.has_value());
    EXPECT_FALSE(ctx.ip.has_value());
}

TEST(context, non_mmtp_passes_through_opaque)
{
    packet_context ctx;
    byte_writer w;
    wire::eth_header eth;
    eth.ethertype = wire::ethertype_ipv4;
    serialize(eth, w);
    wire::ipv4_header ip;
    ip.protocol = wire::ipproto_tcp;
    ip.src = 1;
    ip.dst = 2;
    serialize(ip, w);
    w.u32(0xdeadbeef); // opaque L4 bytes
    ctx.pkt.headers = w.take();
    ASSERT_TRUE(parse_context(ctx));
    EXPECT_FALSE(ctx.mmtp.has_value());
    ASSERT_TRUE(ctx.ip.has_value());

    // deparse with dirty headers must preserve the opaque L4 bytes
    const auto before = ctx.pkt.headers;
    ctx.headers_dirty = true;
    deparse_context(ctx);
    EXPECT_EQ(ctx.pkt.headers, before);
}

TEST(context, deparse_reflects_header_rewrite)
{
    auto ctx = make_ctx(basic_header(), 0x0a000001, 0x0a000002);
    ctx.mmtp->m.set(wire::feature::timeliness);
    wire::timeliness_field t;
    t.deadline_us = 777;
    ctx.mmtp->timeliness = t;
    ctx.headers_dirty = true;
    deparse_context(ctx);

    packet_context ctx2;
    ctx2.pkt = std::move(ctx.pkt);
    ASSERT_TRUE(parse_context(ctx2));
    ASSERT_TRUE(ctx2.mmtp->timeliness.has_value());
    EXPECT_EQ(ctx2.mmtp->timeliness->deadline_us, 777u);
}

TEST(context, dst_override_rewrites_ip)
{
    auto ctx = make_ctx(basic_header(), 0x0a000001, 0x0a000002);
    ctx.headers_dirty = true;
    ctx.dst_override = 0x0a0000ff;
    deparse_context(ctx);
    packet_context ctx2;
    ctx2.pkt = std::move(ctx.pkt);
    ASSERT_TRUE(parse_context(ctx2));
    EXPECT_EQ(ctx2.ip->dst, 0x0a0000ffu);
}

TEST(context, control_body_only_for_control_messages)
{
    auto data_ctx = make_ctx(basic_header(), 1, 2);
    data_ctx.pkt.payload = {1, 2, 3};
    EXPECT_TRUE(data_ctx.control_body().empty());

    wire::header ch;
    ch.m.set(wire::feature::control);
    ch.control = wire::control_type::subscribe;
    auto ctl_ctx = make_ctx(ch, 1, 2);
    ctl_ctx.pkt.payload = {1, 2, 3};
    EXPECT_EQ(ctl_ctx.control_body().size(), 3u);
}

// ------------------------------------------------------- element state

TEST(element_state, registers_and_counters)
{
    element_state st;
    st.create_register("r", 4);
    st.reg("r", 2) = 99;
    EXPECT_EQ(st.reg("r", 2), 99u);
    EXPECT_THROW(st.reg("missing"), std::out_of_range);
    EXPECT_THROW(st.reg("r", 10), std::out_of_range);
    st.bump("c");
    st.bump("c", 4);
    EXPECT_EQ(st.counter("c"), 5u);
    EXPECT_EQ(st.counter("zzz"), 0u);
}

TEST(element_state, handles_and_names_address_the_same_state)
{
    element_state st;
    const auto c = st.counter_id("c");
    st.bump(c, 2);
    st.bump("c");
    EXPECT_EQ(st.counter("c"), 3u);
    EXPECT_EQ(st.counter_id("c").index, c.index);
    EXPECT_NE(st.counter_id("d").index, c.index);

    st.create_register("r", 4);
    const auto r = st.register_id("r");
    st.reg(r, 3) = 7;
    EXPECT_EQ(st.reg("r", 3), 7u);
    EXPECT_THROW(st.reg(r, 4), std::out_of_range);
    // A register named by a handle but never sized has no cells.
    const auto unsized = st.register_id("unsized");
    EXPECT_THROW(st.reg(unsized, 0), std::out_of_range);
    EXPECT_THROW(st.reg("unsized"), std::out_of_range);
}

TEST(pipeline_stage, belongs_to_one_element)
{
    network net(3);
    auto& sw1 = net.emplace<programmable_switch>("sw1");
    auto& sw2 = net.emplace<programmable_switch>("sw2");

    auto stage = std::make_shared<mode_transition_stage>();
    sw1.add_stage(stage);
    // Resolved at install: the sequence register exists before traffic.
    EXPECT_NO_THROW(sw1.state().reg("mode_seq", mode_transition_stage::seq_register_cells - 1));
    EXPECT_THROW(sw2.add_stage(stage), std::logic_error);

    // Driving it against another element's state is the same error.
    element_state other;
    auto ctx = make_ctx(basic_header(), 1, 2);
    EXPECT_THROW(stage->process(ctx, other), std::logic_error);
}

// ---------------------------------------------------- mode transitions

TEST(mode_transition, upgrades_mode_and_assigns_sequences)
{
    mode_transition_stage stage;
    mode_rule rule;
    rule.experiment = 6;
    rule.set_bits = wire::feature_bit(wire::feature::sequencing)
        | wire::feature_bit(wire::feature::retransmission)
        | wire::feature_bit(wire::feature::timeliness);
    rule.buffer_addr = 0x0a000042;
    rule.deadline_us = 9000;
    rule.notify_addr = 0x0a000043;
    stage.add_rule(rule);

    element_state st;
    st.element_addr = 0x0a000099;

    for (std::uint64_t i = 0; i < 3; ++i) {
        auto ctx = make_ctx(basic_header(6), 1, 2);
        stage.process(ctx, st);
        ASSERT_TRUE(ctx.headers_dirty);
        ASSERT_TRUE(ctx.mmtp->sequencing.has_value());
        EXPECT_EQ(ctx.mmtp->sequencing->sequence, i); // counts up per packet
        ASSERT_TRUE(ctx.mmtp->retransmission.has_value());
        EXPECT_EQ(ctx.mmtp->retransmission->buffer_addr, 0x0a000042u);
        ASSERT_TRUE(ctx.mmtp->timeliness.has_value());
        EXPECT_EQ(ctx.mmtp->timeliness->deadline_us, 9000u);
        EXPECT_EQ(ctx.mmtp->timeliness->notify_addr, 0x0a000043u);
    }
    EXPECT_EQ(st.counter("mode_transitions"), 3u);
}

TEST(mode_transition, existing_sequence_not_renumbered)
{
    mode_transition_stage stage;
    mode_rule rule;
    rule.match_any_experiment = true;
    rule.set_bits = wire::feature_bit(wire::feature::sequencing);
    stage.add_rule(rule);

    element_state st;
    auto h = basic_header(6);
    h.m.set(wire::feature::sequencing);
    h.sequencing = wire::sequencing_field{555, 1};
    auto ctx = make_ctx(h, 1, 2);
    stage.process(ctx, st);
    EXPECT_EQ(ctx.mmtp->sequencing->sequence, 555u); // retransmissions keep numbers
}

TEST(mode_transition, clear_bits_strip_fields)
{
    mode_transition_stage stage;
    mode_rule rule;
    rule.match_any_experiment = true;
    rule.clear_bits = wire::feature_bit(wire::feature::retransmission)
        | wire::feature_bit(wire::feature::backpressure);
    stage.add_rule(rule);

    element_state st;
    auto h = basic_header(6);
    h.m.set(wire::feature::retransmission).set(wire::feature::backpressure);
    h.retransmission = wire::retransmission_field{7};
    auto ctx = make_ctx(h, 1, 2);
    stage.process(ctx, st);
    EXPECT_FALSE(ctx.mmtp->m.has(wire::feature::retransmission));
    EXPECT_FALSE(ctx.mmtp->retransmission.has_value());
    EXPECT_FALSE(ctx.mmtp->m.has(wire::feature::backpressure));
    EXPECT_TRUE(ctx.mmtp->consistent());
}

TEST(mode_transition, wrong_experiment_not_matched)
{
    mode_transition_stage stage;
    mode_rule rule;
    rule.experiment = 99;
    rule.set_bits = wire::feature_bit(wire::feature::sequencing);
    stage.add_rule(rule);

    element_state st;
    auto ctx = make_ctx(basic_header(6), 1, 2);
    stage.process(ctx, st);
    EXPECT_FALSE(ctx.headers_dirty);
    EXPECT_FALSE(ctx.mmtp->sequencing.has_value());
}

TEST(mode_transition, require_bits_gate)
{
    mode_transition_stage stage;
    mode_rule rule;
    rule.match_any_experiment = true;
    rule.require_bits = wire::feature_bit(wire::feature::sequencing);
    rule.set_bits = wire::feature_bit(wire::feature::timeliness);
    rule.deadline_us = 5;
    stage.add_rule(rule);

    element_state st;
    auto ctx = make_ctx(basic_header(6), 1, 2); // no sequencing
    stage.process(ctx, st);
    EXPECT_FALSE(ctx.mmtp->timeliness.has_value());

    auto h = basic_header(6);
    h.m.set(wire::feature::sequencing);
    h.sequencing = wire::sequencing_field{0, 0};
    auto ctx2 = make_ctx(h, 1, 2);
    stage.process(ctx2, st);
    EXPECT_TRUE(ctx2.mmtp->timeliness.has_value());
}

TEST(mode_transition, control_messages_untouched)
{
    mode_transition_stage stage;
    mode_rule rule;
    rule.match_any_experiment = true;
    rule.set_bits = wire::feature_bit(wire::feature::sequencing);
    stage.add_rule(rule);
    element_state st;

    wire::header ch;
    ch.m.set(wire::feature::control);
    ch.control = wire::control_type::nak;
    auto ctx = make_ctx(ch, 1, 2);
    stage.process(ctx, st);
    EXPECT_FALSE(ctx.mmtp->sequencing.has_value());
}

// ------------------------------------------------------------ age update

TEST(age_update, computes_age_from_timestamp)
{
    age_update_stage stage;
    element_state st;
    auto ctx = make_ctx(timed_header(0, 10000), 1, 2, sim_time{(3_ms).ns});
    stage.process(ctx, st);
    EXPECT_EQ(ctx.mmtp->timeliness->age_us, 3000u);
    EXPECT_FALSE(ctx.mmtp->timeliness->aged());
    EXPECT_TRUE(ctx.emissions.empty());
}

TEST(age_update, sets_aged_flag_and_notifies_once)
{
    age_update_stage stage;
    element_state st;
    st.element_addr = 0x0a000050;
    auto ctx = make_ctx(timed_header(0, 1000, 0x0a000060), 1, 2, sim_time{(5_ms).ns});
    stage.process(ctx, st);
    EXPECT_TRUE(ctx.mmtp->timeliness->aged());
    EXPECT_TRUE(ctx.mmtp->timeliness->notified());
    ASSERT_EQ(ctx.emissions.size(), 1u);
    EXPECT_EQ(ctx.emissions[0].dst, 0x0a000060u);
    EXPECT_EQ(st.counter("aged_packets"), 1u);
    EXPECT_EQ(st.counter("deadline_notifications"), 1u);

    // a downstream element sees the notified flag: no duplicate alarm
    age_update_stage stage2;
    packet_context rebuilt;
    wire::build_mmtp_over_ipv4(rebuilt.pkt.headers, 0x02, 1, 2, *ctx.mmtp, 0);
    rebuilt.now = sim_time{(6_ms).ns};
    ASSERT_TRUE(parse_context(rebuilt));
    stage2.process(rebuilt, st);
    EXPECT_TRUE(rebuilt.emissions.empty());
}

TEST(age_update, zero_deadline_means_no_budget_check)
{
    age_update_stage stage;
    element_state st;
    auto ctx = make_ctx(timed_header(0, 0), 1, 2, sim_time{(100_ms).ns});
    stage.process(ctx, st);
    EXPECT_FALSE(ctx.mmtp->timeliness->aged());
    EXPECT_TRUE(ctx.emissions.empty());
}

// ---------------------------------------------------------- duplication

TEST(duplication, clones_to_subscribers)
{
    duplication_stage stage;
    stage.add_subscriber(6, 0x0a000070);
    stage.add_subscriber(6, 0x0a000071);
    stage.add_subscriber(6, 0x0a000071); // duplicate add ignored
    EXPECT_EQ(stage.subscriber_count(6), 2u);

    element_state st;
    auto h = basic_header(6);
    h.m.set(wire::feature::duplication);
    auto ctx = make_ctx(h, 1, 0x0a000070); // primary dst is also a subscriber
    stage.process(ctx, st);
    ASSERT_EQ(ctx.clones.size(), 1u); // primary not duplicated to itself
    EXPECT_EQ(ctx.clones[0], 0x0a000071u);
}

TEST(duplication, no_duplication_bit_no_clones)
{
    duplication_stage stage;
    stage.add_subscriber(6, 0x0a000070);
    element_state st;
    auto ctx = make_ctx(basic_header(6), 1, 2);
    stage.process(ctx, st);
    EXPECT_TRUE(ctx.clones.empty());
}

TEST(duplication, consumes_subscribe_control)
{
    duplication_stage stage;
    element_state st;
    st.element_addr = 0x0a000099;

    wire::subscribe_body body;
    body.experiment = wire::make_experiment_id(6, 0);
    body.subscriber = 0x0a000072;
    byte_writer w;
    serialize(body, w);

    wire::header ch;
    ch.m.set(wire::feature::control);
    ch.control = wire::control_type::subscribe;
    auto ctx = make_ctx(ch, 1, 0x0a000099);
    auto bytes = w.take();
    ctx.pkt.payload = bytes;
    stage.process(ctx, st);
    EXPECT_TRUE(ctx.drop); // consumed
    EXPECT_EQ(stage.subscriber_count(6), 1u);

    // subscribe addressed to a different element is forwarded, not eaten
    auto ctx2 = make_ctx(ch, 1, 0x0a000098);
    ctx2.pkt.payload = bytes;
    stage.process(ctx2, st);
    EXPECT_FALSE(ctx2.drop);
    EXPECT_EQ(stage.subscriber_count(6), 1u);
}

// ------------------------------------------------------ band classifier

TEST(classifier, bands)
{
    // control -> 0
    wire::header ch;
    ch.m.set(wire::feature::control);
    ch.control = wire::control_type::nak;
    EXPECT_EQ(timeliness_band_of(make_mmtp_packet(ch, 1, 2)), 0u);
    // timeliness data -> 0
    EXPECT_EQ(timeliness_band_of(make_mmtp_packet(timed_header(0, 100), 1, 2)), 0u);
    // plain DAQ data -> 1
    EXPECT_EQ(timeliness_band_of(make_mmtp_packet(basic_header(), 1, 2)), 1u);
    // non-MMTP -> 2
    packet p;
    byte_writer w;
    wire::eth_header eth;
    eth.ethertype = wire::ethertype_ipv4;
    serialize(eth, w);
    wire::ipv4_header ip;
    ip.protocol = wire::ipproto_tcp;
    serialize(ip, w);
    p.headers = w.take();
    EXPECT_EQ(timeliness_band_of(p), 2u);
}

// -------------------------------------------- switch end-to-end behaviour

namespace {

struct switched_net {
    network net{3};
    host* a;
    host* b;
    programmable_switch* sw;

    switched_net()
    {
        a = &net.add_host("a");
        sw = &net.emplace<programmable_switch>("sw");
        b = &net.add_host("b");
        sw->set_id_source(&net.ids());
        net.connect(*a, *sw, link_config{});
        net.connect(*sw, *b, link_config{});
        net.compute_routes();
    }
};

} // namespace

TEST(programmable_switch, forwards_and_counts)
{
    switched_net t;
    int got = 0;
    t.b->set_protocol_handler(wire::ipproto_mmtp,
                              [&](packet&&, const wire::ipv4_header&, std::size_t) {
                                  got++;
                              });
    auto p = make_mmtp_packet(basic_header(), t.a->address(), t.b->address());
    t.a->send_ipv4(std::move(p), t.b->address());
    t.net.sim().run();
    EXPECT_EQ(got, 1);
    EXPECT_EQ(t.sw->stats().forwarded, 1u);
}

TEST(programmable_switch, pipeline_latency_applied)
{
    switched_net t;
    sim_time arrival{};
    t.b->set_protocol_handler(wire::ipproto_mmtp,
                              [&](packet&&, const wire::ipv4_header&, std::size_t) {
                                  arrival = t.net.sim().now();
                              });
    auto p = make_mmtp_packet(basic_header(), t.a->address(), t.b->address(), 0);
    const auto wire_bytes = p.wire_size();
    t.a->send_ipv4(std::move(p), t.b->address());
    t.net.sim().run();
    // two links at defaults (10G, 1 us prop) + 400 ns pipeline
    const auto tx = link_config{}.rate.transmission_time(wire_bytes);
    EXPECT_EQ(arrival.ns, 2 * (tx.ns + 1000) + 400);
}

TEST(programmable_switch, drops_corrupted_frames)
{
    switched_net t;
    auto p = make_mmtp_packet(basic_header(), t.a->address(), t.b->address());
    p.corrupted = true;
    t.sw->receive(std::move(p), 0);
    t.net.sim().run();
    EXPECT_EQ(t.sw->stats().dropped_corrupted, 1u);
}

TEST(programmable_switch, unroutable_counted)
{
    switched_net t;
    auto p = make_mmtp_packet(basic_header(), t.a->address(), 0xdeadbeef);
    t.sw->receive(std::move(p), 0);
    t.net.sim().run();
    EXPECT_EQ(t.sw->stats().dropped_unroutable, 1u);
}

TEST(programmable_switch, duplication_stage_clones_in_network)
{
    network net(4);
    auto& a = net.add_host("a");
    auto& sw = net.emplace<programmable_switch>("sw");
    auto& b = net.add_host("b");
    auto& c = net.add_host("c");
    sw.set_id_source(&net.ids());
    net.connect(a, sw, link_config{});
    net.connect(sw, b, link_config{});
    net.connect(sw, c, link_config{});
    net.compute_routes();

    auto dup = std::make_shared<duplication_stage>();
    dup->add_subscriber(6, c.address());
    sw.add_stage(dup);

    int got_b = 0, got_c = 0;
    std::uint64_t id_b = 0, id_c = 0;
    b.set_protocol_handler(wire::ipproto_mmtp,
                           [&](packet&& p, const wire::ipv4_header&, std::size_t) {
                               got_b++;
                               id_b = p.id;
                           });
    c.set_protocol_handler(wire::ipproto_mmtp,
                           [&](packet&& p, const wire::ipv4_header& ip, std::size_t) {
                               got_c++;
                               id_c = p.id;
                               EXPECT_EQ(ip.dst, c.address());
                           });

    auto h = basic_header(6);
    h.m.set(wire::feature::duplication);
    auto p = make_mmtp_packet(h, a.address(), b.address());
    p.id = net.ids().next();
    a.send_ipv4(std::move(p), b.address());
    net.sim().run();
    EXPECT_EQ(got_b, 1);
    EXPECT_EQ(got_c, 1);
    EXPECT_NE(id_b, id_c); // clone got a fresh id
    EXPECT_EQ(sw.stats().clones, 1u);
}

TEST(programmable_switch, l2_uplink_forwarding)
{
    network net(5);
    auto& sensor = net.add_host("sensor");
    auto& sw = net.emplace<programmable_switch>("sw");
    auto& dtn = net.add_host("dtn");
    sw.set_id_source(&net.ids());
    const auto [s2sw, _x] = net.connect(sensor, sw, link_config{});
    const auto [sw2dtn, _y] = net.connect(sw, dtn, link_config{});
    (void)_x;
    (void)_y;
    sw.set_l2_uplink(sw2dtn);
    net.compute_routes();

    int got = 0;
    dtn.set_ethertype_handler(wire::ethertype_mmtp, [&](packet&&, std::size_t) { got++; });

    packet p;
    wire::build_mmtp_over_l2(p.headers, sensor.mac(), 0, basic_header());
    p.id = net.ids().next();
    sensor.send_l2(std::move(p), s2sw);
    net.sim().run();
    EXPECT_EQ(got, 1);
}

TEST(backpressure, signal_emitted_above_threshold_and_rate_limited)
{
    network net(6);
    auto& a = net.add_host("a");
    auto& sw = net.emplace<programmable_switch>("sw");
    auto& b = net.add_host("b");
    sw.set_id_source(&net.ids());
    net.connect(a, sw, link_config{});
    // slow egress so the queue builds
    link_config slow;
    slow.rate = data_rate::from_mbps(100);
    slow.queue_capacity_bytes = 10ull * 1024 * 1024;
    net.connect(sw, b, slow);
    net.compute_routes();

    backpressure_config cfg;
    cfg.low_watermark_bytes = 8000;
    cfg.high_watermark_bytes = 10000;
    cfg.min_interval = 10_ms; // strict rate limiting for the test
    sw.add_stage(std::make_shared<backpressure_stage>(sw, cfg));

    int signals = 0;
    a.set_protocol_handler(
        wire::ipproto_mmtp, [&](packet&& p, const wire::ipv4_header&, std::size_t off) {
            const auto h =
                wire::parse(std::span<const std::uint8_t>(p.headers).subspan(off));
            ASSERT_TRUE(h.has_value());
            if (h->control == wire::control_type::backpressure) signals++;
        });

    auto h = basic_header(6);
    h.m.set(wire::feature::backpressure);
    for (int i = 0; i < 100; ++i) {
        auto p = make_mmtp_packet(h, a.address(), b.address(), 5000);
        p.id = net.ids().next();
        a.send_ipv4(std::move(p), b.address());
    }
    net.sim().run();
    EXPECT_GE(signals, 1);
    EXPECT_LE(signals, 3); // rate limited, not one per packet
}

TEST(backpressure, no_signal_without_feature_bit)
{
    network net(7);
    auto& a = net.add_host("a");
    auto& sw = net.emplace<programmable_switch>("sw");
    auto& b = net.add_host("b");
    sw.set_id_source(&net.ids());
    net.connect(a, sw, link_config{});
    link_config slow;
    slow.rate = data_rate::from_mbps(100);
    slow.queue_capacity_bytes = 10ull * 1024 * 1024;
    net.connect(sw, b, slow);
    net.compute_routes();

    backpressure_config cfg;
    cfg.low_watermark_bytes = 500;
    cfg.high_watermark_bytes = 1000;
    sw.add_stage(std::make_shared<backpressure_stage>(sw, cfg));

    int signals = 0;
    a.set_protocol_handler(wire::ipproto_mmtp,
                           [&](packet&&, const wire::ipv4_header&, std::size_t) {
                               signals++;
                           });
    for (int i = 0; i < 50; ++i) {
        auto p = make_mmtp_packet(basic_header(6), a.address(), b.address(), 5000);
        p.id = net.ids().next();
        a.send_ipv4(std::move(p), b.address());
    }
    net.sim().run();
    EXPECT_EQ(signals, 0);
}
