// C6 — Req 2 / §5.3: "processing overhead is minimized through simplicity
// of logic ... suitable for P4-programmable hardware".
//
// Microbenchmarks (google-benchmark) of every per-packet operation a
// network element performs: header parse, header serialize, the full
// parse→mode-transition→deparse pipeline, the age update, and the
// priority-band classification. ns/op here is a software proxy for the
// claim that the logic is simple enough for line-rate hardware — the
// operation counts (no loops, no floating point, fixed field offsets) are
// the P4-mappability argument.
#include "pnet/context.hpp"
#include "pnet/element.hpp"
#include "pnet/stages.hpp"
#include "wire/build.hpp"
#include "wire/header.hpp"

#include <benchmark/benchmark.h>

using namespace mmtp;

namespace {

wire::header mode1_header()
{
    wire::header h;
    h.experiment = wire::make_experiment_id(wire::experiments::iceberg, 3);
    h.m.set(wire::feature::sequencing)
        .set(wire::feature::retransmission)
        .set(wire::feature::timeliness)
        .set(wire::feature::timestamped);
    h.sequencing = wire::sequencing_field{123456, 0};
    h.retransmission = wire::retransmission_field{0x0a000002};
    wire::timeliness_field t;
    t.deadline_us = 10000;
    t.age_us = 1234;
    t.notify_addr = 0x0a000002;
    h.timeliness = t;
    h.timestamp_ns = 987654321;
    return h;
}

small_bytes mode1_packet_bytes()
{
    small_bytes out;
    wire::build_mmtp_over_ipv4(out, 0x02, 0x0a000001, 0x0a000003, mode1_header(), 5632);
    return out;
}

void bm_header_parse(benchmark::State& state)
{
    byte_writer w;
    serialize(mode1_header(), w);
    const auto bytes = w.take();
    for (auto _ : state) {
        auto h = wire::parse(bytes);
        benchmark::DoNotOptimize(h);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_header_parse);

void bm_header_parse_core_only(benchmark::State& state)
{
    byte_writer w;
    serialize(mode1_header(), w);
    const auto bytes = w.take();
    for (auto _ : state) {
        auto h = wire::parse_core(bytes);
        benchmark::DoNotOptimize(h);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_header_parse_core_only);

void bm_header_serialize(benchmark::State& state)
{
    const auto h = mode1_header();
    for (auto _ : state) {
        byte_writer w(wire::max_header_size);
        serialize(h, w);
        benchmark::DoNotOptimize(w.view().data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_header_serialize);

/// The whole element datapath for one packet: parse all headers, apply a
/// mode-transition rule, deparse.
void bm_element_mode_transition(benchmark::State& state)
{
    pnet::mode_transition_stage stage;
    pnet::mode_rule rule;
    rule.experiment = wire::experiments::iceberg;
    rule.set_bits = wire::feature_bit(wire::feature::sequencing)
        | wire::feature_bit(wire::feature::retransmission)
        | wire::feature_bit(wire::feature::timeliness);
    rule.buffer_addr = 0x0a000002;
    rule.deadline_us = 10000;
    stage.add_rule(rule);
    pnet::element_state st;
    st.element_addr = 0x0a000009;

    wire::header h; // mode 0 + timestamp (what a sensor emits)
    h.experiment = wire::make_experiment_id(wire::experiments::iceberg, 0);
    h.m.set(wire::feature::timestamped);
    h.timestamp_ns = 42;
    small_bytes bytes;
    wire::build_mmtp_over_ipv4(bytes, 0x02, 1, 2, h, 5632);

    for (auto _ : state) {
        pnet::packet_context ctx;
        ctx.pkt.headers = bytes;
        ctx.pkt.virtual_payload = 5632;
        pnet::parse_context(ctx);
        stage.process(ctx, st);
        pnet::deparse_context(ctx);
        benchmark::DoNotOptimize(ctx.pkt.headers.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_element_mode_transition);

void bm_element_age_update(benchmark::State& state)
{
    pnet::age_update_stage stage;
    pnet::element_state st;
    const auto bytes = mode1_packet_bytes();
    for (auto _ : state) {
        pnet::packet_context ctx;
        ctx.pkt.headers = bytes;
        ctx.now = sim_time{5'000'000};
        pnet::parse_context(ctx);
        stage.process(ctx, st);
        pnet::deparse_context(ctx);
        benchmark::DoNotOptimize(ctx.pkt.headers.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_element_age_update);

void bm_band_classifier(benchmark::State& state)
{
    netsim::packet p;
    p.headers = mode1_packet_bytes();
    for (auto _ : state) {
        benchmark::DoNotOptimize(pnet::timeliness_band_of(p));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_band_classifier);

/// Baseline for context: a TCP-style 5-tuple extract over the same bytes.
void bm_l3_parse_only(benchmark::State& state)
{
    const auto bytes = mode1_packet_bytes();
    for (auto _ : state) {
        byte_reader r(bytes);
        auto eth = wire::parse_eth(r);
        auto ip = wire::parse_ipv4(r);
        benchmark::DoNotOptimize(eth);
        benchmark::DoNotOptimize(ip);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_l3_parse_only);

} // namespace

BENCHMARK_MAIN();
