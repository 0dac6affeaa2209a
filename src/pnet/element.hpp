// element.hpp — programmable network element (switch / FPGA NIC).
//
// A programmable_switch is a forwarding node that runs a pipeline of
// header-only stages over every packet. The pipeline abstraction is
// deliberately constrained to what Tofino-class P4 hardware supports:
// integer header-field arithmetic, register arrays, counters, packet
// cloning and synthesized small control packets — no payload access, no
// floating point, no unbounded loops.
#pragma once

#include "common/units.hpp"
#include "netsim/engine.hpp"
#include "netsim/node.hpp"
#include "pnet/context.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace mmtp::pnet {

/// Integer handles to an element's registers and counters, issued by
/// element_state when a name is first seen (P4 resolves register names
/// to indices at compile time; stages resolve theirs when installed).
/// A handle is only meaningful to the element_state that issued it.
struct register_handle {
    std::uint32_t index{0};
};
struct counter_handle {
    std::uint32_t index{0};
};

/// Per-element mutable state available to stages (P4 registers/counters).
/// The named forms are for setup, scenarios and reports; the per-packet
/// path uses handles, which cost no string building or hashing.
class element_state {
public:
    /// Handle for a register array, creating it empty on first use.
    register_handle register_id(const std::string& name);
    /// Handle for a counter, creating it at zero on first use.
    counter_handle counter_id(const std::string& name);

    /// Creates (or resizes) a named register array of u64 cells.
    void create_register(const std::string& name, std::size_t cells);
    /// Access a cell; the register must exist and the index be in range.
    std::uint64_t& reg(const std::string& name, std::size_t index = 0);
    std::uint64_t& reg(register_handle h, std::size_t index)
    {
        return registers_[h.index].at(index);
    }

    void bump(const std::string& counter, std::uint64_t by = 1) { bump(counter_id(counter), by); }
    void bump(counter_handle h, std::uint64_t by = 1) { counters_[h.index] += by; }
    std::uint64_t counter(const std::string& name) const;

    wire::ipv4_addr element_addr{0};
    /// Interned flight-recorder site id for this element — stages read it
    /// to label the hop records they emit (0 = unnamed).
    std::uint32_t trace_site{0};

private:
    std::unordered_map<std::string, std::uint32_t> register_ids_;
    std::vector<std::vector<std::uint64_t>> registers_;
    std::unordered_map<std::string, std::uint32_t> counter_ids_;
    std::vector<std::uint64_t> counters_;
};

/// A match-action stage. Stages run in order; each may rewrite headers,
/// drop, clone, or emit control packets via the context.
///
/// A stage instance belongs to one element: bind() resolves the register
/// and counter names the stage uses to handles of that element's state.
/// programmable_switch::add_stage binds; a stage driven directly (tests,
/// benches) binds on its first packet. Binding to a second element
/// throws std::logic_error instead of silently mis-binding.
class pipeline_stage {
public:
    virtual ~pipeline_stage() = default;

    void bind(element_state& state);

    virtual void process(packet_context& ctx, element_state& state) = 0;

    virtual std::string name() const = 0;

protected:
    /// Resolves the stage's names in `state`; called once, by bind().
    virtual void resolve(element_state& /*state*/) {}

    /// Per-packet entry check: binds on first use, a no-op after that.
    void ensure_bound(element_state& state)
    {
        if (&state != bound_) bind(state);
    }

private:
    element_state* bound_{nullptr};
};

/// Hardware profile: fixed pipeline latency and a tag for reports.
/// Values approximate the devices used in the paper's pilot (§5.4).
struct element_profile {
    std::string kind;
    sim_duration pipeline_latency{sim_duration{400}};
};

/// EdgeCore Tofino2-class switch: sub-microsecond pipeline.
element_profile tofino2_profile();
/// AMD Alveo (U280/U55C) smartNIC-class element: a little slower, but in
/// the pilot it is the element that fronts DTN buffers.
element_profile alveo_profile();

struct switch_stats {
    std::uint64_t forwarded{0};
    std::uint64_t dropped_corrupted{0};
    std::uint64_t dropped_malformed{0};
    std::uint64_t dropped_by_pipeline{0};
    std::uint64_t dropped_unroutable{0};
    std::uint64_t clones{0};
    std::uint64_t emissions{0};
};

class programmable_switch : public netsim::node {
public:
    programmable_switch(netsim::engine& eng, std::string name, wire::ipv4_addr addr,
                        wire::mac_addr mac, element_profile profile = tofino2_profile());

    void receive(netsim::packet&& p, unsigned ingress_port) override;

    /// Appends a stage; runs after all previously added stages.
    void add_stage(std::shared_ptr<pipeline_stage> stage);

    element_state& state() { return state_; }
    const element_state& state() const { return state_; }
    const switch_stats& stats() const { return stats_; }
    const element_profile& profile() const { return profile_; }

    /// Port used for MMTP-over-L2 frames (DAQ networks are trees toward
    /// the first DTN, so a single upstream port suffices).
    void set_l2_uplink(unsigned port) { l2_uplink_ = port; }

    /// Supplies fresh packet ids for clones/emissions.
    void set_id_source(netsim::packet_id_source* ids) { ids_ = ids; }

private:
    void forward(netsim::packet&& p, wire::ipv4_addr dst);

    element_profile profile_;
    element_state state_;
    std::vector<std::shared_ptr<pipeline_stage>> stages_;
    switch_stats stats_;
    unsigned l2_uplink_{netsim::no_port};
    netsim::packet_id_source* ids_{nullptr};
    /// Scratch context for receive, reused so that its clones and
    /// emissions vectors keep their capacity and packets never allocate.
    packet_context ctx_;
};

} // namespace mmtp::pnet
