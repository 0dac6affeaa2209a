// wib.hpp — WIB-style LArTPC readout frames.
//
// DUNE front-end electronics (Warm Interface Boards) emit fixed-size,
// time-stamped frames carrying one ADC sample for each wire channel of a
// detector slice. This codec reproduces the properties the transport
// cares about — fixed size, monotonic 64-bit timestamps, slice tagging,
// CRC-protected payload — without copying the (proprietary-ish) DUNE
// field layout bit-for-bit. See DESIGN.md "Substitutions".
//
// Frame layout (big-endian):
//   u8  version        u8  crate      u8  slot       u8  fiber
//   u32 reserved
//   u64 timestamp      (sampling ticks, 16 ns/tick at 62.5 MHz)
//   u16 adc[channels]  (12-bit samples, top 4 bits zero)
//   u32 crc32c         (over everything above)
#pragma once

#include "common/rng.hpp"

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace mmtp::daq {

constexpr std::size_t wib_channels = 256;
constexpr std::size_t wib_header_bytes = 16;
constexpr std::size_t wib_frame_bytes = wib_header_bytes + wib_channels * 2 + 4;
/// Sampling period: 16 ns (62.5 MHz), as in DUNE's readout clock.
constexpr std::uint64_t wib_tick_ns = 16;

struct wib_frame {
    std::uint8_t version{1};
    std::uint8_t crate{0};
    std::uint8_t slot{0};
    std::uint8_t fiber{0};
    std::uint64_t timestamp{0}; // readout-clock ticks
    std::array<std::uint16_t, wib_channels> adc{};

    /// Serializes including the trailing CRC32C.
    std::vector<std::uint8_t> serialize() const;

    /// Parses and CRC-checks; std::nullopt on size or CRC mismatch.
    static std::optional<wib_frame> parse(std::span<const std::uint8_t> data);

    bool operator==(const wib_frame&) const = default;
};

/// Synthesizes LArTPC-like waveforms: a noisy pedestal with occasional
/// exponentially-decaying ionization pulses. `activity` is the per-channel
/// per-frame probability of a new pulse — cranked up by orders of
/// magnitude during a supernova burst.
class lartpc_synth {
public:
    struct config {
        std::uint16_t pedestal{900};
        double noise_sigma{3.5};
        double activity{0.002};
        double pulse_amplitude_mean{600.0};
        double pulse_decay{0.35}; // per-sample decay factor toward 0
    };

    lartpc_synth(rng r, config cfg);
    explicit lartpc_synth(rng r);

    /// Fills `frame.adc` for the next sample instant and advances state.
    void fill(wib_frame& frame);

private:
    rng rng_;
    config cfg_;
    std::array<double, wib_channels> pulse_level_{};
};

} // namespace mmtp::daq
