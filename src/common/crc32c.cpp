#include "common/crc32c.hpp"

#include <array>

namespace mmtp {

namespace {

constexpr std::uint32_t kPoly = 0x82f63b78u; // reflected CRC-32C polynomial

/// Slicing-by-8 tables: t[0] is the bytewise table, and t[k][b] is the
/// CRC of byte b followed by k zero bytes, so eight table lookups fold
/// eight input bytes at once.
using crc_tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr crc_tables make_tables()
{
    crc_tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    return t;
}

constexpr crc_tables tables = make_tables();

/// The reflected CRC consumes bytes least significant first.
std::uint32_t load_le32(const std::uint8_t* p)
{
    return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8)
        | (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

} // namespace

std::uint32_t crc32c_init()
{
    return 0xffffffffu;
}

std::uint32_t crc32c_update(std::uint32_t state, std::span<const std::uint8_t> data)
{
    const auto& t = tables;
    const std::uint8_t* p = data.data();
    std::size_t n = data.size();
    for (; n >= 8; p += 8, n -= 8) {
        const std::uint32_t lo = state ^ load_le32(p);
        const std::uint32_t hi = load_le32(p + 4);
        state = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu]
            ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu]
            ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n) state = t[0][(state ^ *p) & 0xffu] ^ (state >> 8);
    return state;
}

std::uint32_t crc32c_finish(std::uint32_t state)
{
    return state ^ 0xffffffffu;
}

std::uint32_t crc32c(std::span<const std::uint8_t> data)
{
    return crc32c_finish(crc32c_update(crc32c_init(), data));
}

} // namespace mmtp
