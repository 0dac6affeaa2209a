// bytes.hpp — big-endian (network order) byte codecs.
//
// Two kinds of codec live here:
//
//   * byte_writer / byte_reader grow a vector and read a span with one
//     bounds check per field. Variable-length bodies (control messages,
//     archive records) use them. Readers never throw: an out-of-bounds
//     read sets a sticky failure flag that callers check once at the end
//     of a parse.
//   * write_cursor / read_cursor store and load at a raw pointer with no
//     checks at all. Fixed-size headers use them: the serializer sizes
//     its destination once (byte_sink::extend) and the parser checks the
//     whole header's length once, so every field is a plain store/load.
#pragma once

#include <concepts>
#include <cstdint>
#include <cstddef>
#include <span>
#include <vector>

namespace mmtp {

namespace detail {

template <unsigned N>
constexpr std::uint64_t load_be(const std::uint8_t* p) noexcept
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < N; ++i) v = (v << 8) | p[i];
    return v;
}

template <unsigned N>
constexpr void store_be(std::uint8_t* p, std::uint64_t v) noexcept
{
    for (unsigned i = N; i-- > 0; v >>= 8) p[i] = static_cast<std::uint8_t>(v);
}

} // namespace detail

/// Unchecked big-endian stores; the caller sized the destination.
class write_cursor {
public:
    explicit write_cursor(std::uint8_t* at) noexcept : p_(at) {}

    void u8(std::uint8_t v) noexcept { put<1>(v); }
    void u16(std::uint16_t v) noexcept { put<2>(v); }
    void u24(std::uint32_t v) noexcept { put<3>(v); } // low 24 bits
    void u32(std::uint32_t v) noexcept { put<4>(v); }
    void u48(std::uint64_t v) noexcept { put<6>(v); } // low 48 bits
    void u64(std::uint64_t v) noexcept { put<8>(v); }

private:
    template <unsigned N>
    void put(std::uint64_t v) noexcept
    {
        detail::store_be<N>(p_, v);
        p_ += N;
    }

    std::uint8_t* p_;
};

/// Unchecked big-endian loads; the caller checked the source's length.
class read_cursor {
public:
    explicit read_cursor(const std::uint8_t* at) noexcept : p_(at) {}

    std::uint8_t u8() noexcept { return static_cast<std::uint8_t>(take<1>()); }
    std::uint16_t u16() noexcept { return static_cast<std::uint16_t>(take<2>()); }
    std::uint32_t u24() noexcept { return static_cast<std::uint32_t>(take<3>()); }
    std::uint32_t u32() noexcept { return static_cast<std::uint32_t>(take<4>()); }
    std::uint64_t u48() noexcept { return take<6>(); }
    std::uint64_t u64() noexcept { return take<8>(); }
    void skip(std::size_t n) noexcept { p_ += n; }
    /// Where the next load reads (for spans of variable-length fields).
    const std::uint8_t* at() const noexcept { return p_; }

private:
    template <unsigned N>
    std::uint64_t take() noexcept
    {
        const auto v = detail::load_be<N>(p_);
        p_ += N;
        return v;
    }

    const std::uint8_t* p_;
};

/// A growable buffer that fixed-size serializers append to in one step:
/// extend(n) appends n bytes for the caller to fill and returns where
/// they start. byte_writer and small_bytes are byte sinks.
template <typename T>
concept byte_sink = requires(T& t, std::size_t n) {
    { t.extend(n) } -> std::same_as<std::uint8_t*>;
};

/// Appends big-endian integers to a growable byte vector.
class byte_writer {
public:
    byte_writer() = default;
    explicit byte_writer(std::size_t reserve_bytes) { buf_.reserve(reserve_bytes); }

    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v) { write_cursor(extend(2)).u16(v); }
    void u24(std::uint32_t v) { write_cursor(extend(3)).u24(v); } // low 24 bits
    void u32(std::uint32_t v) { write_cursor(extend(4)).u32(v); }
    void u48(std::uint64_t v) { write_cursor(extend(6)).u48(v); } // low 48 bits
    void u64(std::uint64_t v) { write_cursor(extend(8)).u64(v); }
    void bytes(std::span<const std::uint8_t> src)
    {
        buf_.insert(buf_.end(), src.begin(), src.end());
    }
    /// Appends `n` zero bytes (padding).
    void zeros(std::size_t n) { buf_.insert(buf_.end(), n, 0); }

    /// Appends `n` zero bytes for the caller to overwrite and returns
    /// where they start (the byte_sink interface).
    std::uint8_t* extend(std::size_t n)
    {
        const auto at = buf_.size();
        buf_.resize(at + n);
        return buf_.data() + at;
    }

    std::size_t size() const { return buf_.size(); }
    std::span<const std::uint8_t> view() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

    /// Overwrites a previously written big-endian u16 at `offset`
    /// (used for length fields back-patched after the payload is known).
    void patch_u16(std::size_t offset, std::uint16_t v)
    {
        if (buf_.size() < 2 || offset > buf_.size() - 2) return;
        write_cursor(buf_.data() + offset).u16(v);
    }

private:
    std::vector<std::uint8_t> buf_;
};

/// Reads big-endian integers out of a fixed byte span.
/// Any out-of-bounds read sets failed() and returns 0.
class byte_reader {
public:
    explicit byte_reader(std::span<const std::uint8_t> data) : data_(data) {}

    std::uint8_t u8() { return static_cast<std::uint8_t>(take<1>()); }
    std::uint16_t u16() { return static_cast<std::uint16_t>(take<2>()); }
    std::uint32_t u24() { return static_cast<std::uint32_t>(take<3>()); }
    std::uint32_t u32() { return static_cast<std::uint32_t>(take<4>()); }
    std::uint64_t u48() { return take<6>(); }
    std::uint64_t u64() { return take<8>(); }

    /// Returns a view of the next `n` bytes and advances; empty view on failure.
    std::span<const std::uint8_t> bytes(std::size_t n)
    {
        if (!ensure(n)) return {};
        const auto view = data_.subspan(pos_, n);
        pos_ += n;
        return view;
    }

    void skip(std::size_t n)
    {
        if (ensure(n)) pos_ += n;
    }

    std::size_t remaining() const { return data_.size() - pos_; }
    std::size_t position() const { return pos_; }
    bool failed() const { return failed_; }

private:
    /// `n > size − pos` rather than `pos + n > size`: no overflow for any n.
    bool ensure(std::size_t n)
    {
        if (failed_ || n > data_.size() - pos_) {
            failed_ = true;
            return false;
        }
        return true;
    }

    template <unsigned N>
    std::uint64_t take()
    {
        if (!ensure(N)) return 0;
        const auto v = detail::load_be<N>(data_.data() + pos_);
        pos_ += N;
        return v;
    }

    std::span<const std::uint8_t> data_;
    std::size_t pos_{0};
    bool failed_{false};
};

} // namespace mmtp
