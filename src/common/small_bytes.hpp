// small_bytes.hpp — byte buffer with inline small-buffer storage.
//
// Serialized protocol headers in this library are short: the largest
// stack the wire layer builds is Ethernet + IPv4 + an all-features MMTP
// header, 81 bytes, and the soak's data stacks are 76. Keeping them in a
// std::vector would cost one heap allocation per packet plus a pointer
// chase on every parse. small_bytes stores up to `inline_capacity` bytes
// inside the object, so a packet's header bytes travel with the packet
// through queues and event closures without touching the heap, and
// spills to the heap only for oversized buffers.
//
// Layout (104 bytes): the data pointer, 32-bit size and capacity, then
// the inline bytes. The pointer stays even while inline, so data() is a
// plain load with no inline/heap branch on every field write.
//
// The API is the subset of std::vector<uint8_t> the codebase uses plus
// extend() (the byte_sink interface the header serializers write
// through); it converts implicitly to std::span via the ranges
// constructor.
#pragma once

#include <cstdint>
#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

namespace mmtp {

class small_bytes {
public:
    /// Largest buffer stored without allocating. Covers every header
    /// stack the wire layer builds (checked where wire::max_header_size
    /// is known, in wire/build.hpp).
    static constexpr std::size_t inline_capacity = 88;

    small_bytes() noexcept : data_(sbo_), size_(0), cap_(inline_capacity) {}

    small_bytes(const small_bytes& o) : small_bytes() { assign(o.data_, o.size_); }

    small_bytes(small_bytes&& o) noexcept : small_bytes() { steal(o); }

    small_bytes(std::span<const std::uint8_t> src) : small_bytes()
    {
        assign(src.data(), src.size());
    }

    small_bytes(const std::vector<std::uint8_t>& v) : small_bytes()
    {
        assign(v.data(), v.size());
    }

    small_bytes(std::initializer_list<std::uint8_t> il) : small_bytes()
    {
        assign(il.begin(), il.size());
    }

    ~small_bytes()
    {
        if (data_ != sbo_) delete[] data_;
    }

    small_bytes& operator=(const small_bytes& o)
    {
        if (this != &o) assign(o.data_, o.size_);
        return *this;
    }

    small_bytes& operator=(small_bytes&& o) noexcept
    {
        if (this != &o) {
            if (data_ != sbo_) delete[] data_;
            data_ = sbo_;
            cap_ = inline_capacity;
            size_ = 0;
            steal(o);
        }
        return *this;
    }

    small_bytes& operator=(const std::vector<std::uint8_t>& v)
    {
        assign(v.data(), v.size());
        return *this;
    }

    small_bytes& operator=(std::vector<std::uint8_t>&& v)
    {
        assign(v.data(), v.size()); // bytes are copied; the vector is freed
        v.clear();
        return *this;
    }

    small_bytes& operator=(std::span<const std::uint8_t> s)
    {
        assign(s.data(), s.size());
        return *this;
    }

    std::uint8_t* data() noexcept { return data_; }
    const std::uint8_t* data() const noexcept { return data_; }
    std::size_t size() const noexcept { return size_; }
    std::size_t capacity() const noexcept { return cap_; }
    bool empty() const noexcept { return size_ == 0; }
    bool is_inline() const noexcept { return data_ == sbo_; }

    std::uint8_t* begin() noexcept { return data_; }
    std::uint8_t* end() noexcept { return data_ + size_; }
    const std::uint8_t* begin() const noexcept { return data_; }
    const std::uint8_t* end() const noexcept { return data_ + size_; }

    std::uint8_t& operator[](std::size_t i) noexcept { return data_[i]; }
    std::uint8_t operator[](std::size_t i) const noexcept { return data_[i]; }

    void clear() noexcept { size_ = 0; }

    void reserve(std::size_t n)
    {
        if (n > cap_) grow(n);
    }

    /// Grows zero-filled; shrinking keeps the buffer.
    void resize(std::size_t n)
    {
        if (n > cap_) grow(n);
        if (n > size_) std::memset(data_ + size_, 0, n - size_);
        size_ = static_cast<std::uint32_t>(n);
    }

    /// Appends `n` bytes for the caller to fill (their contents are
    /// unspecified) and returns where they start: the byte_sink
    /// interface the header serializers write through.
    std::uint8_t* extend(std::size_t n)
    {
        if (n > cap_ - size_) grow(std::size_t{size_} + n);
        std::uint8_t* at = data_ + size_;
        size_ += static_cast<std::uint32_t>(n);
        return at;
    }

    void push_back(std::uint8_t b) { *extend(1) = b; }

    /// Appends `n` bytes; `src` must not alias this buffer.
    void append(const std::uint8_t* src, std::size_t n)
    {
        if (n > 0) std::memcpy(extend(n), src, n);
    }

    void append(std::span<const std::uint8_t> src) { append(src.data(), src.size()); }

    /// std::vector-style range insert (the sources must not alias this
    /// buffer). Returns the iterator to the first inserted byte.
    template <typename It>
    std::uint8_t* insert(const std::uint8_t* pos, It first, It last)
    {
        const std::size_t at = static_cast<std::size_t>(pos - data_);
        const std::size_t n = static_cast<std::size_t>(std::distance(first, last));
        if (n > cap_ - size_) grow(std::size_t{size_} + n);
        std::memmove(data_ + at + n, data_ + at, size_ - at);
        std::uint8_t* out = data_ + at;
        for (std::uint8_t* d = out; first != last; ++first, ++d)
            *d = static_cast<std::uint8_t>(*first);
        size_ += static_cast<std::uint32_t>(n);
        return out;
    }

    std::span<const std::uint8_t> view() const noexcept { return {data_, size_}; }

    friend bool operator==(const small_bytes& a, const small_bytes& b) noexcept
    {
        return a.size_ == b.size_ && std::memcmp(a.data_, b.data_, a.size_) == 0;
    }

    friend bool operator==(const small_bytes& a, const std::vector<std::uint8_t>& b) noexcept
    {
        return a.size_ == b.size() && std::memcmp(a.data_, b.data(), a.size_) == 0;
    }

    friend bool operator==(const std::vector<std::uint8_t>& a, const small_bytes& b) noexcept
    {
        return b == a;
    }

private:
    /// Size and capacity are 32-bit, which keeps the object at 104 bytes.
    static constexpr std::size_t max_bytes = std::numeric_limits<std::uint32_t>::max();

    void assign(const std::uint8_t* src, std::size_t n)
    {
        if (n > cap_) grow_discard(n);
        if (n > 0) std::memcpy(data_, src, n);
        size_ = static_cast<std::uint32_t>(n);
    }

    void steal(small_bytes& o) noexcept
    {
        if (o.data_ != o.sbo_) {
            data_ = o.data_;
            cap_ = o.cap_;
            size_ = o.size_;
            o.data_ = o.sbo_;
            o.cap_ = inline_capacity;
            o.size_ = 0;
        } else {
            std::memcpy(sbo_, o.sbo_, o.size_);
            size_ = o.size_;
            o.size_ = 0;
        }
    }

    static std::size_t grown_capacity(std::size_t cap, std::size_t need)
    {
        if (need > max_bytes) throw std::length_error("small_bytes: buffer too large");
        cap = cap * 2 > max_bytes ? max_bytes : cap * 2;
        return cap < need ? need : cap;
    }

    void grow(std::size_t need)
    {
        const std::size_t cap = grown_capacity(cap_, need);
        auto* nd = new std::uint8_t[cap];
        std::memcpy(nd, data_, size_);
        if (data_ != sbo_) delete[] data_;
        data_ = nd;
        cap_ = static_cast<std::uint32_t>(cap);
    }

    void grow_discard(std::size_t need)
    {
        const std::size_t cap = grown_capacity(cap_, need);
        auto* nd = new std::uint8_t[cap];
        if (data_ != sbo_) delete[] data_;
        data_ = nd;
        cap_ = static_cast<std::uint32_t>(cap);
    }

    std::uint8_t* data_;
    std::uint32_t size_;
    std::uint32_t cap_;
    std::uint8_t sbo_[inline_capacity];
};

} // namespace mmtp
