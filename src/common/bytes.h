/**
 * @file
 * Byte-slab serialization primitives: a growable little-endian writer
 * and a bounds-checked reader, plus the repo's two FNV-1a hashes
 * (fnv1a over a byte range, hashMix folding one 64-bit word).
 *
 * These back every wire format in the repo — the shard protocol frames
 * (src/shard/protocol.h) and the relocatable DittoState slab codec
 * (src/shard/slab_codec.h). Two design rules keep decoding safe on
 * untrusted bytes:
 *
 *  - ByteReader never aborts. Every read returns false on underflow
 *    and latches a failure flag; callers check ok() once at the end of
 *    a section instead of after every field. A failed reader never
 *    yields uninitialized values (outputs are left untouched on
 *    failure).
 *  - All integers are fixed-width little-endian; floats/doubles cross
 *    as their IEEE-754 bit patterns (memcpy, not casts) so a slab
 *    round-trips bitwise on any host this repo targets.
 */
#ifndef DITTO_COMMON_BYTES_H
#define DITTO_COMMON_BYTES_H

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ditto {

/** Growable little-endian byte sink. */
class ByteWriter
{
  public:
    void
    u8(uint8_t v)
    {
        buf_.push_back(v);
    }

    void u16(uint16_t v) { putLe(v); }
    void u32(uint32_t v) { putLe(v); }
    void u64(uint64_t v) { putLe(v); }
    void i32(int32_t v) { putLe(static_cast<uint32_t>(v)); }
    void i64(int64_t v) { putLe(static_cast<uint64_t>(v)); }

    void
    f32(float v)
    {
        uint32_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        putLe(bits);
    }

    void
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        putLe(bits);
    }

    /** Raw bytes, no length prefix. */
    void
    bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const uint8_t *>(p);
        buf_.insert(buf_.end(), b, b + n);
    }

    /** u32 length followed by the bytes. */
    void
    str(std::string_view s)
    {
        u32(static_cast<uint32_t>(s.size()));
        bytes(s.data(), s.size());
    }

    /** A typed span as its raw little-endian element bytes. */
    template <typename T>
    void
    span(std::span<const T> s)
    {
        static_assert(sizeof(T) == 1 || sizeof(T) == 2 || sizeof(T) == 4 ||
                          sizeof(T) == 8,
                      "span element must be a fixed-width scalar");
        // Little-endian hosts only (the repo's supported targets); the
        // codec version field guards against anything else slipping by.
        bytes(s.data(), s.size() * sizeof(T));
    }

    size_t size() const { return buf_.size(); }
    const std::vector<uint8_t> &data() const { return buf_; }
    std::vector<uint8_t> take() { return std::move(buf_); }

    /** Overwrite previously written bytes (e.g. a patched-in length). */
    void
    patchU64(size_t offset, uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_[offset + static_cast<size_t>(i)] =
                static_cast<uint8_t>(v >> (8 * i));
    }

  private:
    template <typename T>
    void
    putLe(T v)
    {
        for (size_t i = 0; i < sizeof(T); ++i)
            buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    std::vector<uint8_t> buf_;
};

/**
 * Bounds-checked little-endian reader over a borrowed buffer. All
 * reads return false (and latch fail()) on underflow; outputs are
 * untouched on failure.
 */
class ByteReader
{
  public:
    ByteReader(const void *p, size_t n)
        : p_(static_cast<const uint8_t *>(p)), n_(n)
    {}

    explicit ByteReader(std::span<const uint8_t> s)
        : ByteReader(s.data(), s.size())
    {}

    bool ok() const { return !failed_; }
    size_t remaining() const { return n_ - pos_; }
    size_t pos() const { return pos_; }

    bool
    u8(uint8_t *v)
    {
        if (!need(1))
            return false;
        *v = p_[pos_++];
        return true;
    }

    bool u16(uint16_t *v) { return getLe(v); }
    bool u32(uint32_t *v) { return getLe(v); }
    bool u64(uint64_t *v) { return getLe(v); }

    bool
    i32(int32_t *v)
    {
        uint32_t u;
        if (!getLe(&u))
            return false;
        *v = static_cast<int32_t>(u);
        return true;
    }

    bool
    i64(int64_t *v)
    {
        uint64_t u;
        if (!getLe(&u))
            return false;
        *v = static_cast<int64_t>(u);
        return true;
    }

    bool
    f32(float *v)
    {
        uint32_t bits;
        if (!getLe(&bits))
            return false;
        std::memcpy(v, &bits, sizeof bits);
        return true;
    }

    bool
    f64(double *v)
    {
        uint64_t bits;
        if (!getLe(&bits))
            return false;
        std::memcpy(v, &bits, sizeof bits);
        return true;
    }

    bool
    bytes(void *out, size_t n)
    {
        if (!need(n))
            return false;
        // memcpy's pointers must be valid even for n == 0, and an empty
        // destination (e.g. an empty tensor's data()) may be null.
        if (n > 0)
            std::memcpy(out, p_ + pos_, n);
        pos_ += n;
        return true;
    }

    /** u32 length + bytes, with a sanity cap against hostile lengths. */
    bool
    str(std::string *out, uint32_t maxLen = 1u << 20)
    {
        uint32_t len;
        if (!u32(&len) || len > maxLen || !need(len))
            return fail();
        out->assign(reinterpret_cast<const char *>(p_ + pos_), len);
        pos_ += len;
        return true;
    }

    /** Fill a typed span from raw little-endian element bytes. */
    template <typename T>
    bool
    span(std::span<T> out)
    {
        return bytes(out.data(), out.size() * sizeof(T));
    }

  private:
    bool
    fail()
    {
        failed_ = true;
        return false;
    }

    bool
    need(size_t n)
    {
        if (failed_ || n_ - pos_ < n)
            return fail();
        return true;
    }

    template <typename T>
    bool
    getLe(T *v)
    {
        if (!need(sizeof(T)))
            return false;
        T r = 0;
        for (size_t i = 0; i < sizeof(T); ++i)
            r = static_cast<T>(r | (static_cast<T>(p_[pos_ + i]) << (8 * i)));
        pos_ += sizeof(T);
        *v = r;
        return true;
    }

    const uint8_t *p_;
    size_t n_;
    size_t pos_ = 0;
    bool failed_ = false;
};

/** FNV-1a over a byte range — the slab codec's integrity checksum. */
inline uint64_t
fnv1a(const uint8_t *p, size_t n, uint64_t seed = 0xcbf29ce484222325ull)
{
    uint64_t h = seed;
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Fold the eight little-endian bytes of `value` into an FNV-1a
 * accumulator: the combiner behind spec content hashes, calibration
 * digests and reuse-cache prefix keys. The explicit shifts keep every
 * value identical on any host.
 */
inline uint64_t
hashMix(uint64_t h, uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (value >> (i * 8)) & 0xFF;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace ditto

#endif // DITTO_COMMON_BYTES_H
