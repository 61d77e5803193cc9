/**
 * @file
 * Slab codec implementation (format in slab_codec.h).
 */
#include "shard/slab_codec.h"

#include <algorithm>

#include "common/bytes.h"
#include "shard/protocol.h"

namespace ditto {
namespace shard {

namespace {

constexpr uint32_t kSlabMagic = 0x424C5344u; // "DSLB"

constexpr uint16_t kFlagDitto = 1u << 0;
constexpr uint16_t kFlagApprox = 1u << 1;
constexpr uint16_t kFlagHasState = 1u << 2;

enum Dtype : uint8_t
{
    kF32 = 1,
    kI8 = 2,
    kI32 = 3,
};

/** Hard bound a hostile slab cannot talk its way past. */
constexpr uint32_t kMaxSlots = 1u << 20;

/** A slab tensor: u8 dtype, then the shared tensor section. */
template <typename T>
void
putTyped(ByteWriter &w, const Tensor<T> &t, Dtype dtype)
{
    w.u8(dtype);
    putTensor(w, t);
}

template <typename T>
bool
getTyped(ByteReader &r, Tensor<T> *out, Dtype want, std::string *why)
{
    uint8_t dtype = 0;
    if (!r.u8(&dtype)) {
        *why = "truncated tensor header";
        return false;
    }
    if (dtype != want) {
        *why = "tensor dtype mismatch";
        return false;
    }
    // Rank 0 is a legitimately empty tensor: a never-started (cold)
    // migrated request carries no partial image yet.
    return getTensor(r, out, why);
}

template <typename T, typename Put>
bool
getVec(ByteReader &r, std::vector<T> *out, Put get, std::string *why)
{
    uint32_t n = 0;
    if (!r.u32(&n) || n > kMaxSlots) {
        *why = "slot count out of range";
        return false;
    }
    // Each slot is built as it decodes, so a declared count the bytes
    // cannot back allocates nothing: every slot takes at least 2 bytes
    // (a tensor's dtype and rank, or a 4- or 8-byte counter).
    std::vector<T> v;
    v.reserve(std::min<size_t>(n, r.remaining() / 2));
    for (uint32_t i = 0; i < n; ++i) {
        T slot{};
        if (!get(r, &slot, why))
            return false;
        v.push_back(std::move(slot));
    }
    *out = std::move(v);
    return true;
}

} // namespace

std::vector<uint8_t>
encodeParked(const BatchEngine::Parked &p)
{
    ByteWriter w;
    w.u32(kSlabMagic);
    w.u16(kSlabCodecVersion);
    uint16_t flags = 0;
    if (p.ditto)
        flags |= kFlagDitto;
    if (p.approx)
        flags |= kFlagApprox;
    if (p.hasState)
        flags |= kFlagHasState;
    w.u16(flags);
    w.u64(p.id);
    w.i32(p.stepsDone);
    w.i32(p.stepsTotal);
    w.i64(p.ops.zeroSkipped);
    w.i64(p.ops.low4);
    w.i64(p.ops.full8);
    w.i64(p.ops.diffCalcElems);
    w.i64(p.ops.summationElems);
    w.i64(p.ops.reusedElems);
    putTyped(w, p.image, kF32);
    if (p.hasState) {
        // backRef is process-local and intentionally severed here: a
        // relocated slab must own its bytes, not pin a cache entry in
        // the process it left behind.
        const auto &s = p.state;
        w.u8(s.primed);
        w.u8(s.approx);
        w.u32(static_cast<uint32_t>(s.prevIn.size()));
        for (const auto &t : s.prevIn)
            putTyped(w, t, kI8);
        w.u32(static_cast<uint32_t>(s.prevOut.size()));
        for (const auto &t : s.prevOut)
            putTyped(w, t, kI32);
        w.u32(static_cast<uint32_t>(s.consec.size()));
        w.span(std::span<const int32_t>(s.consec));
        w.u32(static_cast<uint32_t>(s.skips.size()));
        w.span(std::span<const int64_t>(s.skips));
    }
    w.u64(fnv1a(w.data().data(), w.size()));
    return w.take();
}

bool
decodeParked(std::span<const uint8_t> bytes, BatchEngine::Parked *out,
             std::string *why)
{
    std::string reason;
    if (!why)
        why = &reason;
    if (bytes.size() < 16 + 8) {
        *why = "truncated slab (shorter than header + checksum)";
        return false;
    }
    // Integrity first: everything before the trailing u64 must hash to
    // it, so a flipped bit anywhere is caught before any field parses.
    const size_t body = bytes.size() - 8;
    ByteReader tail(bytes.data() + body, 8);
    uint64_t want = 0;
    tail.u64(&want);
    if (fnv1a(bytes.data(), body) != want) {
        *why = "slab checksum mismatch";
        return false;
    }

    ByteReader r(bytes.data(), body);
    uint32_t magic = 0;
    uint16_t version = 0;
    uint16_t flags = 0;
    if (!r.u32(&magic) || magic != kSlabMagic) {
        *why = "bad slab magic";
        return false;
    }
    if (!r.u16(&version) || version != kSlabCodecVersion) {
        *why = "slab codec version skew: got " + std::to_string(version) +
               ", want " + std::to_string(kSlabCodecVersion);
        return false;
    }
    r.u16(&flags);

    BatchEngine::Parked p;
    p.ditto = (flags & kFlagDitto) != 0;
    p.approx = (flags & kFlagApprox) != 0;
    p.hasState = (flags & kFlagHasState) != 0;
    r.u64(&p.id);
    r.i32(&p.stepsDone);
    r.i32(&p.stepsTotal);
    r.i64(&p.ops.zeroSkipped);
    r.i64(&p.ops.low4);
    r.i64(&p.ops.full8);
    r.i64(&p.ops.diffCalcElems);
    r.i64(&p.ops.summationElems);
    r.i64(&p.ops.reusedElems);
    if (!r.ok()) {
        *why = "truncated slab header";
        return false;
    }
    if (p.stepsDone < 0 || p.stepsTotal <= 0 || p.stepsDone > p.stepsTotal) {
        *why = "slab step counters out of range";
        return false;
    }
    if (!getTyped(r, &p.image, kF32, why))
        return false;
    if (p.hasState) {
        auto &s = p.state;
        if (!r.u8(&s.primed) || !r.u8(&s.approx)) {
            *why = "truncated state flags";
            return false;
        }
        auto getI8 = [](ByteReader &rr, Int8Tensor *t, std::string *w) {
            return getTyped(rr, t, kI8, w);
        };
        auto getI32T = [](ByteReader &rr, Int32Tensor *t, std::string *w) {
            return getTyped(rr, t, kI32, w);
        };
        auto getI32 = [](ByteReader &rr, int32_t *v, std::string *w) {
            if (rr.i32(v))
                return true;
            *w = "truncated counter array";
            return false;
        };
        auto getI64 = [](ByteReader &rr, int64_t *v, std::string *w) {
            if (rr.i64(v))
                return true;
            *w = "truncated counter array";
            return false;
        };
        if (!getVec(r, &s.prevIn, getI8, why) ||
            !getVec(r, &s.prevOut, getI32T, why) ||
            !getVec(r, &s.consec, getI32, why) ||
            !getVec(r, &s.skips, getI64, why))
            return false;
        s.backRef = nullptr;
    }
    if (r.remaining() != 0) {
        *why = "trailing bytes after slab";
        return false;
    }
    *out = std::move(p);
    return true;
}

} // namespace shard
} // namespace ditto
