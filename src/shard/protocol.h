/**
 * @file
 * The shard-tier RPC protocol: message types and payload codecs.
 *
 * Workers (src/shard/worker.h) and the front-door router
 * (src/shard/router.h) speak length-prefixed binary frames over
 * Unix-domain sockets (framing in src/common/net.h). Each RPC is one
 * request frame answered by exactly one reply frame on the same
 * connection; connections are sequential (no pipelining), and any
 * malformed request is answered with an Error frame rather than a
 * dropped connection, so one bad client cannot wedge a worker.
 *
 * The full protocol grammar — frame layout, per-message payloads and
 * the slab wire format — is documented in docs/sharding.md.
 */
#ifndef DITTO_SHARD_PROTOCOL_H
#define DITTO_SHARD_PROTOCOL_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "serve/request.h"
#include "tensor/tensor.h"

namespace ditto {
namespace shard {

/** Frame types. Requests are low values; replies add 100. */
enum class Msg : uint32_t
{
    Ping = 1,       //!< liveness probe, empty payload
    Submit = 2,     //!< DenoiseRequest -> remote ticket
    Poll = 3,       //!< ticket -> (ready? + DenoiseResult)
    Cancel = 4,     //!< ticket -> ok flag
    QueryState = 5, //!< ticket -> RequestStatus
    MigrateOut = 6, //!< ticket -> portable request + slab blob
    MigrateIn = 7,  //!< portable request + slab blob -> remote ticket
    Metrics = 8,    //!< -> metrics JSON string
    Drain = 9,      //!< finish accepted work, then reply and stop
    Info = 10,      //!< -> model identity + slab geometry

    PingOk = 101,
    SubmitOk = 102,
    PollRe = 103,
    CancelRe = 104,
    StateRe = 105,
    MigrateOutRe = 106,
    MigrateInRe = 107,
    MetricsRe = 108,
    DrainRe = 109,
    InfoRe = 110,

    /** Reply to any malformed/unserviceable request; payload: str why. */
    Error = 0xEEEE,
};

/**
 * A worker's served-model identity and slab geometry, exchanged at
 * connect time and revalidated on every MigrateIn: a slab may only
 * move between workers whose (spec hash, calibration digest) match —
 * the same invalidation identity the reuse cache keys on.
 */
struct WorkerInfo
{
    uint64_t specHash = 0;
    uint64_t calibDigest = 0;
    int32_t defaultSteps = 0;
    int32_t stateInSlots = 0;
    int32_t stateOutSlots = 0;
};

/**
 * A migrated request on the wire: the source model's identity, the
 * portable effective request (deadline already re-expressed as a
 * remaining budget), and the encoded slab (src/shard/slab_codec.h).
 */
struct MigratedWire
{
    uint64_t specHash = 0;
    uint64_t calibDigest = 0;
    DenoiseRequest req;
    std::vector<uint8_t> slab;
};

/**
 * Tensor section, shared by the result image and the slab codec:
 * u8 rank, i64 dims[rank], then the raw little-endian elements. Rank 0
 * is an empty tensor with no elements.
 */
template <typename T>
void
putTensor(ByteWriter &w, const Tensor<T> &t)
{
    const Shape &s = t.shape();
    w.u8(static_cast<uint8_t>(s.rank()));
    for (int i = 0; i < s.rank(); ++i)
        w.i64(s[i]);
    w.span(std::span<const T>(t.data()));
}

/**
 * Read a tensor section's rank and dims from a peer. False with `*why`
 * set on a truncated header, a rank above Shape::kMaxRank, a dimension
 * below 1, more than 2^32 elements, or a payload of `elemBytes`-sized
 * elements longer than the bytes left in `r`. It checks all of that
 * before the caller allocates anything.
 */
bool getTensorShape(ByteReader &r, size_t elemBytes, Shape *shape,
                    std::string *why);

/** Decode a tensor section; `*out` is written only on success. */
template <typename T>
bool
getTensor(ByteReader &r, Tensor<T> *out, std::string *why)
{
    Shape shape;
    if (!getTensorShape(r, sizeof(T), &shape, why))
        return false;
    Tensor<T> t(shape);
    r.span(t.data()); // getTensorShape checked that the payload is there
    *out = std::move(t);
    return true;
}

// Payload section codecs. Encoders append to the writer; decoders
// return false on malformed/truncated input (reader failure latches).
void putRequest(ByteWriter &w, const DenoiseRequest &req);
bool getRequest(ByteReader &r, DenoiseRequest *out);

void putResult(ByteWriter &w, const DenoiseResult &res);
bool getResult(ByteReader &r, DenoiseResult *out);

void putInfo(ByteWriter &w, const WorkerInfo &info);
bool getInfo(ByteReader &r, WorkerInfo *out);

void putMigratedWire(ByteWriter &w, const MigratedWire &m);
bool getMigratedWire(ByteReader &r, MigratedWire *out);

} // namespace shard
} // namespace ditto

#endif // DITTO_SHARD_PROTOCOL_H
