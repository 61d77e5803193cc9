/**
 * @file
 * Shard protocol payload codecs (message grammar in protocol.h).
 */
#include "shard/protocol.h"

#include "tensor/tensor.h"

namespace ditto {
namespace shard {

namespace {

/** Largest accepted tensor payload (elements); rejects hostile dims. */
constexpr int64_t kMaxTensorElems = int64_t{1} << 32;

} // namespace

bool
getTensorShape(ByteReader &r, size_t elemBytes, Shape *shape,
               std::string *why)
{
    uint8_t rank = 0;
    if (!r.u8(&rank)) {
        *why = "truncated tensor header";
        return false;
    }
    if (rank > Shape::kMaxRank) {
        *why = "tensor rank out of range";
        return false;
    }
    int64_t dims[Shape::kMaxRank] = {};
    int64_t numel = 1;
    for (int i = 0; i < rank; ++i) {
        if (!r.i64(&dims[i])) {
            *why = "truncated tensor header";
            return false;
        }
        // Checked before the multiply, so the count never overflows.
        if (dims[i] <= 0 || dims[i] > kMaxTensorElems / numel) {
            *why = "tensor dimension or element count out of range";
            return false;
        }
        numel *= dims[i];
    }
    if (rank > 0 &&
        static_cast<uint64_t>(numel) * elemBytes > r.remaining()) {
        *why = "truncated tensor payload";
        return false;
    }
    switch (rank) {
      case 0:
        *shape = Shape{};
        break;
      case 1:
        *shape = Shape{dims[0]};
        break;
      case 2:
        *shape = Shape{dims[0], dims[1]};
        break;
      case 3:
        *shape = Shape{dims[0], dims[1], dims[2]};
        break;
      default:
        *shape = Shape{dims[0], dims[1], dims[2], dims[3]};
        break;
    }
    return true;
}

void
putRequest(ByteWriter &w, const DenoiseRequest &req)
{
    w.u64(req.seed);
    w.i32(req.steps);
    w.u8(static_cast<uint8_t>(req.mode));
    w.u64(req.conditioning);
    w.i64(req.maxWaitMicros);
    w.u8(static_cast<uint8_t>(req.slo));
    w.i64(req.deadlineMicros);
}

bool
getRequest(ByteReader &r, DenoiseRequest *out)
{
    DenoiseRequest req;
    uint8_t mode = 0;
    uint8_t slo = 0;
    r.u64(&req.seed);
    r.i32(&req.steps);
    r.u8(&mode);
    r.u64(&req.conditioning);
    r.i64(&req.maxWaitMicros);
    r.u8(&slo);
    r.i64(&req.deadlineMicros);
    if (!r.ok() || slo >= kNumSloClasses)
        return false;
    req.mode = static_cast<RunMode>(mode);
    if (req.mode != RunMode::QuantDitto &&
        req.mode != RunMode::QuantDirect &&
        req.mode != RunMode::ApproxDitto)
        return false;
    if (req.steps < 0 || req.maxWaitMicros < -1 || req.deadlineMicros < -1)
        return false;
    req.slo = static_cast<SloClass>(slo);
    *out = req;
    return true;
}

void
putResult(ByteWriter &w, const DenoiseResult &res)
{
    w.u64(res.id);
    w.u8(static_cast<uint8_t>(res.status));
    w.u8(static_cast<uint8_t>(res.slo));
    w.i32(res.steps);
    w.i32(res.preemptions);
    w.i32(res.reusedSteps);
    w.u8(res.degraded ? 1 : 0);
    w.f64(res.queueMicros);
    w.f64(res.serviceMicros);
    w.i64(res.dittoOps.zeroSkipped);
    w.i64(res.dittoOps.low4);
    w.i64(res.dittoOps.full8);
    w.i64(res.dittoOps.diffCalcElems);
    w.i64(res.dittoOps.summationElems);
    w.i64(res.dittoOps.reusedElems);
    putTensor(w, res.image);
}

bool
getResult(ByteReader &r, DenoiseResult *out)
{
    DenoiseResult res;
    uint8_t status = 0;
    uint8_t slo = 0;
    uint8_t degraded = 0;
    r.u64(&res.id);
    r.u8(&status);
    r.u8(&slo);
    r.i32(&res.steps);
    r.i32(&res.preemptions);
    r.i32(&res.reusedSteps);
    r.u8(&degraded);
    r.f64(&res.queueMicros);
    r.f64(&res.serviceMicros);
    r.i64(&res.dittoOps.zeroSkipped);
    r.i64(&res.dittoOps.low4);
    r.i64(&res.dittoOps.full8);
    r.i64(&res.dittoOps.diffCalcElems);
    r.i64(&res.dittoOps.summationElems);
    r.i64(&res.dittoOps.reusedElems);
    if (!r.ok() || status > static_cast<uint8_t>(RequestStatus::Migrated) ||
        slo >= kNumSloClasses)
        return false;
    res.status = static_cast<RequestStatus>(status);
    res.slo = static_cast<SloClass>(slo);
    res.degraded = degraded != 0;
    std::string why;
    if (!getTensor(r, &res.image, &why))
        return false;
    *out = std::move(res);
    return true;
}

void
putInfo(ByteWriter &w, const WorkerInfo &info)
{
    w.u64(info.specHash);
    w.u64(info.calibDigest);
    w.i32(info.defaultSteps);
    w.i32(info.stateInSlots);
    w.i32(info.stateOutSlots);
}

bool
getInfo(ByteReader &r, WorkerInfo *out)
{
    WorkerInfo info;
    r.u64(&info.specHash);
    r.u64(&info.calibDigest);
    r.i32(&info.defaultSteps);
    r.i32(&info.stateInSlots);
    r.i32(&info.stateOutSlots);
    if (!r.ok())
        return false;
    *out = info;
    return true;
}

void
putMigratedWire(ByteWriter &w, const MigratedWire &m)
{
    w.u64(m.specHash);
    w.u64(m.calibDigest);
    putRequest(w, m.req);
    w.u32(static_cast<uint32_t>(m.slab.size()));
    w.bytes(m.slab.data(), m.slab.size());
}

bool
getMigratedWire(ByteReader &r, MigratedWire *out)
{
    MigratedWire m;
    r.u64(&m.specHash);
    r.u64(&m.calibDigest);
    if (!r.ok() || !getRequest(r, &m.req))
        return false;
    uint32_t len = 0;
    if (!r.u32(&len) || len > r.remaining())
        return false;
    m.slab.resize(len);
    if (!r.bytes(m.slab.data(), len))
        return false;
    *out = std::move(m);
    return true;
}

} // namespace shard
} // namespace ditto
