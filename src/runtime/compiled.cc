/**
 * @file
 * CompiledModel implementation: compile() and the two executors (FP32
 * and the batched quantized executor, which runs a single request as a
 * batch of one).
 *
 * The quantized executor mirrors the historic hand-wired MiniUnet
 * paths call for call — quantize, engine entry point, dequantize, the
 * same float ops between — which is what makes compiled execution of
 * the MiniUnet preset bitwise identical to the legacy implementation
 * (core/legacy_unet.h, kept as the parity reference). On top of that,
 * the dependency-analysis verdicts rewire difference state flow on
 * eligible edges; the requantized payload is elementwise equal to the
 * subtraction the consumer would have performed, so the rewiring is
 * bitwise neutral too (see the header and docs/graph_runtime.md).
 */
#include "runtime/compiled.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/bytes.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/attention_diff.h"
#include "quant/encoder.h"
#include "runtime/workspace.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/slab.h"

namespace ditto {

namespace {

/** Dynamic operands of a compute op: dynamic attention multiplies two. */
int
numOperands(RtOp op)
{
    return op == RtOp::AttnScores || op == RtOp::AttnOutput ? 2 : 1;
}

/** Quantization point of a compute node's dynamic operand `j`. */
int
operandScale(const NodeSpec &ns, int j)
{
    return j == 0 ? ns.scaleIn : ns.scaleIn2;
}

/** He-style random weight init (the legacy MiniUnet draw). */
FloatTensor
randomWeight(Rng &rng, const Shape &shape, int64_t fan_in)
{
    FloatTensor w(shape);
    const double std = 1.0 / std::sqrt(static_cast<double>(fan_in));
    for (auto &v : w.data())
        v = static_cast<float>(rng.normal(0.0, std));
    return w;
}

/** Per-tensor symmetric weight quantization (legacy quantw). */
struct QuantW
{
    Int8Tensor codes;
    float scale = 1.0f;
};

QuantW
quantW(const FloatTensor &w)
{
    const QuantParams p = chooseDynamicScale(w);
    return {quantize(w, p), p.scale};
}

/**
 * Stacked NCHW [B,C,H,W] -> stacked token matrix [B*H*W, C]; slab b
 * holds exactly the single-map conversion of slab b (B == 1 is the
 * single-request layout). Works for float values, int8 codes and
 * int16 deltas alike — it is a pure element bijection.
 */
template <typename T>
void
toTokensInto(const T *x, int64_t bsz, int64_t c, int64_t h, int64_t w,
             T *out)
{
    for (int64_t b = 0; b < bsz; ++b)
        for (int64_t ci = 0; ci < c; ++ci)
            for (int64_t y = 0; y < h; ++y)
                for (int64_t xw = 0; xw < w; ++xw)
                    out[((b * h + y) * w + xw) * c + ci] =
                        x[((b * c + ci) * h + y) * w + xw];
}

/** Stacked token matrix [B*H*W, C] -> stacked NCHW [B,C,H,W]. */
template <typename T>
void
toNchwInto(const T *t, int64_t bsz, int64_t c, int64_t h, int64_t w,
           T *out)
{
    for (int64_t b = 0; b < bsz; ++b)
        for (int64_t ci = 0; ci < c; ++ci)
            for (int64_t y = 0; y < h; ++y)
                for (int64_t xw = 0; xw < w; ++xw)
                    out[((b * c + ci) * h + y) * w + xw] =
                        t[((b * h + y) * w + xw) * c + ci];
}

/** Nearest-neighbour 2x spatial upsampling of stacked [B,C,h,w] maps. */
void
upsample2xInto(const float *x, int64_t bsz, int64_t c, int64_t h, int64_t w,
               float *out)
{
    for (int64_t p = 0; p < bsz * c; ++p)
        for (int64_t y = 0; y < h * 2; ++y)
            for (int64_t xw = 0; xw < w * 2; ++xw)
                out[(p * h * 2 + y) * w * 2 + xw] =
                    x[(p * h + y / 2) * w + xw / 2];
}

/** 2x2 average pooling of stacked [B,C,h,w] maps (h, w even). */
void
avgPool2xInto(const float *x, int64_t bsz, int64_t c, int64_t h, int64_t w,
              float *out)
{
    const int64_t oh = h / 2;
    const int64_t ow = w / 2;
    for (int64_t p = 0; p < bsz * c; ++p) {
        const float *plane = x + p * h * w;
        for (int64_t y = 0; y < oh; ++y)
            for (int64_t xw = 0; xw < ow; ++xw)
                out[(p * oh + y) * ow + xw] =
                    (plane[2 * y * w + 2 * xw] +
                     plane[2 * y * w + 2 * xw + 1] +
                     plane[(2 * y + 1) * w + 2 * xw] +
                     plane[(2 * y + 1) * w + 2 * xw + 1]) *
                    0.25f;
    }
}

/** Channel concatenation of stacked NCHW maps (per-slab). */
void
concatChannelsInto(const float *a, const float *b, int64_t bsz, int64_t ca,
                   int64_t cb, int64_t plane, float *out)
{
    for (int64_t bb = 0; bb < bsz; ++bb) {
        std::copy(a + bb * ca * plane, a + (bb + 1) * ca * plane,
                  out + bb * (ca + cb) * plane);
        std::copy(b + bb * cb * plane, b + (bb + 1) * cb * plane,
                  out + (bb * (ca + cb) + ca) * plane);
    }
}

/**
 * Requantize an int32 accumulator into int8 codes at a consumer's
 * quantization point: elementwise exactly
 * quantize(dequantizeAccum(acc, combined), qp) — the same two float
 * multiplications in the same order — without the intermediate float
 * tensor.
 */
int8_t
requantOne(int32_t acc, float combined, float inv, float lo, float hi)
{
    const float v = static_cast<float>(acc) * combined;
    return static_cast<int8_t>(std::clamp(std::nearbyint(v * inv), lo, hi));
}

/**
 * Requantize the current accumulator into caller-owned codes and, for
 * primed slabs, their difference against the previous step's emission
 * (the producer-resident code cache `prev`) — the diff-calc-bypass
 * payload. `prev` is the same requantization of the previous
 * accumulator, so `d16` equals subtractInt8(codes_t, codes_prev)
 * element for element and a consumer running on it is bitwise
 * identical to one that stored the previous codes itself. Unprimed
 * slabs get codes only; their `d16` region is left unwritten and is
 * never read, exactly like an unprimed slab's engine state.
 */
void
requantCodesDeltaInto(const int32_t *acc, const int8_t *prev,
                      float combined, const QuantParams &qp,
                      const uint8_t *primed, int64_t slabs,
                      int64_t slab_elems, int8_t *codes, int16_t *d16)
{
    const float inv = 1.0f / qp.scale;
    const float lo = static_cast<float>(qp.minCode());
    const float hi = static_cast<float>(qp.maxCode());
    for (int64_t s = 0; s < slabs; ++s) {
        const int64_t base = s * slab_elems;
        if (primed && primed[s]) {
            DITTO_ASSERT(prev && d16,
                         "primed payload slab needs its code cache");
            for (int64_t i = base; i < base + slab_elems; ++i) {
                const int8_t ct = requantOne(acc[i], combined, inv, lo, hi);
                codes[i] = ct;
                d16[i] = static_cast<int16_t>(static_cast<int16_t>(ct) -
                                              static_cast<int16_t>(prev[i]));
            }
        } else {
            for (int64_t i = base; i < base + slab_elems; ++i)
                codes[i] = requantOne(acc[i], combined, inv, lo, hi);
        }
    }
}

/**
 * ApproxDitto stability signal of a Defo probe: the activity fraction
 * of the difference stream, weighting a 4-bit element half of an
 * 8-bit one ((0.5*low4 + full8)/total). 0 means the operand did not
 * change at all; the skip test `activity <= thresh` therefore makes
 * threshold 0 skip only bitwise-identical steps. Pure integer-derived
 * double arithmetic — deterministic at any thread count and batch
 * composition.
 */
double
approxActivity(const DiffClassCounts &c)
{
    const int64_t total = c.total();
    if (total == 0)
        return 0.0;
    return (0.5 * static_cast<double>(c.low4) +
            static_cast<double>(c.full8)) /
           static_cast<double>(total);
}

/** Copy slab `s` of `src` into the same region of `dst`. */
template <typename T>
void
copySlabRegion(const T *src, T *dst, int64_t s, int64_t slab_elems)
{
    std::copy(src + s * slab_elems, src + (s + 1) * slab_elems,
              dst + s * slab_elems);
}

/** Zero slab `s` of `t`. */
template <typename T>
void
zeroSlabRegion(T *t, int64_t s, int64_t slab_elems)
{
    std::fill(t + s * slab_elems, t + (s + 1) * slab_elems, T{});
}

/** Standalone (batch-of-one) shape of one slab of a stacked tensor. */
Shape
slabShape(const Shape &stacked, int64_t b)
{
    if (stacked.rank() == 4)
        return slab::withDim0(stacked, 1);
    DITTO_ASSERT(stacked.rank() == 2 && stacked[0] % b == 0,
                 "unsupported slab layout");
    return Shape{stacked[0] / b, stacked[1]};
}

/** Stacked shape holding `b` slabs of a standalone-slab tensor. */
Shape
stackedShape(const Shape &one, int64_t b)
{
    if (one.rank() == 4)
        return slab::withDim0(one, b);
    DITTO_ASSERT(one.rank() == 2, "unsupported slab layout");
    return Shape{one[0] * b, one[1]};
}

/**
 * The reverse-diffusion update rule, in place: x += -0.15 * eps, with
 * the exact arithmetic of add(x, affine(eps, -0.15f, 0.0f)) (eps is
 * scratch and is overwritten by the scaled step).
 */
void
applyUpdate(float *x, float *eps, int64_t n)
{
    kernels::affineInto(eps, n, -0.15f, 0.0f, eps);
    kernels::addInto(x, eps, n, x);
}

/** View of a planned buffer: `off` per-slab bytes, `bsz` slabs wide. */
template <typename T>
T *
planned(std::byte *arena, int64_t off, int64_t bsz)
{
    return off < 0 ? nullptr : reinterpret_cast<T *>(arena + off * bsz);
}

/**
 * Give slot tensor `t` the stacked shape `s`, keeping its storage (a
 * reused state or a slot from the double buffer's other half).
 */
template <typename T>
T *
shaped(Tensor<T> *t, const Shape &s)
{
    if (t->shape() != s)
        t->resize(s);
    return t->data().data();
}

} // namespace

void
CompiledModel::BatchDittoState::appendSlabs(int64_t count)
{
    DITTO_ASSERT(count > 0, "appendSlabs needs a positive count");
    const int64_t b = batch();
    if (b > 0) {
        for (Int8Tensor &t : prevIn)
            if (t.numel() > 0)
                t = slab::appended(t, b, count);
        for (Int32Tensor &t : prevOut)
            if (t.numel() > 0)
                t = slab::appended(t, b, count);
        if (!consec.empty()) {
            const size_t stride = consec.size() / static_cast<size_t>(b);
            consec.insert(consec.end(),
                          static_cast<size_t>(count) * stride, 0);
            skips.insert(skips.end(),
                         static_cast<size_t>(count) * stride, 0);
        }
    }
    primed.insert(primed.end(), static_cast<size_t>(count), 0);
    approx.insert(approx.end(), static_cast<size_t>(count), 0);
    backRefs.insert(backRefs.end(), static_cast<size_t>(count),
                    nullptr);
}

void
CompiledModel::BatchDittoState::removeSlab(int64_t i)
{
    const int64_t b = batch();
    DITTO_ASSERT(i >= 0 && i < b, "removeSlab index out of range");
    if (b == 1) {
        prevIn.clear();
        nextIn.clear();
        prevOut.clear();
        primed.clear();
        approx.clear();
        consec.clear();
        skips.clear();
        backRefs.clear();
        return;
    }
    for (Int8Tensor &t : prevIn)
        if (t.numel() > 0)
            t = slab::removed(t, b, i);
    for (Int32Tensor &t : prevOut)
        if (t.numel() > 0)
            t = slab::removed(t, b, i);
    if (!consec.empty()) {
        const size_t stride = consec.size() / static_cast<size_t>(b);
        consec.erase(consec.begin() +
                         static_cast<int64_t>(stride) * i,
                     consec.begin() +
                         static_cast<int64_t>(stride) * (i + 1));
        skips.erase(skips.begin() + static_cast<int64_t>(stride) * i,
                    skips.begin() +
                        static_cast<int64_t>(stride) * (i + 1));
    }
    primed.erase(primed.begin() + i);
    if (i < static_cast<int64_t>(approx.size()))
        approx.erase(approx.begin() + i);
    if (i < static_cast<int64_t>(backRefs.size()))
        backRefs.erase(backRefs.begin() + i);
}

void
CompiledModel::BatchDittoState::resetSlab(int64_t i)
{
    const int64_t b = batch();
    DITTO_ASSERT(i >= 0 && i < b, "resetSlab index out of range");
    primed[static_cast<size_t>(i)] = 0;
    if (i < static_cast<int64_t>(approx.size()))
        approx[static_cast<size_t>(i)] = 0;
    // Hand-over severs descent: the new occupant owes nothing to
    // whatever external object (reuse-cache entry) the previous one
    // was installed from, and keeping the reference would pin evicted
    // entries to live slots.
    if (i < static_cast<int64_t>(backRefs.size()))
        backRefs[static_cast<size_t>(i)].reset();
    // Stale ApproxDitto reuse state from the slab's previous occupant
    // must not leak into the next request's skip decisions: its first
    // (unprimed) step never touches the counters, so a surviving
    // consecutive-skip run would gate the second step differently
    // from a fresh rollout.
    if (!consec.empty()) {
        const size_t stride = consec.size() / static_cast<size_t>(b);
        std::fill_n(consec.begin() + static_cast<int64_t>(stride) * i,
                    stride, 0);
        std::fill_n(skips.begin() + static_cast<int64_t>(stride) * i,
                    stride, int64_t{0});
    }
}

int64_t
CompiledModel::BatchDittoState::SlabState::payloadBytes() const
{
    int64_t b = 0;
    for (const auto &t : prevIn)
        b += t.numel() * static_cast<int64_t>(sizeof(int8_t));
    for (const auto &t : prevOut)
        b += t.numel() * static_cast<int64_t>(sizeof(int32_t));
    b += static_cast<int64_t>(consec.size()) *
         static_cast<int64_t>(sizeof(int32_t));
    b += static_cast<int64_t>(skips.size()) *
         static_cast<int64_t>(sizeof(int64_t));
    return b;
}

CompiledModel::BatchDittoState::SlabState
CompiledModel::BatchDittoState::extractSlab(int64_t i) const
{
    const int64_t b = batch();
    DITTO_ASSERT(i >= 0 && i < b, "extractSlab index out of range");
    SlabState s;
    s.prevIn.resize(prevIn.size());
    for (size_t k = 0; k < prevIn.size(); ++k) {
        const Int8Tensor &t = prevIn[k];
        if (t.numel() == 0)
            continue;
        const int64_t elems = t.numel() / b;
        Int8Tensor one(slabShape(t.shape(), b));
        std::copy(t.data().begin() + i * elems,
                  t.data().begin() + (i + 1) * elems,
                  one.data().begin());
        s.prevIn[k] = std::move(one);
    }
    s.prevOut.resize(prevOut.size());
    for (size_t k = 0; k < prevOut.size(); ++k) {
        const Int32Tensor &t = prevOut[k];
        if (t.numel() == 0)
            continue;
        const int64_t elems = t.numel() / b;
        Int32Tensor one(slabShape(t.shape(), b));
        std::copy(t.data().begin() + i * elems,
                  t.data().begin() + (i + 1) * elems,
                  one.data().begin());
        s.prevOut[k] = std::move(one);
    }
    s.primed = primed[static_cast<size_t>(i)];
    s.approx = i < static_cast<int64_t>(approx.size())
                   ? approx[static_cast<size_t>(i)]
                   : 0;
    if (!consec.empty()) {
        const size_t stride = consec.size() / static_cast<size_t>(b);
        s.consec.assign(consec.begin() +
                            static_cast<int64_t>(stride) * i,
                        consec.begin() +
                            static_cast<int64_t>(stride) * (i + 1));
        s.skips.assign(skips.begin() + static_cast<int64_t>(stride) * i,
                       skips.begin() +
                           static_cast<int64_t>(stride) * (i + 1));
    }
    return s;
}

void
CompiledModel::BatchDittoState::installSlab(int64_t i, const SlabState &s)
{
    const int64_t b = batch();
    DITTO_ASSERT(i >= 0 && i < b, "installSlab index out of range");
    if (prevIn.empty() && !s.prevIn.empty())
        prevIn.resize(s.prevIn.size());
    if (prevOut.empty() && !s.prevOut.empty())
        prevOut.resize(s.prevOut.size());
    for (size_t k = 0; k < s.prevIn.size(); ++k) {
        const Int8Tensor &one = s.prevIn[k];
        if (one.numel() == 0)
            continue;
        Int8Tensor &t = prevIn[k];
        if (t.numel() == 0)
            t = Int8Tensor(stackedShape(one.shape(), b));
        const int64_t elems = one.numel();
        DITTO_ASSERT(t.numel() == elems * b,
                     "installSlab slot geometry mismatch");
        std::copy(one.data().begin(), one.data().end(),
                  t.data().begin() + i * elems);
    }
    for (size_t k = 0; k < s.prevOut.size(); ++k) {
        const Int32Tensor &one = s.prevOut[k];
        if (one.numel() == 0)
            continue;
        Int32Tensor &t = prevOut[k];
        if (t.numel() == 0)
            t = Int32Tensor(stackedShape(one.shape(), b));
        const int64_t elems = one.numel();
        DITTO_ASSERT(t.numel() == elems * b,
                     "installSlab slot geometry mismatch");
        std::copy(one.data().begin(), one.data().end(),
                  t.data().begin() + i * elems);
    }
    primed[static_cast<size_t>(i)] = s.primed;
    if (approx.size() != primed.size())
        approx.resize(primed.size(), 0);
    approx[static_cast<size_t>(i)] = s.approx;
    if (backRefs.size() != primed.size())
        backRefs.resize(primed.size());
    backRefs[static_cast<size_t>(i)] = s.backRef;
    if (!s.consec.empty()) {
        const size_t stride = s.consec.size();
        if (consec.size() != stride * static_cast<size_t>(b)) {
            consec.assign(stride * static_cast<size_t>(b), 0);
            skips.assign(stride * static_cast<size_t>(b), 0);
        }
        std::copy(s.consec.begin(), s.consec.end(),
                  consec.begin() + static_cast<int64_t>(stride) * i);
        std::copy(s.skips.begin(), s.skips.end(),
                  skips.begin() + static_cast<int64_t>(stride) * i);
    }
}

bool
CompiledModel::acceptsSlab(const FloatTensor &image, int steps_done,
                           const BatchDittoState::SlabState *state,
                           std::string *why) const
{
    const auto reject = [&](std::string reason) {
        if (why)
            *why = std::move(reason);
        return false;
    };
    if (image.numel() == 0) {
        if (steps_done > 0 || state)
            return reject("slab missing partial image");
    } else if (image.shape() != inputShape()) {
        return reject("slab image shape mismatch: " +
                      image.shape().toString() + " for input " +
                      inputShape().toString());
    }
    if (!state)
        return true;
    if (state->prevIn.size() != inSlotShape_.size() ||
        state->prevOut.size() != outSlotShape_.size())
        return reject("slab slot geometry mismatch: " +
                      std::to_string(state->prevIn.size()) + "/" +
                      std::to_string(state->prevOut.size()) +
                      " slots for " + std::to_string(numInSlots_) + "/" +
                      std::to_string(numOutSlots_));
    for (size_t k = 0; k < inSlotShape_.size(); ++k)
        if (state->prevIn[k].shape() != inSlotShape_[k])
            return reject("slab code slot " + std::to_string(k) +
                          " shaped " + state->prevIn[k].shape().toString() +
                          ", want " + inSlotShape_[k].toString());
    for (size_t k = 0; k < outSlotShape_.size(); ++k)
        if (state->prevOut[k].shape() != outSlotShape_[k])
            return reject("slab output slot " + std::to_string(k) +
                          " shaped " + state->prevOut[k].shape().toString() +
                          ", want " + outSlotShape_[k].toString());
    const size_t counters = state->consec.size();
    if (state->skips.size() != counters ||
        (counters != 0 && counters != nodes_.size()))
        return reject("slab skip counters hold " + std::to_string(counters) +
                      "/" + std::to_string(state->skips.size()) +
                      " entries, want 0 or " +
                      std::to_string(nodes_.size()) + " each");
    return true;
}

float
CompiledModel::combinedScale(const Node &nd) const
{
    const NodeSpec &ns = nd.spec;
    if (ns.op == RtOp::AttnScores || ns.op == RtOp::AttnOutput)
        return actScale_[static_cast<size_t>(ns.scaleIn)] *
               actScale_[static_cast<size_t>(ns.scaleIn2)];
    return actScale_[static_cast<size_t>(ns.scaleIn)] * nd.wScale;
}

void
CompiledModel::runJunction(const Node &nd, Workspace &ws,
                           const int8_t *prevCodes, const uint8_t *primed,
                           int64_t bsz, int8_t *codes, int16_t *d16) const
{
    const JunctionPlan &plan = *nd.junction;
    const QuantParams qp{
        actScale_[static_cast<size_t>(nd.spec.scaleIn)], 8};
    // The source list lives in the workspace, whose capacity outlives
    // the pass: the fold allocates nothing once warm.
    std::vector<RequantSource> &srcs = ws.tables().sources;
    for (const JunctionRegion &r : plan.regions) {
        srcs.resize(r.sources.size());
        const std::span<const RequantSource> span(srcs);
        for (int64_t s = 0; s < bsz; ++s) {
            const bool sp = primed && primed[s];
            DITTO_ASSERT(!sp || prevCodes,
                         "primed junction fold needs its code cache");
            for (size_t i = 0; i < r.sources.size(); ++i) {
                const int src = r.sources[i];
                // The producer ran earlier in this pass and published
                // its current accumulator (a prevOut slot in Ditto
                // mode, an arena buffer in QuantDirect).
                const int32_t *acc =
                    ws.tables().values[static_cast<size_t>(src)].acc;
                DITTO_ASSERT(acc, "junction source accumulator missing");
                srcs[i].acc = acc + s * r.srcElems;
                srcs[i].scale =
                    combinedScale(nodes_[static_cast<size_t>(src)]);
            }
            const int64_t off = s * plan.slabElems + r.outOffset;
            int8_t *oc = codes + off;
            const int8_t *pc = sp ? prevCodes + off : nullptr;
            int16_t *od = sp ? d16 + off : nullptr;
            switch (r.transform) {
              case JunctionRegion::Transform::Identity:
                requantSumDelta(span, r.outElems, qp, pc, oc, od);
                break;
              case JunctionRegion::Transform::Upsample2x:
                requantUpsample2xSumDelta(span, r.c, r.h, r.w, qp, pc, oc,
                                          od);
                break;
              case JunctionRegion::Transform::AvgPool2x:
                requantAvgPool2xSumDelta(span, r.c, r.h, r.w, qp, pc, oc,
                                         od);
                break;
            }
        }
    }
}

std::vector<CompiledModel::NodeReport>
CompiledModel::nodeReports() const
{
    std::vector<NodeReport> out;
    out.reserve(nodes_.size());
    for (const Node &nd : nodes_) {
        NodeReport r;
        r.name = nd.spec.name;
        r.op = nd.spec.op;
        r.layer = nd.layer;
        r.compute = rtIsCompute(nd.spec.op);
        r.diffBypass = !nd.in[0].stored();
        r.diffBypass2 = !nd.in[1].stored();
        r.junction = nd.junction.has_value();
        r.sumSkip = r.compute && !nd.fLive;
        r.emitsPayload = nd.emitPayload;
        r.deadStructural = nd.skipExec;
        r.outElems = r.compute ? nd.spec.outShape.numel() : 0;
        out.push_back(std::move(r));
    }
    return out;
}

void
CompiledModel::validateSingle(const FloatTensor &x, const char *what) const
{
    if (x.shape() != spec_.inputShape)
        DITTO_FATAL(what << ": tensor shape " << x.shape().toString()
                         << " does not match model input "
                         << spec_.inputShape.toString() << " of spec '"
                         << spec_.name << "'");
}

const float *
CompiledModel::forwardFp32(const float *x, Workspace &ws,
                           const Fp32Observer *obs) const
{
    std::byte *arena = ws.arena(arenaSlabBytes_);
    auto &vals = ws.tables().values;
    vals.assign(nodes_.size(), Workspace::Tables::Value{});
    auto in = [&](const NodeSpec &ns, int j) -> const float * {
        return vals[static_cast<size_t>(ns.inputs[static_cast<size_t>(j)])]
            .f;
    };
    auto observe = [&](int idx, const float *t, int64_t n) {
        if (obs && *obs)
            (*obs)(idx, t, n);
    };
    auto inElems = [&](const NodeSpec &ns, int j) {
        return spec_.nodes[static_cast<size_t>(
                               ns.inputs[static_cast<size_t>(j)])]
            .outShape.numel();
    };
    for (const Node &nd : nodes_) {
        const NodeSpec &ns = nd.spec;
        if (ns.op == RtOp::Input) {
            vals[static_cast<size_t>(ns.id)].f = const_cast<float *>(x);
            continue;
        }
        float *out = planned<float>(arena, nd.bufs[kPlanFp32].f, 1);
        vals[static_cast<size_t>(ns.id)].f = out;
        const int64_t n = ns.outShape.numel();
        const Shape &s0 =
            spec_.nodes[static_cast<size_t>(ns.inputs[0])].outShape;
        // The GEMM forms accumulate: their outputs start at zero.
        auto gemm = [&](const float *a, int64_t m, int64_t k,
                        const float *b, int64_t cols, bool trans_b) {
            std::fill(out, out + n, 0.0f);
            kernels::gemmInto(a, m, k, b, cols, trans_b, out);
        };
        switch (ns.op) {
          case RtOp::Input:
            break;
          case RtOp::Conv2d:
            observe(ns.scaleIn, in(ns, 0), inElems(ns, 0));
            kernels::conv2dInto(in(ns, 0), 1, s0[2], s0[3], nd.wF, ns.conv,
                                out);
            break;
          case RtOp::Fc:
            observe(ns.scaleIn, in(ns, 0), inElems(ns, 0));
            gemm(in(ns, 0), s0[0], s0[1], nd.wF.data().data(),
                 nd.wF.shape()[0], /*trans_b=*/true);
            break;
          case RtOp::AttnScores: {
            const Shape &s1 =
                spec_.nodes[static_cast<size_t>(ns.inputs[1])].outShape;
            observe(ns.scaleIn, in(ns, 0), inElems(ns, 0));
            observe(ns.scaleIn2, in(ns, 1), inElems(ns, 1));
            gemm(in(ns, 0), s0[0], s0[1], in(ns, 1), s1[0],
                 /*trans_b=*/true);
            break;
          }
          case RtOp::AttnOutput: {
            const Shape &s1 =
                spec_.nodes[static_cast<size_t>(ns.inputs[1])].outShape;
            observe(ns.scaleIn, in(ns, 0), inElems(ns, 0));
            observe(ns.scaleIn2, in(ns, 1), inElems(ns, 1));
            gemm(in(ns, 0), s0[0], s0[1], in(ns, 1), s1[1],
                 /*trans_b=*/false);
            break;
          }
          case RtOp::CrossScores:
            observe(ns.scaleIn, in(ns, 0), inElems(ns, 0));
            gemm(in(ns, 0), s0[0], s0[1], nd.constF.data().data(),
                 nd.constF.shape()[0], /*trans_b=*/true);
            break;
          case RtOp::CrossOutput:
            observe(ns.scaleIn, in(ns, 0), inElems(ns, 0));
            gemm(in(ns, 0), s0[0], s0[1], nd.constF.data().data(),
                 nd.constF.shape()[1], /*trans_b=*/false);
            break;
          default:
            runStructural(nd, ws, arena, 1, kPlanFp32);
            break;
        }
    }
    return vals.back().f;
}

void
CompiledModel::runStructural(const Node &nd, Workspace &ws,
                             std::byte *arena, int64_t bsz, Plan plan) const
{
    const NodeSpec &ns = nd.spec;
    auto &vals = ws.tables().values;
    Workspace::Tables::Value &out = vals[static_cast<size_t>(ns.id)];
    auto inVal = [&](int j) -> Workspace::Tables::Value & {
        return vals[static_cast<size_t>(
            ns.inputs[static_cast<size_t>(j)])];
    };
    const Shape &s0 =
        spec_.nodes[static_cast<size_t>(ns.inputs[0])].outShape;
    const NodeBufs &b = nd.bufs[plan];
    float *f = planned<float>(arena, b.f, bsz);
    const int64_t n = ns.outShape.numel() * bsz;
    switch (ns.op) {
      case RtOp::GroupNorm:
        kernels::groupNormInto(inVal(0).f, bsz, s0[1], s0[2] * s0[3],
                               ns.groups, 1e-5f, f);
        break;
      case RtOp::LayerNorm:
        kernels::layerNormInto(inVal(0).f, s0[0] * bsz, s0[1], 1e-5f, f);
        break;
      case RtOp::SiLU:
        kernels::siluInto(inVal(0).f, n, f);
        break;
      case RtOp::GeLU:
        kernels::geluInto(inVal(0).f, n, f);
        break;
      case RtOp::Softmax:
        kernels::softmaxRowsInto(inVal(0).f, s0[0] * bsz, s0[1], f);
        break;
      case RtOp::Add:
        kernels::addInto(inVal(0).f, inVal(1).f, n, f);
        break;
      case RtOp::Affine:
        kernels::affineInto(inVal(0).f, n, ns.affineScale, ns.affineShift,
                            f);
        break;
      case RtOp::Concat: {
        const Shape &s1 =
            spec_.nodes[static_cast<size_t>(ns.inputs[1])].outShape;
        concatChannelsInto(inVal(0).f, inVal(1).f, bsz, s0[1], s1[1],
                           s0[2] * s0[3], f);
        break;
      }
      case RtOp::Upsample2x:
        upsample2xInto(inVal(0).f, bsz, s0[1], s0[2], s0[3], f);
        break;
      case RtOp::AvgPool2x:
        avgPool2xInto(inVal(0).f, bsz, s0[1], s0[2], s0[3], f);
        break;
      case RtOp::NchwToTokens:
      case RtOp::TokensToNchw: {
        // Reshapes carry whichever of f / payload codes / payload
        // difference their input carries (element bijections).
        const Workspace::Tables::Value in = inVal(0);
        const bool to_tokens = ns.op == RtOp::NchwToTokens;
        const Shape &nchw = to_tokens ? s0 : ns.outShape;
        const int64_t c = nchw[1], h = nchw[2], w = nchw[3];
        auto reshape = [&](const auto *src, auto *dst) {
            if (to_tokens)
                toTokensInto(src, bsz, c, h, w, dst);
            else
                toNchwInto(src, bsz, c, h, w, dst);
        };
        out.f = nullptr;
        if (in.f && f) {
            reshape(in.f, f);
            out.f = f;
        }
        if (plan == kPlanFp32)
            break;
        if (in.codes) {
            out.codes = planned<int8_t>(arena, b.codes, bsz);
            reshape(in.codes, out.codes);
        }
        if (in.d16) {
            out.d16 = planned<int16_t>(arena, b.d16, bsz);
            reshape(in.d16, out.d16);
        }
        return;
      }
      default:
        DITTO_PANIC("compute op in the structural interpreter");
    }
    out.f = f;
}

void
CompiledModel::nodeEpilogue(const Node &nd, Workspace &ws, std::byte *arena,
                            const int32_t *acc, BatchDittoState *state,
                            const uint8_t *primed, bool any_primed,
                            int64_t bsz, OpCounts *counts) const
{
    Workspace::Tables::Value &out =
        ws.tables().values[static_cast<size_t>(nd.spec.id)];
    const NodeBufs &b = nd.bufs[state ? kPlanDitto : kPlanDirect];
    const float combined = combinedScale(nd);
    const int64_t slab_elems = nd.spec.outShape.numel();
    if (nd.emitPayload) {
        const QuantParams eqp{
            actScale_[static_cast<size_t>(nd.emitScale)], 8};
        const auto slot = static_cast<size_t>(nd.emitSlot);
        // Ditto mode writes the emission into the cache's other half
        // and flips: the new emission becomes the next step's
        // subtrahend, and the old one stays readable in nextIn for an
        // ApproxDitto consumer that rolls a skipped slab back.
        int8_t *codes =
            state ? shaped(&state->nextIn[slot],
                           stackedShape(nd.spec.outShape, bsz))
                  : planned<int8_t>(arena, b.codes, bsz);
        int16_t *d16 =
            any_primed ? planned<int16_t>(arena, b.d16, bsz) : nullptr;
        requantCodesDeltaInto(acc,
                              any_primed ? state->prevIn[slot].data().data()
                                         : nullptr,
                              combined, eqp, primed, bsz, slab_elems, codes,
                              d16);
        if (state)
            std::swap(state->prevIn[slot], state->nextIn[slot]);
        out.codes = codes;
        out.d16 = d16;
    }
    if (nd.fLive) {
        out.f = planned<float>(arena, b.f, bsz);
        dequantizeAccumInto(acc, slab_elems * bsz, combined, out.f);
        for (int64_t s = 0; counts && primed && s < bsz; ++s)
            if (primed[s])
                counts[s].summationElems += slab_elems;
    }
    out.acc = acc;
}

const float *
CompiledModel::forwardQuant(const float *x, int64_t bsz, bool approx,
                            BatchDittoState *state, OpCounts *counts,
                            Workspace &ws) const
{
    DITTO_ASSERT(!state || state->batch() == bsz,
                 "batch state size mismatch");
    DITTO_ASSERT(!approx || state,
                 "ApproxDitto runs on the Ditto state machinery");
    if (state && state->prevIn.size() != static_cast<size_t>(numInSlots_)) {
        DITTO_ASSERT(state->prevIn.empty() && state->prevOut.empty(),
                     "state slot geometry does not match the model");
        state->prevIn.resize(static_cast<size_t>(numInSlots_));
        state->prevOut.resize(static_cast<size_t>(numOutSlots_));
    }
    if (state && state->nextIn.size() != state->prevIn.size())
        state->nextIn.resize(state->prevIn.size());
    std::byte *arena = ws.arena(arenaSlabBytes_ * bsz);
    const Plan plan = state ? kPlanDitto : kPlanDirect;
    EngineScratch &scratch = ws.engine();
    Workspace::Tables &tab = ws.tables();
    auto &vals = tab.values;
    const size_t nnodes = nodes_.size();
    vals.assign(nnodes, Workspace::Tables::Value{});

    const uint8_t *primed = state ? state->primed.data() : nullptr;
    bool have_primed = false;
    for (int64_t s = 0; primed && s < bsz; ++s)
        have_primed |= primed[s] != 0;

    // ApproxDitto bookkeeping: per-slab enables (the serving layer
    // mixes exact and approx requests in one batch; exact slabs are
    // never skipped) and [slab][node] skip counters.
    if (approx) {
        DITTO_ASSERT(state->approx.size() == static_cast<size_t>(bsz),
                     "approx batch needs per-slab approx flags");
        if (state->consec.size() != nnodes * static_cast<size_t>(bsz)) {
            state->consec.assign(nnodes * static_cast<size_t>(bsz), 0);
            state->skips.assign(nnodes * static_cast<size_t>(bsz), 0);
        }
    }
    auto slabApprox = [&](int64_t s) {
        return approx && state->approx[static_cast<size_t>(s)] &&
               primed[s];
    };
    bool any_approx = false;
    for (int64_t s = 0; s < bsz; ++s)
        any_approx |= slabApprox(s);

    // Stored previous codes of a slot (read only for primed slabs),
    // and the slot's other half shaped to receive this step's codes.
    auto prevCodes = [&](int slot) -> const int8_t * {
        return have_primed ? state->prevIn[static_cast<size_t>(slot)]
                                 .data()
                                 .data()
                           : nullptr;
    };
    auto nextCodes = [&](int slot, const Shape &one) -> int8_t * {
        return shaped(&state->nextIn[static_cast<size_t>(slot)],
                      stackedShape(one, bsz));
    };
    auto flip = [&](int slot) {
        std::swap(state->prevIn[static_cast<size_t>(slot)],
                  state->nextIn[static_cast<size_t>(slot)]);
    };

    // ApproxDitto per-slab skip decisions for one node: `stable(s)`
    // probes slab s's operand difference(s) and is consulted only
    // while the slab's consecutive-skip run is under the cap.
    struct Skips
    {
        const uint8_t *slab = nullptr;
        bool any = false;
        bool all = false;
    };
    auto decideSkips = [&](int node, auto &&stable) {
        Skips sk;
        if (!any_approx)
            return sk;
        tab.skip.assign(static_cast<size_t>(bsz), 0);
        sk.all = true;
        for (int64_t s = 0; s < bsz; ++s) {
            bool skip = false;
            if (slabApprox(s)) {
                const size_t at = static_cast<size_t>(s) * nnodes +
                                  static_cast<size_t>(node);
                int32_t &consec = state->consec[at];
                skip = consec < approxCap_ && stable(s);
                if (skip) {
                    ++consec;
                    ++state->skips[at];
                } else {
                    consec = 0;
                }
            }
            tab.skip[static_cast<size_t>(s)] = skip;
            sk.any |= skip;
            sk.all &= skip;
        }
        sk.slab = tab.skip.data();
        return sk;
    };
    auto isSkipped = [](const Skips &sk, int64_t s) {
        return sk.any && sk.slab[s];
    };

    // A partly skipped batch still runs its skipped slabs through the
    // engine, over a zeroed difference region. Those slabs' tallies
    // are dropped, so a request reports exactly what a sequential skip
    // reports (no probe, no diff-calc) whatever its batch-mates do.
    auto engineCounts = [&](const Skips &sk) -> OpCounts * {
        if (!counts || !sk.any)
            return counts;
        tab.tally.assign(static_cast<size_t>(bsz), OpCounts{});
        return tab.tally.data();
    };
    auto settleCounts = [&](const Skips &sk, OpCounts *eng,
                            int64_t diff_calc_per_slab) {
        for (int64_t s = 0; counts && primed && s < bsz; ++s) {
            if (!primed[s] || isSkipped(sk, s))
                continue;
            if (eng != counts)
                counts[s].merge(tab.tally[static_cast<size_t>(s)]);
            counts[s].diffCalcElems += diff_calc_per_slab;
        }
    };

    // The node's accumulator: its previous-output slot in Ditto mode
    // (engines accumulate into it in place), a planned buffer in
    // QuantDirect.
    auto accumulator = [&](const Node &nd) -> int32_t * {
        if (!state)
            return planned<int32_t>(arena, nd.bufs[plan].acc, bsz);
        return shaped(&state->prevOut[static_cast<size_t>(nd.outSlot)],
                      stackedShape(nd.spec.outShape, bsz));
    };

    for (const Node &nd : nodes_) {
        const NodeSpec &ns = nd.spec;
        auto inVal = [&](int j) -> Workspace::Tables::Value & {
            return vals[static_cast<size_t>(
                ns.inputs[static_cast<size_t>(j)])];
        };
        auto inShape = [&](int j) -> const Shape & {
            return spec_.nodes[static_cast<size_t>(
                                   ns.inputs[static_cast<size_t>(j)])]
                .outShape;
        };

        if (ns.op == RtOp::Input) {
            vals[static_cast<size_t>(ns.id)].f = const_cast<float *>(x);
            continue;
        }

        // Compute: one engine over one dynamic operand (conv, fc, cross
        // attention) or two (dynamic attention), each of whose
        // difference is stored codes, a producer's hand-over or a
        // junction fold.
        if (rtIsCompute(ns.op)) {
            const int nops = numOperands(ns.op);
            int8_t *codes[2] = {};
            int16_t *diff[2] = {};
            int64_t elems[2] = {};
            int64_t stored_elems = 0;
            for (int j = 0; j < nops; ++j) {
                const Operand &o = nd.in[j];
                Workspace::Tables::Value &v = inVal(j);
                elems[j] = inShape(j).numel();
                if (o.producer >= 0) {
                    DITTO_ASSERT(v.codes, "operand payload missing codes");
                    codes[j] = v.codes;
                    if (have_primed) {
                        DITTO_ASSERT(v.d16,
                                     "operand payload missing difference");
                        diff[j] = v.d16;
                    }
                    continue;
                }
                // Stored codes and folds write this step's codes into
                // the slot's other half in Ditto mode.
                codes[j] = state ? nextCodes(o.slot, inShape(j))
                                 : planned<int8_t>(arena,
                                                   nd.bufs[plan].op[j], bsz);
                if (o.folded) {
                    if (have_primed)
                        diff[j] = planned<int16_t>(arena, nd.bufs[plan].opD16,
                                                   bsz);
                    runJunction(nd, ws, prevCodes(o.slot), primed, bsz,
                                codes[j], diff[j]);
                } else {
                    const QuantParams qp{
                        actScale_[static_cast<size_t>(operandScale(ns, j))],
                        8};
                    quantizeInto(v.f, elems[j] * bsz, qp, codes[j]);
                    stored_elems += elems[j];
                }
            }

            // ApproxDitto: probe each approx slab's temporal difference
            // of every operand — a handed-over or folded delta, or the
            // stored previous codes — and skip the slab only when all
            // of them are stable enough (every expansion term carries
            // one operand's difference).
            const Skips sk = decideSkips(ns.id, [&](int64_t s) {
                bool stable = true;
                for (int j = 0; stable && j < nops; ++j) {
                    const int64_t n = elems[j];
                    const DiffClassCounts c =
                        diff[j] ? countDiffClasses(diff[j] + s * n, n)
                                : countTemporalDiffClasses(
                                      codes[j] + s * n,
                                      prevCodes(nd.in[j].slot) + s * n, n);
                    stable = approxActivity(c) <= approxThresh_;
                }
                return stable;
            });
            // A skipped slab replays its cached output and freezes each
            // operand's difference reference to the operand that output
            // corresponds to, so the next executed step's delta
            // telescopes across the skipped one exactly (out = prevOut
            // + W(x_{t+1} - x_{t-1})): its codes are re-stored, its
            // difference region is forced to zero and a producer's
            // emission is rolled back. That makes the batched engines
            // reproduce the replay bitwise — out = prevOut + W*0 —
            // while non-skipped slabs run unchanged.
            for (int64_t s = 0; sk.any && s < bsz; ++s) {
                if (!isSkipped(sk, s))
                    continue;
                for (int j = 0; j < nops; ++j) {
                    const Operand &o = nd.in[j];
                    if (o.slot >= 0)
                        copySlabRegion(prevCodes(o.slot), codes[j], s,
                                       elems[j]);
                    if (diff[j])
                        zeroSlabRegion(diff[j], s, elems[j]);
                    if (o.producer >= 0) {
                        // The producer already flipped: its pre-update
                        // emission is the cache's other half.
                        const auto es = static_cast<size_t>(
                            nodes_[static_cast<size_t>(o.producer)].emitSlot);
                        copySlabRegion(state->nextIn[es].data().data(),
                                       state->prevIn[es].data().data(), s,
                                       elems[j]);
                    }
                }
                if (counts)
                    counts[s].reusedElems += ns.outShape.numel();
            }

            // When every slab skips, the engine call is bypassed
            // entirely: the slot already holds the replayed output. A
            // hand-over or fold with no slab primed yet has no
            // difference and needs none: every slab runs direct.
            int32_t *acc = accumulator(nd);
            OpCounts *eng = engineCounts(sk);
            if (!sk.all) {
                DiffOperand op[2];
                for (int j = 0; j < nops; ++j)
                    op[j] = {codes[j],
                             nd.in[j].stored() ? prevCodes(nd.in[j].slot)
                                               : nullptr,
                             diff[j]};
                const Shape &sa = inShape(0);
                int32_t *delta =
                    planned<int32_t>(arena, nd.bufs[plan].delta, bsz);
                switch (ns.op) {
                  case RtOp::Conv2d:
                    nd.conv->runBatchInto(op[0], bsz, sa[2], sa[3], primed,
                                          acc, delta, eng, opts_.policy,
                                          &scratch);
                    break;
                  case RtOp::AttnScores:
                  case RtOp::AttnOutput: {
                    // Scores are A B^T over B = K [keys, d]; the weighted
                    // sum is A B over B = V [tokens, d].
                    const bool trans_b = ns.op == RtOp::AttnScores;
                    const Shape &sb = inShape(1);
                    attentionBatchInto(op[0], op[1], sa[0], sa[1],
                                       trans_b ? sb[0] : sb[1], trans_b, bsz,
                                       primed, acc, delta, eng, opts_.policy,
                                       &scratch);
                    break;
                  }
                  default: // Fc, CrossScores, CrossOutput
                    nd.fc->runBatchInto(op[0], sa[0] * bsz, bsz, primed, acc,
                                        eng, opts_.policy, &scratch);
                    break;
                }
                settleCounts(sk, eng, stored_elems);
            }

            nodeEpilogue(nd, ws, arena, acc, state, primed, have_primed,
                         bsz, counts);
            for (int j = 0; state && j < nops; ++j)
                if (nd.in[j].slot >= 0)
                    flip(nd.in[j].slot);
            continue;
        }

        // Vector / structural ops on full values; reshapes also carry
        // the bypass payload through unchanged (element bijections).
        // Plan-covered junction subtrees never execute.
        if (!nd.skipExec)
            runStructural(nd, ws, arena, bsz, plan);
    }
    if (state)
        std::fill(state->primed.begin(), state->primed.end(), 1);
    DITTO_ASSERT(vals.back().f, "output node must materialize full values");
    return vals.back().f;
}

const float *
CompiledModel::evaluate(const float *x, int64_t bsz, RunMode mode,
                        BatchDittoState *state, OpCounts *counts,
                        Workspace &ws) const
{
    switch (mode) {
      case RunMode::Fp32: {
        // FP32 has no quantized state to batch; run per slab, stacking
        // the outputs past the FP32 plan's region of the arena.
        const int64_t slab = spec_.inputShape.numel();
        std::byte *arena = ws.arena(
            arenaSlabBytes_ +
            static_cast<int64_t>(sizeof(float)) * slab * bsz);
        float *eps = reinterpret_cast<float *>(arena + arenaSlabBytes_);
        for (int64_t b = 0; b < bsz; ++b) {
            const float *e = forwardFp32(x + b * slab, ws, nullptr);
            std::copy(e, e + slab, eps + b * slab);
        }
        return eps;
      }
      case RunMode::QuantDirect:
        return forwardQuant(x, bsz, /*approx=*/false, nullptr, nullptr, ws);
      case RunMode::QuantDitto:
      case RunMode::ApproxDitto:
        DITTO_ASSERT(state, "Ditto mode needs persistent batch state");
        return forwardQuant(x, bsz, mode == RunMode::ApproxDitto, state,
                            counts, ws);
    }
    DITTO_PANIC("unknown RunMode");
}

FloatTensor
CompiledModel::forward(const FloatTensor &x, RunMode mode,
                       DittoState *state, OpCounts *counts) const
{
    validateSingle(x, "forward");
    if (state) {
        if (state->batch() > 1)
            DITTO_FATAL("forward: state holds "
                        << state->batch()
                        << " slabs, a single request holds one (use "
                           "forwardBatch for a batch)");
        if (state->batch() == 0)
            state->appendSlab();
        state->approx[0] = mode == RunMode::ApproxDitto;
    }
    return forwardBatch(x, mode, state, counts);
}

void
CompiledModel::validateStack(const FloatTensor &x, const char *what) const
{
    const Shape &want = spec_.inputShape;
    if (x.shape().rank() != 4 || x.shape()[1] != want[1] ||
        x.shape()[2] != want[2] || x.shape()[3] != want[3])
        DITTO_FATAL(what << ": tensor shape " << x.shape().toString()
                         << " does not stack model inputs "
                         << want.toString() << " of spec '" << spec_.name
                         << "'");
}

FloatTensor
CompiledModel::forwardBatch(const FloatTensor &x, RunMode mode,
                            BatchDittoState *state, OpCounts *counts) const
{
    validateStack(x, "forwardBatch");
    WorkspaceLease ws;
    const float *eps = evaluate(x.data().data(), x.shape()[0], mode, state,
                                counts, *ws);
    FloatTensor out(x.shape());
    std::copy(eps, eps + x.numel(), out.data().begin());
    return out;
}

RolloutResult
CompiledModel::rollout(RunMode mode) const
{
    return rollout(mode, noiseInit_);
}

RolloutResult
CompiledModel::rollout(RunMode mode, const FloatTensor &noise,
                       int steps) const
{
    return rollout(mode, noise, steps, StepObserver());
}

RolloutResult
CompiledModel::rollout(RunMode mode, const FloatTensor &noise, int steps,
                       const StepObserver &obs) const
{
    validateSingle(noise, "rollout");
    if (steps < 0)
        DITTO_FATAL("rollout: negative step count " << steps);
    RolloutResult result;
    // The state comes from the workspace and is reused across
    // rollouts: reset to one unprimed slab of this model's geometry
    // (no slots at all for the stateless modes, as observers expect).
    WorkspaceLease ws;
    DittoState &state = ws->rolloutState();
    if (state.batch() != 1) {
        state = DittoState();
        state.appendSlab();
    }
    state.resetSlab(0);
    const bool ditto =
        mode == RunMode::QuantDitto || mode == RunMode::ApproxDitto;
    static const std::vector<Shape> kNoSlots;
    ws->fitRolloutState(ditto ? inSlotShape_ : kNoSlots,
                        ditto ? outSlotShape_ : kNoSlots);
    state.approx[0] = mode == RunMode::ApproxDitto;
    result.finalImage = noise;
    runSteps(&result.finalImage, mode, &state, &result.dittoOps,
             steps == 0 ? spec_.steps : steps, obs, *ws);
    result.totalMacsPerStep = macsPerStep_;
    if (mode == RunMode::ApproxDitto) {
        result.nodeSkips.assign(nodes_.size(), 0);
        if (state.skips.size() == nodes_.size())
            std::copy(state.skips.begin(), state.skips.end(),
                      result.nodeSkips.begin());
    }
    return result;
}

void
CompiledModel::runSteps(FloatTensor *x, RunMode mode,
                        BatchDittoState *state, OpCounts *counts, int steps,
                        const StepObserver &obs) const
{
    WorkspaceLease ws;
    runSteps(x, mode, state, counts, steps, obs, *ws);
}

void
CompiledModel::runSteps(FloatTensor *x, RunMode mode,
                        BatchDittoState *state, OpCounts *counts, int steps,
                        const StepObserver &obs, Workspace &ws) const
{
    DITTO_ASSERT(!obs || state, "a step observer needs the step state");
    validateStack(*x, "runSteps");
    const int64_t bsz = x->shape()[0];
    for (int t = 0; t < steps; ++t) {
        float *eps = const_cast<float *>(
            evaluate(x->data().data(), bsz, mode, state, counts, ws));
        applyUpdate(x->data().data(), eps, x->numel());
        if (obs)
            obs(t + 1, *x, *state);
    }
}

RolloutResult
CompiledModel::rolloutWithFidelity(RunMode mode) const
{
    return rolloutWithFidelity(mode, noiseInit_);
}

RolloutResult
CompiledModel::rolloutWithFidelity(RunMode mode,
                                   const FloatTensor &noise,
                                   int steps) const
{
    // The exact reference first, then the observed rollout compares
    // against it step by step.
    std::vector<FloatTensor> ref;
    rollout(RunMode::QuantDitto, noise, steps,
            [&](int, const FloatTensor &x, const DittoState &) {
                ref.push_back(x);
            });
    std::vector<FidelityStats> fidelity;
    fidelity.reserve(ref.size());
    RolloutResult result = rollout(
        mode, noise, steps,
        [&](int k, const FloatTensor &x, const DittoState &) {
            fidelity.push_back(
                compareImages(ref[static_cast<size_t>(k - 1)], x));
        });
    result.stepFidelity = std::move(fidelity);
    result.fidelity = result.stepFidelity.back();
    result.hasFidelity = true;
    return result;
}

void
CompiledModel::setApproxPolicy(double thresh, int max_consec)
{
    approxThresh_ = std::clamp(thresh, 0.0, 1.0);
    approxCap_ = std::max(1, max_consec);
}

std::vector<RolloutResult>
CompiledModel::rolloutBatch(RunMode mode,
                            std::span<const FloatTensor> noises) const
{
    const int64_t bsz = static_cast<int64_t>(noises.size());
    if (bsz == 0)
        return {};
    const int64_t slab = spec_.inputShape.numel();
    FloatTensor x(slab::withDim0(spec_.inputShape, bsz));
    for (int64_t b = 0; b < bsz; ++b) {
        validateSingle(noises[static_cast<size_t>(b)], "rolloutBatch");
        std::copy(noises[static_cast<size_t>(b)].data().begin(),
                  noises[static_cast<size_t>(b)].data().end(),
                  x.data().begin() + b * slab);
    }

    BatchDittoState state;
    state.appendSlabs(bsz);
    std::fill(state.approx.begin(), state.approx.end(),
              mode == RunMode::ApproxDitto ? 1 : 0);
    std::vector<OpCounts> counts(static_cast<size_t>(bsz));
    runSteps(&x, mode, &state, counts.data(), spec_.steps);

    const size_t nnodes = nodes_.size();
    std::vector<RolloutResult> results(static_cast<size_t>(bsz));
    for (int64_t b = 0; b < bsz; ++b) {
        RolloutResult &r = results[static_cast<size_t>(b)];
        r.finalImage = FloatTensor(spec_.inputShape);
        std::copy(x.data().begin() + b * slab,
                  x.data().begin() + (b + 1) * slab,
                  r.finalImage.data().begin());
        r.dittoOps = counts[static_cast<size_t>(b)];
        r.totalMacsPerStep = macsPerStep_;
        if (mode == RunMode::ApproxDitto) {
            r.nodeSkips.assign(nnodes, 0);
            if (!state.skips.empty())
                std::copy(state.skips.begin() +
                              static_cast<int64_t>(nnodes) * b,
                          state.skips.begin() +
                              static_cast<int64_t>(nnodes) * (b + 1),
                          r.nodeSkips.begin());
        }
    }
    return results;
}

FloatTensor
CompiledModel::requestNoise(uint64_t seed) const
{
    // A distinct key stream from the weight/init RNG so request noise
    // never correlates with model parameters.
    Rng rng = Rng::fromKeys(seed, 0x5EED'D177);
    FloatTensor noise(spec_.inputShape);
    noise.fillNormal(rng, 0.0, 1.0);
    return noise;
}

namespace {

/** One transient of a buffer plan: per-slab bytes and its lifetime. */
struct BufRequest
{
    int64_t bytes = 0;
    int def = 0;          //!< node that writes it
    int end = 0;          //!< last node that reads it
    int64_t *offset = nullptr;
};

/**
 * Lay `reqs` (in definition order) into one arena: each buffer takes
 * the lowest offset not held by a buffer that is still live at its
 * definition (first fit). A buffer read by node i stays live through
 * i, so no node's outputs alias its own inputs. Returns the arena size.
 */
int64_t
layOut(std::vector<BufRequest> &reqs)
{
    struct Live
    {
        int64_t offset, bytes;
        int end;
    };
    std::vector<Live> live;
    int64_t top = 0;
    for (BufRequest &r : reqs) {
        live.erase(std::remove_if(live.begin(), live.end(),
                                  [&](const Live &l) { return l.end < r.def; }),
                   live.end());
        std::sort(live.begin(), live.end(),
                  [](const Live &a, const Live &b) {
                      return a.offset < b.offset;
                  });
        int64_t off = 0;
        for (const Live &l : live) {
            if (l.offset - off >= r.bytes)
                break;
            off = std::max(off, l.offset + l.bytes);
        }
        *r.offset = off;
        live.push_back({off, r.bytes, r.end});
        top = std::max(top, off + r.bytes);
    }
    return top;
}

/** Bytes of `elems` elements of T, rounded up to a cache line. */
template <typename T>
int64_t
lineBytes(int64_t elems)
{
    const int64_t b = elems * static_cast<int64_t>(sizeof(T));
    return (b + 63) / 64 * 64;
}

} // namespace

void
CompiledModel::planBuffers()
{
    const int n = static_cast<int>(nodes_.size());
    const auto &sn = spec_.nodes;
    // Last reader of every node's outputs; the output node's value
    // outlives the pass (it is the predicted noise the caller reads).
    std::vector<int> last(static_cast<size_t>(n), 0);
    for (int i = 0; i < n; ++i)
        last[static_cast<size_t>(i)] = i;
    for (int i = 0; i < n; ++i)
        for (int in : sn[static_cast<size_t>(i)].inputs)
            last[static_cast<size_t>(in)] =
                std::max(last[static_cast<size_t>(in)], i);
    last[static_cast<size_t>(n - 1)] = n;
    // QuantDirect junction sources keep their accumulator until the
    // folding consumer has read it.
    std::vector<int> acc_end(last.size());
    for (int i = 0; i < n; ++i)
        acc_end[static_cast<size_t>(i)] = i;
    for (const Node &nd : nodes_)
        if (nd.junction)
            for (const JunctionRegion &r : nd.junction->regions)
                for (int src : r.sources)
                    acc_end[static_cast<size_t>(src)] = std::max(
                        acc_end[static_cast<size_t>(src)], nd.spec.id);

    // What flows out of each node in the quantized executors.
    std::vector<uint8_t> has_f(last.size(), 0), has_payload(last.size(), 0);
    std::vector<BufRequest> plans[kNumPlans];
    inSlotShape_.assign(static_cast<size_t>(numInSlots_), Shape{});
    outSlotShape_.assign(static_cast<size_t>(numOutSlots_), Shape{});
    for (Node &nd : nodes_) {
        const NodeSpec &ns = nd.spec;
        const int i = ns.id;
        const auto ui = static_cast<size_t>(i);
        const int64_t out_elems = ns.outShape.numel();
        auto inShape = [&](int j) -> const Shape & {
            return sn[static_cast<size_t>(ns.inputs[static_cast<size_t>(j)])]
                .outShape;
        };
        // One buffer of this node in plan p, read through node `end`.
        auto ask = [&](Plan p, int64_t bytes, int end,
                       int64_t NodeBufs::*field) {
            plans[p].push_back(
                {bytes, i, end, &(nd.bufs[p].*field)});
        };
        // The same buffer in both quantized plans.
        auto askQuant = [&](int64_t bytes, int end,
                            int64_t NodeBufs::*field) {
            ask(kPlanDirect, bytes, end, field);
            ask(kPlanDitto, bytes, end, field);
        };
        if (ns.op == RtOp::Input) {
            has_f[ui] = 1; // a view of the caller's images
            continue;
        }
        ask(kPlanFp32, lineBytes<float>(out_elems), last[ui], &NodeBufs::f);
        if (rtIsCompute(ns.op)) {
            const int nops = numOperands(ns.op);
            outSlotShape_[static_cast<size_t>(nd.outSlot)] = ns.outShape;
            for (int j = 0; j < nops; ++j)
                if (nd.in[j].slot >= 0)
                    inSlotShape_[static_cast<size_t>(nd.in[j].slot)] =
                        inShape(j);
            if (nd.emitSlot >= 0)
                inSlotShape_[static_cast<size_t>(nd.emitSlot)] = ns.outShape;
            // QuantDirect has no state: operand codes and accumulators
            // are transients there (an accumulator lives until its
            // junction consumer has folded it).
            for (int j = 0; j < nops; ++j)
                if (nd.in[j].producer < 0)
                    plans[kPlanDirect].push_back(
                        {lineBytes<int8_t>(inShape(j).numel()), i, i,
                         &nd.bufs[kPlanDirect].op[j]});
            ask(kPlanDirect, lineBytes<int32_t>(out_elems), acc_end[ui],
                &NodeBufs::acc);
            // The Ditto passes keep those in the state, and add the
            // difference-only transients.
            if (nd.junction)
                ask(kPlanDitto, lineBytes<int16_t>(inShape(0).numel()), i,
                    &NodeBufs::opD16);
            if (ns.op == RtOp::Conv2d || nops == 2)
                ask(kPlanDitto, lineBytes<int32_t>(out_elems), i,
                    &NodeBufs::delta);
            if (nd.fLive) {
                has_f[ui] = 1;
                askQuant(lineBytes<float>(out_elems), last[ui], &NodeBufs::f);
            }
            if (nd.emitPayload) {
                has_payload[ui] = 1;
                ask(kPlanDirect, lineBytes<int8_t>(out_elems), last[ui],
                    &NodeBufs::codes);
                ask(kPlanDitto, lineBytes<int16_t>(out_elems), last[ui],
                    &NodeBufs::d16);
            }
        } else if (rtIsReshape(ns.op)) {
            const auto src = static_cast<size_t>(ns.inputs[0]);
            if (nd.fLive && has_f[src]) {
                has_f[ui] = 1;
                askQuant(lineBytes<float>(out_elems), last[ui], &NodeBufs::f);
            }
            if (has_payload[src]) {
                has_payload[ui] = 1;
                askQuant(lineBytes<int8_t>(out_elems), last[ui],
                         &NodeBufs::codes);
                ask(kPlanDitto, lineBytes<int16_t>(out_elems), last[ui],
                    &NodeBufs::d16);
            }
        } else if (!nd.skipExec) {
            has_f[ui] = 1;
            askQuant(lineBytes<float>(out_elems), last[ui], &NodeBufs::f);
        }
    }
    DITTO_ASSERT(has_f[static_cast<size_t>(n - 1)],
                 "output node must materialize full values");
    for (std::vector<BufRequest> &plan : plans)
        arenaSlabBytes_ = std::max(arenaSlabBytes_, layOut(plan));
}

namespace {

/** Digest of a scale vector's exact float bit patterns. */
uint64_t
scalesDigest(const std::vector<float> &scales)
{
    uint64_t h = hashMix(0xD16E'57CA, scales.size());
    for (float s : scales) {
        uint32_t bits;
        std::memcpy(&bits, &s, sizeof(bits));
        h = hashMix(h, bits);
    }
    return h;
}

} // namespace

void
CompiledModel::calibrate()
{
    // Offline calibration: FP32 rollout, max-abs at every quantization
    // point across all steps, 10% safety margin (Q-Diffusion style).
    std::vector<float> maxabs(static_cast<size_t>(spec_.numScales), 0.0f);
    const Fp32Observer obs = [&maxabs](int idx, const float *t, int64_t n) {
        float m = maxabs[static_cast<size_t>(idx)];
        for (int64_t i = 0; i < n; ++i)
            m = std::max(m, std::fabs(t[i]));
        maxabs[static_cast<size_t>(idx)] = m;
    };
    FloatTensor x = noiseInit_;
    {
        WorkspaceLease ws;
        for (int t = 0; t < spec_.steps; ++t) {
            float *eps = const_cast<float *>(
                forwardFp32(x.data().data(), *ws, &obs));
            applyUpdate(x.data().data(), eps, x.numel());
        }
    }
    kernels::releaseFloatScratch();
    actScale_.resize(static_cast<size_t>(spec_.numScales));
    for (int i = 0; i < spec_.numScales; ++i)
        actScale_[static_cast<size_t>(i)] =
            std::max(maxabs[static_cast<size_t>(i)], 1e-6f) * 1.1f /
            127.0f;
    calibDigest_ = scalesDigest(actScale_);
}

CompiledModel
compile(const ModelSpec &spec, const CompileOptions &opts)
{
    DITTO_ASSERT(!spec.nodes.empty(), "cannot compile an empty spec");
    DITTO_ASSERT(spec.inputShape.rank() == 4,
                 "spec input must be an NCHW map");
    CompiledModel m;
    m.spec_ = spec;
    m.opts_ = opts;

    std::vector<int> n2l;
    m.graph_ = spec.toGraph(&n2l);
    m.deps_ = m.graph_.analyzeDependencies();
    m.macsPerStep_ = m.graph_.totalMacs();

    // The weight program: one deterministic stream, fan-in-scaled
    // weights first, then constant contexts, then the initial noise
    // (the phase order WeightSpec documents).
    Rng rng = Rng::fromKeys(spec.seed, 0x11B5);
    std::vector<FloatTensor> wF(spec.weights.size());
    for (size_t i = 0; i < spec.weights.size(); ++i)
        if (spec.weights[i].fanIn > 0)
            wF[i] = randomWeight(rng, spec.weights[i].shape,
                                 spec.weights[i].fanIn);
    for (size_t i = 0; i < spec.weights.size(); ++i)
        if (spec.weights[i].fanIn == 0) {
            wF[i] = FloatTensor(spec.weights[i].shape);
            wF[i].fillNormal(rng, 0.0, 1.0);
        }
    m.noiseInit_ = FloatTensor(spec.inputShape);
    m.noiseInit_.fillNormal(rng, 0.0, 1.0);

    // Engines.
    m.nodes_.reserve(spec.nodes.size());
    for (const NodeSpec &ns : spec.nodes) {
        CompiledModel::Node nd;
        nd.spec = ns;
        nd.layer = n2l[static_cast<size_t>(ns.id)];
        switch (ns.op) {
          case RtOp::Conv2d: {
            QuantW q = quantW(wF[static_cast<size_t>(ns.weight)]);
            nd.conv.emplace(std::move(q.codes), ns.conv);
            nd.wScale = q.scale;
            nd.wF = wF[static_cast<size_t>(ns.weight)];
            break;
          }
          case RtOp::Fc: {
            QuantW q = quantW(wF[static_cast<size_t>(ns.weight)]);
            nd.fc.emplace(std::move(q.codes));
            nd.wScale = q.scale;
            nd.wF = wF[static_cast<size_t>(ns.weight)];
            break;
          }
          case RtOp::CrossScores: {
            // K' = context x W^T is constant across steps: a weight
            // from the hardware's point of view (computed in FP32 and
            // quantized per-tensor, exactly like the legacy model), so
            // Q' K'^T is weight-stationary with K' as the weight.
            nd.constF = fullyConnected(
                wF[static_cast<size_t>(ns.context)],
                wF[static_cast<size_t>(ns.weight)], nullptr);
            QuantW q = quantW(nd.constF);
            nd.fc.emplace(std::move(q.codes));
            nd.wScale = q.scale;
            break;
          }
          case RtOp::CrossOutput: {
            // P' x V' with constant V' is weight-stationary with V'^T
            // as the weight: O = P' V' = P' (V'^T)^T.
            nd.constF = fullyConnected(
                wF[static_cast<size_t>(ns.context)],
                wF[static_cast<size_t>(ns.weight)], nullptr);
            QuantW q = quantW(nd.constF);
            nd.fc.emplace(transposeInt8(q.codes));
            nd.wScale = q.scale;
            break;
          }
          default:
            break;
        }
        m.nodes_.push_back(std::move(nd));
    }

    // Dependency-driven state flow, three passes:
    //
    //  A. single-producer hand-over: an operand reached from one
    //     compute producer through reshape-only single-consumer wire
    //     consumes that producer's requantized code difference —
    //     weight-stationary operands (the PR4 mechanism) and, new,
    //     each dynamic-attention operand independently.
    //  B. junction folds: a weight-stationary operand fed by an
    //     Add/Concat subtree of compute producers (optionally behind
    //     one Upsample2x/AvgPool2x hop) gets a JunctionPlan — the
    //     multi-producer requant-delta replaces the full-value round
    //     trip through the junction.
    //  C. f-liveness: a node materializes float output only if some
    //     executed consumer reads it; plan-covered structural nodes
    //     never execute at all.
    if (opts.useDependencyAnalysis) {
        std::vector<int> consumers(spec.nodes.size(), 0);
        for (const NodeSpec &ns : spec.nodes)
            for (int in : ns.inputs)
                ++consumers[static_cast<size_t>(in)];

        // Reshape-only single-consumer wire to a single compute
        // producer; -1 when the wire is anything else.
        auto traceProducer = [&](int start) -> int {
            int p = start;
            while (rtIsReshape(spec.nodes[static_cast<size_t>(p)].op)) {
                if (consumers[static_cast<size_t>(p)] != 1)
                    return -1;
                p = spec.nodes[static_cast<size_t>(p)].inputs[0];
            }
            if (!rtIsCompute(spec.nodes[static_cast<size_t>(p)].op) ||
                consumers[static_cast<size_t>(p)] != 1)
                return -1;
            return p;
        };

        // Pass A.
        for (const NodeSpec &ns : spec.nodes) {
            if (!rtIsCompute(ns.op))
                continue;
            const int nops = numOperands(ns.op);
            const int layer = n2l[static_cast<size_t>(ns.id)];
            // Weight-stationary operands follow the layer verdict; an
            // attention node's verdict is a property of both operands
            // together, so its operands qualify individually by the
            // wire walk alone (the walk only ever lands on a compute
            // producer, which is exactly the diff-domain condition).
            if (nops == 1 &&
                m.deps_[static_cast<size_t>(layer)].diffCalcNeeded)
                continue;
            for (int j = 0; j < nops; ++j) {
                const int p = traceProducer(
                    ns.inputs[static_cast<size_t>(j)]);
                if (p < 0)
                    continue;
                CompiledModel::Node &prod =
                    m.nodes_[static_cast<size_t>(p)];
                if (prod.emitPayload)
                    continue; // one payload target per producer
                prod.emitPayload = true;
                prod.emitScale = operandScale(ns, j);
                m.nodes_[static_cast<size_t>(ns.id)].in[j].producer = p;
                ++m.numBypass_;
            }
        }

        // Pass B. Flatten a left-leaning Add chain of compute leaves
        // into a source list; the left-associated runtime sum then
        // reproduces the dense float adds term for term.
        auto flattenAdd = [&](int id, std::vector<int> *out,
                              auto &&self) -> bool {
            const NodeSpec &n = spec.nodes[static_cast<size_t>(id)];
            if (rtIsCompute(n.op)) {
                out->push_back(id);
                return true;
            }
            if (n.op != RtOp::Add)
                return false;
            if (!self(n.inputs[0], out, self))
                return false;
            const NodeSpec &r =
                spec.nodes[static_cast<size_t>(n.inputs[1])];
            if (!rtIsCompute(r.op))
                return false; // right-leaning adds would re-associate
            out->push_back(r.id);
            return true;
        };
        auto buildRegions = [&](int id,
                                std::vector<CompiledModel::JunctionRegion>
                                    *regs,
                                auto &&self) -> bool {
            const NodeSpec &n = spec.nodes[static_cast<size_t>(id)];
            if (n.op == RtOp::Concat)
                return self(n.inputs[0], regs, self) &&
                       self(n.inputs[1], regs, self);
            CompiledModel::JunctionRegion r;
            if (n.op == RtOp::Upsample2x || n.op == RtOp::AvgPool2x) {
                const NodeSpec &c =
                    spec.nodes[static_cast<size_t>(n.inputs[0])];
                if (c.outShape.rank() != 4 || c.outShape[0] != 1)
                    return false;
                if (!flattenAdd(c.id, &r.sources, flattenAdd))
                    return false;
                r.transform =
                    n.op == RtOp::Upsample2x
                        ? CompiledModel::JunctionRegion::Transform::
                              Upsample2x
                        : CompiledModel::JunctionRegion::Transform::
                              AvgPool2x;
                r.c = c.outShape[1];
                r.h = c.outShape[2];
                r.w = c.outShape[3];
                r.srcElems = c.outShape.numel();
                r.outElems = n.op == RtOp::Upsample2x
                                 ? r.srcElems * 4
                                 : r.srcElems / 4;
            } else {
                // Add chain or (inside a Concat) a lone compute leaf —
                // the top-level operand is never a bare leaf (that is
                // the single-producer pass-A case, gated by op kind).
                if (!flattenAdd(id, &r.sources, flattenAdd))
                    return false;
                r.srcElems = n.outShape.numel();
                r.outElems = r.srcElems;
            }
            regs->push_back(std::move(r));
            return true;
        };
        for (const NodeSpec &ns : spec.nodes) {
            if (!rtIsCompute(ns.op) || numOperands(ns.op) != 1)
                continue;
            CompiledModel::Node &nd =
                m.nodes_[static_cast<size_t>(ns.id)];
            if (!nd.in[0].stored())
                continue;
            const int layer = n2l[static_cast<size_t>(ns.id)];
            if (m.deps_[static_cast<size_t>(layer)].diffCalcNeeded)
                continue;
            const NodeSpec &in0 =
                spec.nodes[static_cast<size_t>(ns.inputs[0])];
            if (in0.op != RtOp::Add && in0.op != RtOp::Concat &&
                in0.op != RtOp::Upsample2x && in0.op != RtOp::AvgPool2x)
                continue;
            CompiledModel::JunctionPlan plan;
            if (!buildRegions(in0.id, &plan.regions, buildRegions))
                continue;
            int64_t off = 0;
            for (CompiledModel::JunctionRegion &r : plan.regions) {
                r.outOffset = off;
                off += r.outElems;
            }
            plan.slabElems = off;
            DITTO_ASSERT(off == in0.outShape.numel(),
                         "junction plan does not tile the operand");
            nd.junction = std::move(plan);
            nd.in[0].folded = true;
            ++m.numBypass_;
        }
        DITTO_ASSERT(!m.nodes_.back().emitPayload,
                     "the output node cannot hand its output over");
    }

    // Pass C: f-liveness, walked against topological order so every
    // node's own liveness is final before its inputs are marked. The
    // output node is live by definition; a consumer marks an input
    // live exactly when its executed form reads that input's float
    // value. With the analysis off nothing is bypassed and everything
    // consumed comes out live — the naive full-value dataflow.
    {
        std::vector<uint8_t> flive(spec.nodes.size(), 0);
        flive[spec.nodes.back().id] = 1;
        for (size_t i = spec.nodes.size(); i-- > 0;) {
            const NodeSpec &ns = spec.nodes[i];
            const CompiledModel::Node &nd = m.nodes_[i];
            auto need = [&](int j) {
                flive[static_cast<size_t>(
                    ns.inputs[static_cast<size_t>(j)])] = 1;
            };
            if (rtIsCompute(ns.op)) {
                // A compute node reads the float value of its stored
                // operands only.
                for (int j = 0; j < numOperands(ns.op); ++j)
                    if (nd.in[j].stored())
                        need(j);
            } else if (flive[i]) {
                // Structural / vector ops read every operand's float
                // value — but only if they execute themselves.
                for (size_t j = 0; j < ns.inputs.size(); ++j)
                    need(static_cast<int>(j));
            }
        }
        for (size_t i = 0; i < m.nodes_.size(); ++i) {
            CompiledModel::Node &nd = m.nodes_[i];
            nd.fLive = flive[i] != 0;
            const RtOp op = nd.spec.op;
            if (rtIsCompute(op)) {
                if (!nd.fLive)
                    ++m.numSumSkip_;
            } else if (!nd.fLive && op != RtOp::Input &&
                       !rtIsReshape(op)) {
                // Reshapes stay executable (they may carry a payload);
                // everything else with a dead output is plan-covered
                // junction wire and never runs.
                nd.skipExec = true;
            }
        }
    }

    // Difference-state slots: every compute node keeps its previous
    // accumulator; previous input codes only where diff-calc really
    // happens (handed-over operands hold no input state at all).
    // Payload emissions and junction folds keep their previous
    // *emitted codes* in the same int8 state pool — next step's delta
    // is a subtraction against that cache, never a float
    // recomputation of the previous step. The numbering — output
    // slot, stored operands in operand order, emission, fold — is the
    // slab wire layout (src/shard/slab_codec.h).
    for (CompiledModel::Node &nd : m.nodes_) {
        if (!rtIsCompute(nd.spec.op))
            continue;
        const int nops = numOperands(nd.spec.op);
        nd.outSlot = m.numOutSlots_++;
        for (int j = 0; j < nops; ++j)
            if (nd.in[j].stored())
                nd.in[j].slot = m.numInSlots_++;
        if (nd.emitPayload)
            nd.emitSlot = m.numInSlots_++;
        for (int j = 0; j < nops; ++j)
            if (nd.in[j].folded)
                nd.in[j].slot = m.numInSlots_++;
    }

    m.planBuffers();
    m.calibrate();
    return m;
}

} // namespace ditto
