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

#include "common/env.h"
#include "common/logging.h"
#include "common/rng.h"
#include "quant/encoder.h"
#include "tensor/ops.h"
#include "tensor/slab.h"
#include "trace/calibrate.h"

namespace ditto {

namespace {

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
Tensor<T>
toTokens(const Tensor<T> &x)
{
    DITTO_ASSERT(x.shape().rank() == 4, "expected NCHW feature maps");
    const int64_t bsz = x.shape()[0];
    const int64_t c = x.shape()[1];
    const int64_t h = x.shape()[2];
    const int64_t w = x.shape()[3];
    Tensor<T> out(Shape{bsz * h * w, c});
    for (int64_t b = 0; b < bsz; ++b)
        for (int64_t ci = 0; ci < c; ++ci)
            for (int64_t y = 0; y < h; ++y)
                for (int64_t xw = 0; xw < w; ++xw)
                    out.at((b * h + y) * w + xw, ci) = x.at(b, ci, y, xw);
    return out;
}

/** Stacked token matrix [B*H*W, C] -> stacked NCHW [B,C,H,W]. */
template <typename T>
Tensor<T>
toNchw(const Tensor<T> &t, int64_t h, int64_t w)
{
    DITTO_ASSERT(t.shape().rank() == 2 && t.shape()[0] % (h * w) == 0,
                 "token count mismatch");
    const int64_t bsz = t.shape()[0] / (h * w);
    const int64_t c = t.shape()[1];
    Tensor<T> out(Shape{bsz, c, h, w});
    for (int64_t b = 0; b < bsz; ++b)
        for (int64_t ci = 0; ci < c; ++ci)
            for (int64_t y = 0; y < h; ++y)
                for (int64_t xw = 0; xw < w; ++xw)
                    out.at(b, ci, y, xw) = t.at((b * h + y) * w + xw, ci);
    return out;
}

/** Nearest-neighbour 2x spatial upsampling of stacked NCHW maps. */
FloatTensor
upsample2xF(const FloatTensor &x)
{
    const int64_t bsz = x.shape()[0];
    const int64_t c = x.shape()[1];
    const int64_t h = x.shape()[2];
    const int64_t w = x.shape()[3];
    FloatTensor out(Shape{bsz, c, h * 2, w * 2});
    for (int64_t b = 0; b < bsz; ++b)
        for (int64_t ci = 0; ci < c; ++ci)
            for (int64_t y = 0; y < h * 2; ++y)
                for (int64_t xw = 0; xw < w * 2; ++xw)
                    out.at(b, ci, y, xw) = x.at(b, ci, y / 2, xw / 2);
    return out;
}

/** 2x2 average pooling of stacked NCHW maps. */
FloatTensor
avgPool2xF(const FloatTensor &x)
{
    const int64_t bsz = x.shape()[0];
    const int64_t c = x.shape()[1];
    const int64_t h = x.shape()[2] / 2;
    const int64_t w = x.shape()[3] / 2;
    FloatTensor out(Shape{bsz, c, h, w});
    for (int64_t b = 0; b < bsz; ++b)
        for (int64_t ci = 0; ci < c; ++ci)
            for (int64_t y = 0; y < h; ++y)
                for (int64_t xw = 0; xw < w; ++xw)
                    out.at(b, ci, y, xw) =
                        (x.at(b, ci, 2 * y, 2 * xw) +
                         x.at(b, ci, 2 * y, 2 * xw + 1) +
                         x.at(b, ci, 2 * y + 1, 2 * xw) +
                         x.at(b, ci, 2 * y + 1, 2 * xw + 1)) *
                        0.25f;
    return out;
}

/** Channel concatenation of stacked NCHW maps (per-slab). */
FloatTensor
concatChannelsF(const FloatTensor &a, const FloatTensor &b)
{
    const int64_t bsz = a.shape()[0];
    const int64_t ca = a.shape()[1];
    const int64_t cb = b.shape()[1];
    const int64_t h = a.shape()[2];
    const int64_t w = a.shape()[3];
    FloatTensor out(Shape{bsz, ca + cb, h, w});
    const int64_t plane = h * w;
    for (int64_t bb = 0; bb < bsz; ++bb) {
        std::copy(a.data().begin() + bb * ca * plane,
                  a.data().begin() + (bb + 1) * ca * plane,
                  out.data().begin() + bb * (ca + cb) * plane);
        std::copy(b.data().begin() + bb * cb * plane,
                  b.data().begin() + (bb + 1) * cb * plane,
                  out.data().begin() + (bb * (ca + cb) + ca) * plane);
    }
    return out;
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

Int8Tensor
requantCodes(const Int32Tensor &acc, float combined, const QuantParams &qp)
{
    Int8Tensor out(acc.shape());
    const float inv = 1.0f / qp.scale;
    const float lo = static_cast<float>(qp.minCode());
    const float hi = static_cast<float>(qp.maxCode());
    auto sa = acc.data();
    auto so = out.data();
    for (size_t i = 0; i < sa.size(); ++i)
        so[i] = requantOne(sa[i], combined, inv, lo, hi);
    return out;
}

/**
 * Requantize the current accumulator and emit both the codes and, for
 * primed slabs, their difference against the previous step's emission
 * (the producer-resident code cache `prev`) — the diff-calc-bypass
 * payload. `prev` is the same requantization of the previous
 * accumulator, so `d16` equals subtractInt8(codes_t, codes_prev)
 * element for element and a consumer running on it is bitwise
 * identical to one that stored the previous codes itself. Unprimed
 * slabs get codes only (their `d16` region stays zero and is never
 * read, exactly like an unprimed slab's engine state).
 */
void
requantCodesDeltaBatch(const Int32Tensor &acc, const Int8Tensor *prev,
                       float combined, const QuantParams &qp,
                       const uint8_t *primed, int64_t slabs,
                       Int8Tensor *codes, Int16Tensor *d16)
{
    *codes = Int8Tensor(acc.shape());
    *d16 = Int16Tensor(acc.shape());
    const float inv = 1.0f / qp.scale;
    const float lo = static_cast<float>(qp.minCode());
    const float hi = static_cast<float>(qp.maxCode());
    const int64_t slab_elems = acc.numel() / slabs;
    auto sa = acc.data();
    auto sc = codes->data();
    auto sd = d16->data();
    for (int64_t s = 0; s < slabs; ++s) {
        const int64_t base = s * slab_elems;
        if (primed && primed[s]) {
            DITTO_ASSERT(prev && prev->numel() == acc.numel(),
                         "primed payload slab needs its code cache");
            auto sp = prev->data();
            for (int64_t i = base; i < base + slab_elems; ++i) {
                const int8_t ct = requantOne(sa[static_cast<size_t>(i)],
                                             combined, inv, lo, hi);
                sc[static_cast<size_t>(i)] = ct;
                sd[static_cast<size_t>(i)] = static_cast<int16_t>(
                    static_cast<int16_t>(ct) -
                    static_cast<int16_t>(sp[static_cast<size_t>(i)]));
            }
        } else {
            for (int64_t i = base; i < base + slab_elems; ++i)
                sc[static_cast<size_t>(i)] = requantOne(
                    sa[static_cast<size_t>(i)], combined, inv, lo, hi);
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
copySlabRegion(const Tensor<T> &src, Tensor<T> *dst, int64_t s,
               int64_t slab_elems)
{
    std::copy(src.data().begin() + s * slab_elems,
              src.data().begin() + (s + 1) * slab_elems,
              dst->data().begin() + s * slab_elems);
}

/** Zero slab `s` of `t`. */
template <typename T>
void
zeroSlabRegion(Tensor<T> *t, int64_t s, int64_t slab_elems)
{
    std::fill(t->data().begin() + s * slab_elems,
              t->data().begin() + (s + 1) * slab_elems, T{});
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

/** The reverse-diffusion update rule: x += -0.15 * eps. */
void
applyUpdate(FloatTensor *x, const FloatTensor &eps)
{
    *x = add(*x, affine(eps, -0.15f, 0.0f));
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
CompiledModel::runJunction(const Node &nd, const std::vector<Value> &vals,
                           const std::vector<Int32Tensor> *prevOut,
                           const int8_t *prevCodes, const uint8_t *primed,
                           int64_t bsz, Int8Tensor *codes,
                           Int16Tensor *d16) const
{
    const JunctionPlan &plan = *nd.junction;
    const Shape &one =
        spec_.nodes[static_cast<size_t>(nd.spec.inputs[0])].outShape;
    const Shape stacked = one.rank() == 4
                              ? slab::withDim0(one, bsz)
                              : Shape{one[0] * bsz, one[1]};
    *codes = Int8Tensor(stacked);
    bool any_primed = false;
    for (int64_t s = 0; primed && s < bsz; ++s)
        any_primed |= primed[s] != 0;
    if (any_primed)
        *d16 = Int16Tensor(stacked); // unprimed regions stay zero
    const QuantParams qp{
        actScale_[static_cast<size_t>(nd.spec.scaleIn)], 8};

    std::vector<RequantSource> srcs;
    for (const JunctionRegion &r : plan.regions) {
        srcs.resize(r.sources.size());
        for (int64_t s = 0; s < bsz; ++s) {
            const bool sp = primed && primed[s];
            DITTO_ASSERT(!sp || prevCodes,
                         "primed junction fold needs its code cache");
            for (size_t i = 0; i < r.sources.size(); ++i) {
                const int src = r.sources[i];
                // prevOut slots hold the *current* accumulator here:
                // the producer ran earlier in this pass.
                const Int32Tensor *acc =
                    prevOut ? &(*prevOut)[static_cast<size_t>(
                                  nodes_[static_cast<size_t>(src)]
                                      .outSlot)]
                            : &vals[static_cast<size_t>(src)].acc;
                DITTO_ASSERT(acc->numel() == r.srcElems * bsz,
                             "junction source accumulator missing");
                srcs[i].acc = acc->data().data() + s * r.srcElems;
                srcs[i].scale =
                    combinedScale(nodes_[static_cast<size_t>(src)]);
            }
            const int64_t off = s * plan.slabElems + r.outOffset;
            int8_t *oc = codes->data().data() + off;
            const int8_t *pc = sp ? prevCodes + off : nullptr;
            int16_t *od = sp ? d16->data().data() + off : nullptr;
            switch (r.transform) {
              case JunctionRegion::Transform::Identity:
                requantSumDelta(srcs, r.outElems, qp, pc, oc, od);
                break;
              case JunctionRegion::Transform::Upsample2x:
                requantUpsample2xSumDelta(srcs, r.c, r.h, r.w, qp, pc,
                                          oc, od);
                break;
              case JunctionRegion::Transform::AvgPool2x:
                requantAvgPool2xSumDelta(srcs, r.c, r.h, r.w, qp, pc,
                                         oc, od);
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
        r.diffBypass = nd.diffBypass;
        r.diffBypass2 = nd.diffBypass2;
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

FloatTensor
CompiledModel::forwardFp32(
    const FloatTensor &x,
    const std::function<void(int, const FloatTensor &)> *obs) const
{
    auto observe = [&](int idx, const FloatTensor &t) {
        if (obs && *obs)
            (*obs)(idx, t);
    };
    std::vector<Value> vals(nodes_.size());
    for (const Node &nd : nodes_) {
        const NodeSpec &ns = nd.spec;
        Value &out = vals[static_cast<size_t>(ns.id)];
        auto in = [&](int j) -> const FloatTensor & {
            return vals[static_cast<size_t>(ns.inputs[static_cast<size_t>(
                            j)])]
                .f;
        };
        switch (ns.op) {
          case RtOp::Input:
            out.f = x;
            break;
          case RtOp::Conv2d:
            observe(ns.scaleIn, in(0));
            out.f = conv2d(in(0), nd.wF, nullptr, ns.conv);
            break;
          case RtOp::Fc:
            observe(ns.scaleIn, in(0));
            out.f = fullyConnected(in(0), nd.wF, nullptr);
            break;
          case RtOp::AttnScores:
            observe(ns.scaleIn, in(0));
            observe(ns.scaleIn2, in(1));
            out.f = matmulTransposed(in(0), in(1));
            break;
          case RtOp::AttnOutput:
            observe(ns.scaleIn, in(0));
            observe(ns.scaleIn2, in(1));
            out.f = matmul(in(0), in(1));
            break;
          case RtOp::CrossScores:
            observe(ns.scaleIn, in(0));
            out.f = matmulTransposed(in(0), nd.constF);
            break;
          case RtOp::CrossOutput:
            observe(ns.scaleIn, in(0));
            out.f = matmul(in(0), nd.constF);
            break;
          case RtOp::GroupNorm:
            out.f = groupNorm(in(0), ns.groups);
            break;
          case RtOp::LayerNorm:
            out.f = layerNorm(in(0));
            break;
          case RtOp::SiLU:
            out.f = silu(in(0));
            break;
          case RtOp::GeLU:
            out.f = gelu(in(0));
            break;
          case RtOp::Softmax:
            out.f = softmaxRows(in(0));
            break;
          case RtOp::Add:
            out.f = add(in(0), in(1));
            break;
          case RtOp::Affine:
            out.f = affine(in(0), ns.affineScale, ns.affineShift);
            break;
          case RtOp::Concat:
            out.f = concatChannelsF(in(0), in(1));
            break;
          case RtOp::Upsample2x:
            out.f = upsample2xF(in(0));
            break;
          case RtOp::AvgPool2x:
            out.f = avgPool2xF(in(0));
            break;
          case RtOp::NchwToTokens:
            out.f = toTokens(in(0));
            break;
          case RtOp::TokensToNchw:
            out.f = toNchw(in(0), ns.outShape[2], ns.outShape[3]);
            break;
        }
    }
    return std::move(vals.back().f);
}

void
CompiledModel::runStructural(const Node &nd, std::vector<Value> &vals,
                             const FloatTensor &x) const
{
    const NodeSpec &ns = nd.spec;
    Value &out = vals[static_cast<size_t>(ns.id)];
    auto inVal = [&](int j) -> Value & {
        return vals[static_cast<size_t>(
            ns.inputs[static_cast<size_t>(j)])];
    };
    switch (ns.op) {
      case RtOp::Input:
        out.f = x;
        break;
      case RtOp::GroupNorm:
        out.f = groupNorm(inVal(0).f, ns.groups);
        break;
      case RtOp::LayerNorm:
        out.f = layerNorm(inVal(0).f);
        break;
      case RtOp::SiLU:
        out.f = silu(inVal(0).f);
        break;
      case RtOp::GeLU:
        out.f = gelu(inVal(0).f);
        break;
      case RtOp::Softmax:
        out.f = softmaxRows(inVal(0).f);
        break;
      case RtOp::Add:
        out.f = add(inVal(0).f, inVal(1).f);
        break;
      case RtOp::Affine:
        out.f = affine(inVal(0).f, ns.affineScale, ns.affineShift);
        break;
      case RtOp::Concat:
        out.f = concatChannelsF(inVal(0).f, inVal(1).f);
        break;
      case RtOp::Upsample2x:
        out.f = upsample2xF(inVal(0).f);
        break;
      case RtOp::AvgPool2x:
        out.f = avgPool2xF(inVal(0).f);
        break;
      case RtOp::NchwToTokens: {
        Value &in = inVal(0);
        if (in.f.numel() > 0 && nd.fLive)
            out.f = toTokens(in.f);
        if (in.codes.numel() > 0)
            out.codes = toTokens(in.codes);
        if (in.d16.numel() > 0)
            out.d16 = toTokens(in.d16);
        break;
      }
      case RtOp::TokensToNchw: {
        Value &in = inVal(0);
        const int64_t h = ns.outShape[2];
        const int64_t w = ns.outShape[3];
        if (in.f.numel() > 0 && nd.fLive)
            out.f = toNchw(in.f, h, w);
        if (in.codes.numel() > 0)
            out.codes = toNchw(in.codes, h, w);
        if (in.d16.numel() > 0)
            out.d16 = toNchw(in.d16, h, w);
        break;
      }
      default:
        DITTO_PANIC("compute op in the structural interpreter");
    }
}

void
CompiledModel::nodeEpilogue(const Node &nd, Value &out, Int32Tensor &acc,
                            BatchDittoState *state, const uint8_t *primed,
                            bool any_primed, int64_t bsz,
                            Int8Tensor *emit_stash, OpCounts *counts) const
{
    const float combined = combinedScale(nd);
    if (nd.emitPayload) {
        const QuantParams eqp{
            actScale_[static_cast<size_t>(nd.emitScale)], 8};
        if (any_primed)
            requantCodesDeltaBatch(
                acc, &state->prevIn[static_cast<size_t>(nd.emitSlot)],
                combined, eqp, primed, bsz, &out.codes, &out.d16);
        else
            out.codes = requantCodes(acc, combined, eqp);
        // The emission becomes the next step's subtrahend.
        if (state) {
            Int8Tensor &cache =
                state->prevIn[static_cast<size_t>(nd.emitSlot)];
            if (emit_stash)
                emit_stash[static_cast<size_t>(nd.emitSlot)] =
                    std::move(cache);
            cache = out.codes;
        }
    }
    if (nd.fLive) {
        out.f = dequantizeAccum(acc, combined);
        for (int64_t s = 0; counts && primed && s < bsz; ++s)
            if (primed[s])
                counts[s].summationElems += acc.numel() / bsz;
    }
    if (nd.keepAcc && !state)
        out.acc = std::move(acc);
    else if (state)
        state->prevOut[static_cast<size_t>(nd.outSlot)] = std::move(acc);
}

FloatTensor
CompiledModel::forwardQuantBatch(const FloatTensor &x, bool use_ditto,
                                 bool approx, BatchDittoState *state,
                                 OpCounts *counts) const
{
    DITTO_ASSERT(x.shape().rank() == 4, "batched input must be NCHW");
    const int64_t bsz = x.shape()[0];
    DITTO_ASSERT(!use_ditto || state != nullptr,
                 "Ditto mode needs persistent batch state");
    DITTO_ASSERT(!use_ditto || state->batch() == bsz,
                 "batch state size mismatch");
    DITTO_ASSERT(!approx || use_ditto,
                 "ApproxDitto runs on the Ditto state machinery");
    if (use_ditto && state->prevIn.empty()) {
        state->prevIn.resize(static_cast<size_t>(numInSlots_));
        state->prevOut.resize(static_cast<size_t>(numOutSlots_));
    }
    const uint8_t *primed = use_ditto ? state->primed.data() : nullptr;
    bool have_primed = false;
    for (int64_t s = 0; primed && s < bsz; ++s)
        have_primed |= primed[s] != 0;

    // ApproxDitto bookkeeping: per-slab enables (the serving layer
    // mixes exact and approx requests in one batch; exact slabs are
    // never skipped) and [slab][node] skip counters.
    const size_t nnodes = nodes_.size();
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
    // Skips are only legal on primed steps (there is a cached output
    // to replay). The stash holds every emitting producer's pre-update
    // code cache so a skipping consumer can roll it back.
    std::vector<Int8Tensor> emit_stash(
        any_approx ? static_cast<size_t>(numInSlots_) : 0);
    Int8Tensor *stash = any_approx ? emit_stash.data() : nullptr;

    // Previous-state slot pointer, or null while not materialized (the
    // engines only dereference state for primed slabs).
    auto prevIn = [&](int slot) -> const Int8Tensor * {
        return use_ditto &&
                       state->prevIn[static_cast<size_t>(slot)].numel() > 0
                   ? &state->prevIn[static_cast<size_t>(slot)]
                   : nullptr;
    };
    auto prevOut = [&](int slot) -> const Int32Tensor * {
        return use_ditto &&
                       state->prevOut[static_cast<size_t>(slot)].numel() >
                           0
                   ? &state->prevOut[static_cast<size_t>(slot)]
                   : nullptr;
    };

    // ApproxDitto per-slab skip decisions for one node: `stable(s)`
    // probes slab s's operand difference(s) and is consulted only
    // while the slab's consecutive-skip run is under the cap.
    struct Skips
    {
        std::vector<uint8_t> slab;
        bool any = false;
        bool all = false;
    };
    auto decideSkips = [&](int node, auto &&stable) {
        Skips sk;
        if (!any_approx)
            return sk;
        sk.slab.assign(static_cast<size_t>(bsz), 0);
        sk.all = true;
        for (int64_t s = 0; s < bsz; ++s) {
            bool skip = false;
            if (slabApprox(s)) {
                const size_t at =
                    static_cast<size_t>(s) * nnodes + static_cast<size_t>(node);
                int32_t &consec = state->consec[at];
                skip = consec < approxCap_ && stable(s);
                if (skip) {
                    ++consec;
                    ++state->skips[at];
                } else {
                    consec = 0;
                }
            }
            sk.slab[static_cast<size_t>(s)] = skip;
            sk.any |= skip;
            sk.all &= skip;
        }
        return sk;
    };
    auto isSkipped = [](const Skips &sk, int64_t s) {
        return sk.any && sk.slab[static_cast<size_t>(s)];
    };

    // A partly skipped batch still runs its skipped slabs through the
    // engine, over a zeroed difference region. Those slabs' tallies
    // are dropped, so a request reports exactly what a sequential skip
    // reports (no probe, no diff-calc) whatever its batch-mates do.
    std::vector<OpCounts> tally;
    auto engineCounts = [&](const Skips &sk) -> OpCounts * {
        if (!counts || !sk.any)
            return counts;
        tally.assign(static_cast<size_t>(bsz), OpCounts{});
        return tally.data();
    };
    auto settleCounts = [&](const Skips &sk, OpCounts *eng,
                            int64_t diff_calc_per_slab) {
        for (int64_t s = 0; counts && primed && s < bsz; ++s) {
            if (!primed[s] || isSkipped(sk, s))
                continue;
            if (eng != counts)
                counts[s].merge(tally[static_cast<size_t>(s)]);
            counts[s].diffCalcElems += diff_calc_per_slab;
        }
    };

    std::vector<Value> vals(nnodes);
    for (const Node &nd : nodes_) {
        const NodeSpec &ns = nd.spec;
        Value &out = vals[static_cast<size_t>(ns.id)];
        auto inVal = [&](int j) -> Value & {
            return vals[static_cast<size_t>(
                ns.inputs[static_cast<size_t>(j)])];
        };

        // Weight-stationary compute: one engine, one dynamic operand.
        if (ns.op == RtOp::Conv2d || ns.op == RtOp::Fc ||
            ns.op == RtOp::CrossScores || ns.op == RtOp::CrossOutput) {
            Value &in = inVal(0);
            const QuantParams qp{
                actScale_[static_cast<size_t>(ns.scaleIn)], 8};
            // The operand arrives pre-quantized in this node's code
            // domain from a junction fold or a single-producer
            // payload; everyone else quantizes the float input.
            Int8Tensor codes;
            Int16Tensor jd16;
            const Int16Tensor *dptr = nullptr;
            if (nd.junction) {
                runJunction(nd, vals,
                            use_ditto ? &state->prevOut : nullptr,
                            have_primed
                                ? state
                                      ->prevIn[static_cast<size_t>(
                                          nd.jSlot)]
                                      .data()
                                      .data()
                                : nullptr,
                            primed, bsz, &codes, &jd16);
                if (have_primed)
                    dptr = &jd16;
            } else if (nd.diffBypass) {
                DITTO_ASSERT(in.codes.numel() > 0,
                             "bypass payload missing codes");
                codes = std::move(in.codes);
                if (have_primed) {
                    DITTO_ASSERT(in.d16.numel() > 0,
                                 "bypass payload missing difference");
                    jd16 = std::move(in.d16);
                    dptr = &jd16;
                }
            } else {
                codes = quantize(in.f, qp);
            }

            // ApproxDitto: probe each approx slab's temporal difference
            // — a handed-over delta, a junction fold's delta, or the
            // stored previous codes — and skip it when stable enough.
            const int64_t in_elems = codes.numel() / bsz;
            const Skips sk = decideSkips(ns.id, [&](int64_t s) {
                const DiffClassCounts pc =
                    dptr ? countDiffClasses(*dptr, s * in_elems, in_elems)
                         : countTemporalDiffClasses(
                               codes,
                               state->prevIn[static_cast<size_t>(
                                   nd.inSlot)],
                               s * in_elems, in_elems);
                return approxActivity(pc) <= approxThresh_;
            });
            // A skipped slab replays its cached output and freezes its
            // difference reference to the operand that output
            // corresponds to, so the next executed step's delta
            // telescopes across the skipped one exactly (out = prevOut
            // + W(x_{t+1} - x_{t-1})). Its difference region is forced
            // to zero (and its frozen codes re-stored), which makes the
            // batched engines reproduce the replay bitwise — out =
            // prevOut + W*0 — while non-skipped slabs run unchanged.
            for (int64_t s = 0; sk.any && s < bsz; ++s) {
                if (!isSkipped(sk, s))
                    continue;
                if (nd.junction) {
                    copySlabRegion(
                        state->prevIn[static_cast<size_t>(nd.jSlot)],
                        &codes, s, in_elems);
                    zeroSlabRegion(&jd16, s, in_elems);
                } else if (nd.diffBypass) {
                    zeroSlabRegion(&jd16, s, in_elems);
                    const Node &prod =
                        nodes_[static_cast<size_t>(nd.srcProducer)];
                    copySlabRegion(
                        emit_stash[static_cast<size_t>(prod.emitSlot)],
                        &state->prevIn[static_cast<size_t>(prod.emitSlot)],
                        s, in_elems);
                } else {
                    copySlabRegion(
                        state->prevIn[static_cast<size_t>(nd.inSlot)],
                        &codes, s, in_elems);
                }
                if (counts)
                    counts[s].reusedElems += ns.outShape.numel();
            }

            // When every slab skips, the engine call is bypassed
            // entirely. A hand-over or fold with no slab primed yet has
            // no difference and needs none: every slab runs direct.
            Int32Tensor acc;
            OpCounts *eng = engineCounts(sk);
            const bool stored = !nd.diffBypass && !nd.junction;
            const Int8Tensor *pin = stored ? prevIn(nd.inSlot) : nullptr;
            const Int32Tensor *pout = prevOut(nd.outSlot);
            if (sk.all) {
                acc = *prevOut(nd.outSlot);
            } else if (dptr) {
                if (nd.conv)
                    acc = nd.conv->runBatchPre(codes, *dptr, pout, primed,
                                               eng, opts_.policy);
                else if (nd.cross)
                    acc = nd.cross->runBatchPre(codes, *dptr, bsz, pout,
                                                primed, eng, opts_.policy);
                else
                    acc = nd.fc->runBatchPre(codes, *dptr, bsz, pout,
                                             primed, eng, opts_.policy);
            } else {
                if (nd.conv)
                    acc = nd.conv->runBatch(codes, pin, pout, primed, eng,
                                            opts_.policy);
                else if (nd.cross)
                    acc = nd.cross->runBatch(codes, bsz, pin, pout, primed,
                                             eng, opts_.policy);
                else
                    acc = nd.fc->runBatch(codes, bsz, pin, pout, primed,
                                          eng, opts_.policy);
            }
            if (!sk.all)
                settleCounts(sk, eng, stored ? in_elems : 0);

            nodeEpilogue(nd, out, acc, state, primed, have_primed, bsz,
                         stash, counts);
            if (use_ditto && nd.inSlot >= 0)
                state->prevIn[static_cast<size_t>(nd.inSlot)] =
                    std::move(codes);
            else if (use_ditto && nd.junction)
                state->prevIn[static_cast<size_t>(nd.jSlot)] =
                    std::move(codes);
            continue;
        }

        // Dynamic-dynamic attention: two operands, two-term expansion,
        // either operand possibly handed over by its producer.
        if (ns.op == RtOp::AttnScores || ns.op == RtOp::AttnOutput) {
            Value &av = inVal(0);
            Value &bv = inVal(1);
            const QuantParams qpa{
                actScale_[static_cast<size_t>(ns.scaleIn)], 8};
            const QuantParams qpb{
                actScale_[static_cast<size_t>(ns.scaleIn2)], 8};
            Int8Tensor a_codes, b_codes;
            if (nd.diffBypass) {
                DITTO_ASSERT(av.codes.numel() > 0,
                             "operand payload missing codes");
                a_codes = std::move(av.codes);
            } else {
                a_codes = quantize(av.f, qpa);
            }
            if (nd.diffBypass2) {
                DITTO_ASSERT(bv.codes.numel() > 0,
                             "operand payload missing codes");
                b_codes = std::move(bv.codes);
            } else {
                b_codes = quantize(bv.f, qpb);
            }

            // ApproxDitto is all-or-nothing per slab across both
            // operands (every expansion term carries a difference
            // factor of one operand or the other), so zeroing a skipped
            // slab's difference regions makes the batched engine
            // reproduce the replay bitwise for it.
            const int64_t a_elems = a_codes.numel() / bsz;
            const int64_t b_elems = b_codes.numel() / bsz;
            const Skips sk = decideSkips(ns.id, [&](int64_t s) {
                auto stableOperand = [&](bool bypass, const Int16Tensor &d,
                                         const Int8Tensor &codes, int slot,
                                         int64_t elems) {
                    const DiffClassCounts c =
                        bypass ? countDiffClasses(d, s * elems, elems)
                               : countTemporalDiffClasses(
                                     codes,
                                     state->prevIn[static_cast<size_t>(
                                         slot)],
                                     s * elems, elems);
                    return approxActivity(c) <= approxThresh_;
                };
                return stableOperand(nd.diffBypass, av.d16, a_codes,
                                     nd.inSlot, a_elems) &&
                       stableOperand(nd.diffBypass2, bv.d16, b_codes,
                                     nd.inSlot2, b_elems);
            });
            for (int64_t s = 0; sk.any && s < bsz; ++s) {
                if (!isSkipped(sk, s))
                    continue;
                auto freeze = [&](bool bypass, Int16Tensor *d,
                                  Int8Tensor *codes, int src, int slot,
                                  int64_t elems) {
                    if (bypass) {
                        zeroSlabRegion(d, s, elems);
                        const Node &prod =
                            nodes_[static_cast<size_t>(src)];
                        copySlabRegion(
                            emit_stash[static_cast<size_t>(prod.emitSlot)],
                            &state->prevIn[static_cast<size_t>(
                                prod.emitSlot)],
                            s, elems);
                    } else {
                        copySlabRegion(
                            state->prevIn[static_cast<size_t>(slot)],
                            codes, s, elems);
                    }
                };
                freeze(nd.diffBypass, &av.d16, &a_codes, nd.srcProducer,
                       nd.inSlot, a_elems);
                freeze(nd.diffBypass2, &bv.d16, &b_codes, nd.srcProducer2,
                       nd.inSlot2, b_elems);
                if (counts)
                    counts[s].reusedElems += ns.outShape.numel();
            }

            Int32Tensor acc;
            OpCounts *eng = engineCounts(sk);
            const bool scores = ns.op == RtOp::AttnScores;
            if (sk.all) {
                acc = *prevOut(nd.outSlot);
            } else if (have_primed) {
                DITTO_ASSERT(!nd.diffBypass || av.d16.numel() > 0,
                             "operand payload missing difference");
                DITTO_ASSERT(!nd.diffBypass2 || bv.d16.numel() > 0,
                             "operand payload missing difference");
                const Int16Tensor *da = nd.diffBypass ? &av.d16 : nullptr;
                const Int8Tensor *pa =
                    nd.diffBypass ? nullptr : prevIn(nd.inSlot);
                const Int16Tensor *db =
                    nd.diffBypass2 ? &bv.d16 : nullptr;
                const Int8Tensor *pb =
                    nd.diffBypass2 ? nullptr : prevIn(nd.inSlot2);
                acc = scores ? attentionScoresBatchPre(
                                   a_codes, da, pa, b_codes, db, pb, bsz,
                                   prevOut(nd.outSlot), primed, eng,
                                   opts_.policy)
                             : attentionOutputBatchPre(
                                   a_codes, da, pa, b_codes, db, pb, bsz,
                                   prevOut(nd.outSlot), primed, eng,
                                   opts_.policy);
                settleCounts(sk, eng,
                             (pa ? a_elems : 0) + (pb ? b_elems : 0));
            } else {
                acc = scores ? attentionScoresBatch(a_codes, b_codes, bsz,
                                                    nullptr, nullptr,
                                                    nullptr, primed, eng,
                                                    opts_.policy)
                             : attentionOutputBatch(a_codes, b_codes, bsz,
                                                    nullptr, nullptr,
                                                    nullptr, primed, eng,
                                                    opts_.policy);
            }

            nodeEpilogue(nd, out, acc, state, primed, have_primed, bsz,
                         stash, counts);
            if (use_ditto && nd.inSlot >= 0)
                state->prevIn[static_cast<size_t>(nd.inSlot)] =
                    std::move(a_codes);
            if (use_ditto && nd.inSlot2 >= 0)
                state->prevIn[static_cast<size_t>(nd.inSlot2)] =
                    std::move(b_codes);
            continue;
        }

        // Vector / structural ops on full values; reshapes also carry
        // the bypass payload through unchanged (element bijections).
        // Plan-covered junction subtrees never execute.
        if (!nd.skipExec)
            runStructural(nd, vals, x);
    }
    if (use_ditto)
        std::fill(state->primed.begin(), state->primed.end(), 1);
    DITTO_ASSERT(vals.back().f.numel() > 0,
                 "output node must materialize full values");
    return std::move(vals.back().f);
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

FloatTensor
CompiledModel::forwardBatch(const FloatTensor &x, RunMode mode,
                            BatchDittoState *state, OpCounts *counts) const
{
    const Shape &want = spec_.inputShape;
    if (x.shape().rank() != 4 || x.shape()[1] != want[1] ||
        x.shape()[2] != want[2] || x.shape()[3] != want[3])
        DITTO_FATAL("forwardBatch: tensor shape "
                    << x.shape().toString()
                    << " does not stack model inputs "
                    << want.toString() << " of spec '" << spec_.name
                    << "'");
    switch (mode) {
      case RunMode::Fp32: {
        // FP32 has no quantized state to batch; run per slab.
        const int64_t bsz = x.shape()[0];
        const int64_t slab = want.numel();
        FloatTensor out(x.shape());
        for (int64_t b = 0; b < bsz; ++b) {
            FloatTensor one(want);
            std::copy(x.data().begin() + b * slab,
                      x.data().begin() + (b + 1) * slab,
                      one.data().begin());
            const FloatTensor eps = forwardFp32(one, nullptr);
            std::copy(eps.data().begin(), eps.data().end(),
                      out.data().begin() + b * slab);
        }
        return out;
      }
      case RunMode::QuantDirect:
        return forwardQuantBatch(x, /*use_ditto=*/false,
                                 /*approx=*/false, nullptr, nullptr);
      case RunMode::QuantDitto:
        return forwardQuantBatch(x, /*use_ditto=*/true,
                                 /*approx=*/false, state, counts);
      case RunMode::ApproxDitto:
        return forwardQuantBatch(x, /*use_ditto=*/true,
                                 /*approx=*/true, state, counts);
    }
    DITTO_PANIC("unknown RunMode");
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
    DittoState state;
    state.appendSlab();
    state.approx[0] = mode == RunMode::ApproxDitto;
    result.finalImage = noise;
    runSteps(&result.finalImage, mode, &state, &result.dittoOps,
             steps == 0 ? spec_.steps : steps, obs);
    result.totalMacsPerStep = macsPerStep_;
    if (mode == RunMode::ApproxDitto)
        result.nodeSkips = state.skips.empty()
                               ? std::vector<int64_t>(nodes_.size(), 0)
                               : state.skips;
    return result;
}

void
CompiledModel::runSteps(FloatTensor *x, RunMode mode,
                        BatchDittoState *state, OpCounts *counts, int steps,
                        const StepObserver &obs) const
{
    DITTO_ASSERT(!obs || state, "a step observer needs the step state");
    for (int t = 0; t < steps; ++t) {
        applyUpdate(x, forwardBatch(*x, mode, state, counts));
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
    // Keyed on the spec content hash: two structurally identical specs
    // share the entry, any geometry/seed/steps change misses. The salt
    // versions the runtime calibration algorithm itself.
    uint64_t key = hashMix(0xC0D1'770A, 1);
    key = hashMix(key, spec_.hash());
    key = hashMix(key, static_cast<uint64_t>(spec_.numScales));
    if (loadCachedScales(key, static_cast<size_t>(spec_.numScales),
                         &actScale_)) {
        calibDigest_ = scalesDigest(actScale_);
        return;
    }

    // Offline calibration: FP32 rollout, max-abs at every quantization
    // point across all steps, 10% safety margin (Q-Diffusion style).
    std::vector<float> maxabs(static_cast<size_t>(spec_.numScales), 0.0f);
    const std::function<void(int, const FloatTensor &)> obs =
        [&maxabs](int idx, const FloatTensor &t) {
            float m = maxabs[static_cast<size_t>(idx)];
            for (float v : t.data())
                m = std::max(m, std::fabs(v));
            maxabs[static_cast<size_t>(idx)] = m;
        };
    FloatTensor x = noiseInit_;
    for (int t = 0; t < spec_.steps; ++t)
        applyUpdate(&x, forwardFp32(x, &obs));
    actScale_.resize(static_cast<size_t>(spec_.numScales));
    for (int i = 0; i < spec_.numScales; ++i)
        actScale_[static_cast<size_t>(i)] =
            std::max(maxabs[static_cast<size_t>(i)], 1e-6f) * 1.1f /
            127.0f;
    storeCachedScales(key, actScale_);
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

    // ApproxDitto skip policy: explicit options win, otherwise the
    // environment knobs (docs/approx_reuse.md). Resolved once here so
    // every forward of this model sees one consistent policy.
    m.approxThresh_ =
        opts.approxSkipThresh >= 0.0
            ? std::clamp(opts.approxSkipThresh, 0.0, 1.0)
            : env::readDouble("DITTO_APPROX_SKIP_THRESH", 0.5, 0.0,
                              1.0);
    m.approxCap_ =
        opts.approxMaxConsec > 0
            ? opts.approxMaxConsec
            : static_cast<int>(env::readInt64("DITTO_APPROX_MAX_CONSEC",
                                              3, 1, 4096));

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
            // quantized per-tensor, exactly like the legacy model).
            nd.constF = fullyConnected(
                wF[static_cast<size_t>(ns.context)],
                wF[static_cast<size_t>(ns.weight)], nullptr);
            QuantW q = quantW(nd.constF);
            nd.cross.emplace(std::move(q.codes));
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
            const bool ws = ns.op == RtOp::Conv2d || ns.op == RtOp::Fc ||
                            ns.op == RtOp::CrossScores ||
                            ns.op == RtOp::CrossOutput;
            const bool attn = ns.op == RtOp::AttnScores ||
                              ns.op == RtOp::AttnOutput;
            if (!ws && !attn)
                continue;
            const int layer = n2l[static_cast<size_t>(ns.id)];
            // Weight-stationary operands follow the layer verdict; an
            // attention node's verdict is a property of both operands
            // together, so its operands qualify individually by the
            // wire walk alone (the walk only ever lands on a compute
            // producer, which is exactly the diff-domain condition).
            if (ws &&
                m.deps_[static_cast<size_t>(layer)].diffCalcNeeded)
                continue;
            const int nops = attn ? 2 : 1;
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
                prod.emitScale = j == 0 ? ns.scaleIn : ns.scaleIn2;
                if (j == 0) {
                    m.nodes_[static_cast<size_t>(ns.id)].diffBypass =
                        true;
                    m.nodes_[static_cast<size_t>(ns.id)].srcProducer = p;
                } else {
                    m.nodes_[static_cast<size_t>(ns.id)].diffBypass2 =
                        true;
                    m.nodes_[static_cast<size_t>(ns.id)].srcProducer2 =
                        p;
                }
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
            if (ns.op != RtOp::Conv2d && ns.op != RtOp::Fc &&
                ns.op != RtOp::CrossScores && ns.op != RtOp::CrossOutput)
                continue;
            CompiledModel::Node &nd =
                m.nodes_[static_cast<size_t>(ns.id)];
            if (nd.diffBypass)
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
            for (const CompiledModel::JunctionRegion &r : plan.regions)
                for (int src : r.sources)
                    m.nodes_[static_cast<size_t>(src)].keepAcc = true;
            nd.junction = std::move(plan);
            nd.diffBypass = true;
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
            switch (ns.op) {
              case RtOp::Input:
                break;
              case RtOp::Conv2d:
              case RtOp::Fc:
              case RtOp::CrossScores:
              case RtOp::CrossOutput:
                if (!nd.diffBypass)
                    need(0);
                break;
              case RtOp::AttnScores:
              case RtOp::AttnOutput:
                if (!nd.diffBypass)
                    need(0);
                if (!nd.diffBypass2)
                    need(1);
                break;
              default:
                // Structural / vector ops read every operand's float
                // value — but only if they execute themselves.
                if (flive[i])
                    for (size_t j = 0; j < ns.inputs.size(); ++j)
                        need(static_cast<int>(j));
                break;
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
    // recomputation of the previous step.
    for (CompiledModel::Node &nd : m.nodes_) {
        const RtOp op = nd.spec.op;
        if (!rtIsCompute(op))
            continue;
        nd.outSlot = m.numOutSlots_++;
        if (op == RtOp::AttnScores || op == RtOp::AttnOutput) {
            if (!nd.diffBypass)
                nd.inSlot = m.numInSlots_++;
            if (!nd.diffBypass2)
                nd.inSlot2 = m.numInSlots_++;
        } else if (!nd.diffBypass) {
            nd.inSlot = m.numInSlots_++;
        }
        if (nd.emitPayload)
            nd.emitSlot = m.numInSlots_++;
        if (nd.junction)
            nd.jSlot = m.numInSlots_++;
    }

    m.calibrate();
    return m;
}

} // namespace ditto
