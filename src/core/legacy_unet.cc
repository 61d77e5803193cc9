/**
 * @file
 * The hand-wired MiniUnet parity reference (design notes in
 * legacy_unet.h).
 */
#include "core/legacy_unet.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/logging.h"
#include "common/rng.h"

namespace ditto {

namespace {

/** Quantization-point indices for static activation scales. */
enum ActScaleIndex
{
    kScaleConvIn,
    kScaleRes1,
    kScaleRes2,
    kScaleAttnIn,   //!< shared by the q/k/v 1x1 convolutions
    kScaleAttnQ,
    kScaleAttnK,
    kScaleAttnP,
    kScaleAttnV,
    kScaleProj,
    kScaleCrossIn,
    kScaleCrossQ,
    kScaleCrossP,
    kScaleCrossO,
    kScaleConvOut,
    kNumActScales,
};

/** Ditto state slots for previous-step input codes. */
enum InSlot
{
    kInConvIn,
    kInRes1,
    kInRes2,
    kInAttnQ,
    kInAttnK,
    kInAttnV,
    kInQkQ,
    kInQkK,
    kInPvP,
    kInPvV,
    kInProj,
    kInCrossQ,
    kInCrossQkQ,
    kInCrossPvP,
    kInCrossOut,
    kInConvOut,
    kNumInSlots,
};

/** Ditto state slots for previous-step int32 outputs. */
enum OutSlot
{
    kOutConvIn,
    kOutRes1,
    kOutRes2,
    kOutAttnQ,
    kOutAttnK,
    kOutAttnV,
    kOutQk,
    kOutPv,
    kOutProj,
    kOutCrossQ,
    kOutCrossQk,
    kOutCrossPv,
    kOutCrossOut,
    kOutConvOut,
    kNumOutSlots,
};

/** He-style random weight init. */
FloatTensor
randomWeight(Rng &rng, const Shape &shape, int64_t fan_in)
{
    FloatTensor w(shape);
    const double std = 1.0 / std::sqrt(static_cast<double>(fan_in));
    for (auto &v : w.data())
        v = static_cast<float>(rng.normal(0.0, std));
    return w;
}

/** NCHW (1,C,H,W) -> token matrix [H*W, C]. */
FloatTensor
nchwToTokens(const FloatTensor &x)
{
    DITTO_ASSERT(x.shape().rank() == 4 && x.shape()[0] == 1,
                 "expected a single NCHW feature map");
    const int64_t c = x.shape()[1];
    const int64_t h = x.shape()[2];
    const int64_t w = x.shape()[3];
    FloatTensor out(Shape{h * w, c});
    for (int64_t ci = 0; ci < c; ++ci)
        for (int64_t y = 0; y < h; ++y)
            for (int64_t xw = 0; xw < w; ++xw)
                out.at(y * w + xw, ci) = x.at(0, ci, y, xw);
    return out;
}

/** Token matrix [H*W, C] -> NCHW (1,C,H,W). */
FloatTensor
tokensToNchw(const FloatTensor &t, int64_t h, int64_t w)
{
    DITTO_ASSERT(t.shape().rank() == 2 && t.shape()[0] == h * w,
                 "token count mismatch");
    const int64_t c = t.shape()[1];
    FloatTensor out(Shape{1, c, h, w});
    for (int64_t ci = 0; ci < c; ++ci)
        for (int64_t y = 0; y < h; ++y)
            for (int64_t xw = 0; xw < w; ++xw)
                out.at(0, ci, y, xw) = t.at(y * w + xw, ci);
    return out;
}

} // namespace

HandWiredMiniUnet::HandWiredMiniUnet(MiniUnetConfig cfg) : cfg_(cfg)
{
    DITTO_ASSERT(cfg_.channels >= 2 && cfg_.channels % 2 == 0,
                 "channels must be even (two GroupNorm groups)");
    Rng rng = Rng::fromKeys(cfg_.seed, 0x11B5);
    const int64_t c = cfg_.channels;
    const int64_t ic = cfg_.inChannels;

    wConvIn_ = randomWeight(rng, Shape{c, ic, 3, 3}, ic * 9);
    wRes1_ = randomWeight(rng, Shape{c, c, 3, 3}, c * 9);
    wRes2_ = randomWeight(rng, Shape{c, c, 3, 3}, c * 9);
    wAttnQ_ = randomWeight(rng, Shape{c, c, 1, 1}, c);
    wAttnK_ = randomWeight(rng, Shape{c, c, 1, 1}, c);
    wAttnV_ = randomWeight(rng, Shape{c, c, 1, 1}, c);
    wAttnProj_ = randomWeight(rng, Shape{c, c, 1, 1}, c);
    wCrossQ_ = randomWeight(rng, Shape{c, c}, c);
    wCrossK_ = randomWeight(rng, Shape{c, cfg_.ctxDim}, cfg_.ctxDim);
    wCrossV_ = randomWeight(rng, Shape{c, cfg_.ctxDim}, cfg_.ctxDim);
    wCrossOut_ = randomWeight(rng, Shape{c, c}, c);
    wConvOut_ = randomWeight(rng, Shape{ic, c, 3, 3}, c * 9);

    context_ = FloatTensor(Shape{cfg_.ctxTokens, cfg_.ctxDim});
    context_.fillNormal(rng, 0.0, 1.0);

    noiseInit_ =
        FloatTensor(Shape{1, ic, cfg_.resolution, cfg_.resolution});
    noiseInit_.fillNormal(rng, 0.0, 1.0);

    // Quantize weights once (per-tensor symmetric).
    auto quantw = [](const FloatTensor &w) {
        QuantWeight q;
        const QuantParams p = chooseDynamicScale(w);
        q.codes = quantize(w, p);
        q.scale = p.scale;
        return q;
    };
    qConvIn_ = quantw(wConvIn_);
    qRes1_ = quantw(wRes1_);
    qRes2_ = quantw(wRes2_);
    qAttnQ_ = quantw(wAttnQ_);
    qAttnK_ = quantw(wAttnK_);
    qAttnV_ = quantw(wAttnV_);
    qAttnProj_ = quantw(wAttnProj_);
    qCrossQ_ = quantw(wCrossQ_);
    qCrossOut_ = quantw(wCrossOut_);
    qConvOut_ = quantw(wConvOut_);

    // Project the constant context to K'/V' in FP32 and quantize the
    // results: they are weights from the hardware's point of view.
    const FloatTensor k_const = fullyConnected(context_, wCrossK_, nullptr);
    const FloatTensor v_const = fullyConnected(context_, wCrossV_, nullptr);
    qCrossKConst_ = quantw(k_const);
    qCrossVConst_ = quantw(v_const);

    // Persistent difference engines: weight-stationary layers keep
    // their engine (and its weight copy) for the model's lifetime
    // instead of rebuilding one per forward step.
    eConvIn_.emplace(qConvIn_.codes, Conv2dParams{ic, c, 3, 1, 1});
    eRes1_.emplace(qRes1_.codes, Conv2dParams{c, c, 3, 1, 1});
    eRes2_.emplace(qRes2_.codes, Conv2dParams{c, c, 3, 1, 1});
    eAttnQ_.emplace(qAttnQ_.codes, Conv2dParams{c, c, 1, 1, 0});
    eAttnK_.emplace(qAttnK_.codes, Conv2dParams{c, c, 1, 1, 0});
    eAttnV_.emplace(qAttnV_.codes, Conv2dParams{c, c, 1, 1, 0});
    eAttnProj_.emplace(qAttnProj_.codes, Conv2dParams{c, c, 1, 1, 0});
    eConvOut_.emplace(qConvOut_.codes, Conv2dParams{c, ic, 3, 1, 1});
    eCrossQ_.emplace(qCrossQ_.codes);
    eCrossOut_.emplace(qCrossOut_.codes);
    // Q' x K'^T with constant K' is weight-stationary with K' as the
    // weight; P' x V' with constant V' is weight-stationary with V'^T
    // as the weight: O = P' V' = P' (V'^T)^T.
    eCrossQk_.emplace(qCrossKConst_.codes);
    eCrossPv_.emplace(transposeInt8(qCrossVConst_.codes));

    calibrateActScales();
}

void
HandWiredMiniUnet::calibrateActScales()
{
    // Offline calibration: FP32 rollout, record max-abs at every
    // quantization point across all steps (Q-Diffusion style, one
    // static scale per point), with a 10% safety margin.
    std::vector<float> maxabs(kNumActScales, 0.0f);
    struct Observer
    {
        std::vector<float> *maxabs;
        void
        operator()(int idx, const FloatTensor &t) const
        {
            float m = (*maxabs)[idx];
            for (float v : t.data())
                m = std::max(m, std::fabs(v));
            (*maxabs)[idx] = m;
        }
    };
    observer_ = Observer{&maxabs};
    FloatTensor x = noiseInit_;
    for (int t = 0; t < cfg_.steps; ++t) {
        const FloatTensor eps = forwardFp32(x);
        x = add(x, affine(eps, -0.15f, 0.0f));
    }
    observer_ = nullptr;

    actScale_.resize(kNumActScales);
    for (int i = 0; i < kNumActScales; ++i)
        actScale_[i] = std::max(maxabs[i], 1e-6f) * 1.1f / 127.0f;
}

FloatTensor
HandWiredMiniUnet::forwardFp32(const FloatTensor &x) const
{
    const int64_t c = cfg_.channels;
    const int64_t res = cfg_.resolution;
    const float inv_sqrt_c = 1.0f / std::sqrt(static_cast<float>(c));
    auto observe = [&](int idx, const FloatTensor &t) {
        if (observer_)
            observer_(idx, t);
    };
    const Conv2dParams p3{cfg_.inChannels, c, 3, 1, 1};
    const Conv2dParams p3c{c, c, 3, 1, 1};
    const Conv2dParams p1{c, c, 1, 1, 0};
    const Conv2dParams p3o{c, cfg_.inChannels, 3, 1, 1};

    observe(kScaleConvIn, x);
    const FloatTensor h0 = conv2d(x, wConvIn_, nullptr, p3);

    // Residual block.
    FloatTensor a = silu(groupNorm(h0, 2));
    observe(kScaleRes1, a);
    a = conv2d(a, wRes1_, nullptr, p3c);
    a = silu(groupNorm(a, 2));
    observe(kScaleRes2, a);
    a = conv2d(a, wRes2_, nullptr, p3c);
    const FloatTensor h1 = add(h0, a);

    // Self attention.
    FloatTensor g = groupNorm(h1, 2);
    observe(kScaleAttnIn, g);
    const FloatTensor q = nchwToTokens(conv2d(g, wAttnQ_, nullptr, p1));
    const FloatTensor k = nchwToTokens(conv2d(g, wAttnK_, nullptr, p1));
    const FloatTensor v = nchwToTokens(conv2d(g, wAttnV_, nullptr, p1));
    observe(kScaleAttnQ, q);
    observe(kScaleAttnK, k);
    observe(kScaleAttnV, v);
    FloatTensor s = matmulTransposed(q, k);
    s = affine(s, inv_sqrt_c, 0.0f);
    const FloatTensor prob = softmaxRows(s);
    observe(kScaleAttnP, prob);
    const FloatTensor o = matmul(prob, v);
    observe(kScaleProj, o);
    const FloatTensor proj =
        conv2d(tokensToNchw(o, res, res), wAttnProj_, nullptr, p1);
    const FloatTensor h2 = add(h1, proj);

    // Cross attention with constant context.
    const FloatTensor tok = nchwToTokens(h2);
    observe(kScaleCrossIn, tok);
    const FloatTensor q2 = fullyConnected(tok, wCrossQ_, nullptr);
    observe(kScaleCrossQ, q2);
    const FloatTensor k_const =
        fullyConnected(context_, wCrossK_, nullptr);
    const FloatTensor v_const =
        fullyConnected(context_, wCrossV_, nullptr);
    FloatTensor s2 = matmulTransposed(q2, k_const);
    s2 = affine(s2, inv_sqrt_c, 0.0f);
    const FloatTensor prob2 = softmaxRows(s2);
    observe(kScaleCrossP, prob2);
    const FloatTensor o2 = matmul(prob2, v_const);
    observe(kScaleCrossO, o2);
    const FloatTensor co = fullyConnected(o2, wCrossOut_, nullptr);
    const FloatTensor h3 = add(h2, tokensToNchw(co, res, res));

    // Output head.
    FloatTensor out = silu(groupNorm(h3, 2));
    observe(kScaleConvOut, out);
    return conv2d(out, wConvOut_, nullptr, p3o);
}

FloatTensor
HandWiredMiniUnet::forwardQuant(const FloatTensor &x, bool use_ditto,
                       DittoState *state, OpCounts *counts) const
{
    DITTO_ASSERT(!use_ditto || state != nullptr,
                 "Ditto mode needs persistent state");
    const int64_t c = cfg_.channels;
    const int64_t res = cfg_.resolution;
    const float inv_sqrt_c = 1.0f / std::sqrt(static_cast<float>(c));
    const bool primed = use_ditto && state->primed;
    if (use_ditto && state->prevIn.empty()) {
        state->prevIn.resize(kNumInSlots);
        state->prevOut.resize(kNumOutSlots);
    }

    // Weight-stationary convolution, optionally via differences; the
    // engines are persistent members so the diff path reuses them
    // instead of rebuilding one per step.
    auto run_conv = [&](const DiffConvEngine &eng, const QuantWeight &w,
                        const FloatTensor &in, int scale_idx,
                        InSlot in_slot, OutSlot out_slot) {
        const QuantParams qp{actScale_[scale_idx], 8};
        Int8Tensor codes = quantize(in, qp);
        Int32Tensor acc;
        if (primed) {
            acc = eng.runDiff(codes, state->prevIn[in_slot],
                              state->prevOut[out_slot], counts);
        } else {
            acc = eng.runDirect(codes);
        }
        if (use_ditto) {
            // Move the step's tensors into the state (no copies); the
            // dequantized return reads from the state slot.
            state->prevIn[in_slot] = std::move(codes);
            state->prevOut[out_slot] = std::move(acc);
            return dequantizeAccum(state->prevOut[out_slot],
                                   qp.scale * w.scale);
        }
        return dequantizeAccum(acc, qp.scale * w.scale);
    };
    // Weight-stationary FC, optionally via differences.
    auto run_fc = [&](const DiffFcEngine &eng, const QuantWeight &w,
                      const FloatTensor &in, int scale_idx, InSlot in_slot,
                      OutSlot out_slot) {
        const QuantParams qp{actScale_[scale_idx], 8};
        Int8Tensor codes = quantize(in, qp);
        Int32Tensor acc;
        if (primed) {
            acc = eng.runDiff(codes, state->prevIn[in_slot],
                              state->prevOut[out_slot], counts);
        } else {
            acc = eng.runDirect(codes);
        }
        if (use_ditto) {
            state->prevIn[in_slot] = std::move(codes);
            state->prevOut[out_slot] = std::move(acc);
            return dequantizeAccum(state->prevOut[out_slot],
                                   qp.scale * w.scale);
        }
        return dequantizeAccum(acc, qp.scale * w.scale);
    };

    const FloatTensor h0 = run_conv(*eConvIn_, qConvIn_, x, kScaleConvIn,
                                    kInConvIn, kOutConvIn);

    // Residual block (non-linear functions stay in FP32 on dequantized
    // values, as the Vector Processing Unit would).
    FloatTensor a = silu(groupNorm(h0, 2));
    a = run_conv(*eRes1_, qRes1_, a, kScaleRes1, kInRes1, kOutRes1);
    a = silu(groupNorm(a, 2));
    a = run_conv(*eRes2_, qRes2_, a, kScaleRes2, kInRes2, kOutRes2);
    const FloatTensor h1 = add(h0, a);

    // Self attention: QK and PV are dynamic-dynamic matmuls.
    FloatTensor g = groupNorm(h1, 2);
    const FloatTensor qf = nchwToTokens(run_conv(
        *eAttnQ_, qAttnQ_, g, kScaleAttnIn, kInAttnQ, kOutAttnQ));
    const FloatTensor kf = nchwToTokens(run_conv(
        *eAttnK_, qAttnK_, g, kScaleAttnIn, kInAttnK, kOutAttnK));
    const FloatTensor vf = nchwToTokens(run_conv(
        *eAttnV_, qAttnV_, g, kScaleAttnIn, kInAttnV, kOutAttnV));

    const QuantParams qpq{actScale_[kScaleAttnQ], 8};
    const QuantParams qpk{actScale_[kScaleAttnK], 8};
    Int8Tensor q_codes = quantize(qf, qpq);
    Int8Tensor k_codes = quantize(kf, qpk);
    Int32Tensor s_acc;
    if (primed) {
        s_acc = attentionScoresDiff(q_codes, state->prevIn[kInQkQ],
                                    k_codes, state->prevIn[kInQkK],
                                    state->prevOut[kOutQk], counts);
    } else {
        s_acc = attentionScoresDirect(q_codes, k_codes);
    }
    if (use_ditto) {
        state->prevIn[kInQkQ] = std::move(q_codes);
        state->prevIn[kInQkK] = std::move(k_codes);
        state->prevOut[kOutQk] = std::move(s_acc);
    }
    const Int32Tensor &s_ref =
        use_ditto ? state->prevOut[kOutQk] : s_acc;
    FloatTensor s = dequantizeAccum(s_ref, qpq.scale * qpk.scale);
    s = affine(s, inv_sqrt_c, 0.0f);
    const FloatTensor prob = softmaxRows(s);

    const QuantParams qpp{actScale_[kScaleAttnP], 8};
    const QuantParams qpv{actScale_[kScaleAttnV], 8};
    Int8Tensor p_codes = quantize(prob, qpp);
    Int8Tensor v_codes = quantize(vf, qpv);
    Int32Tensor o_acc;
    if (primed) {
        o_acc = attentionOutputDiff(p_codes, state->prevIn[kInPvP],
                                    v_codes, state->prevIn[kInPvV],
                                    state->prevOut[kOutPv], counts);
    } else {
        o_acc = attentionOutputDirect(p_codes, v_codes);
    }
    if (use_ditto) {
        state->prevIn[kInPvP] = std::move(p_codes);
        state->prevIn[kInPvV] = std::move(v_codes);
        state->prevOut[kOutPv] = std::move(o_acc);
    }
    const FloatTensor o = dequantizeAccum(
        use_ditto ? state->prevOut[kOutPv] : o_acc,
        qpp.scale * qpv.scale);

    const FloatTensor proj =
        run_conv(*eAttnProj_, qAttnProj_, tokensToNchw(o, res, res),
                 kScaleProj, kInProj, kOutProj);
    const FloatTensor h2 = add(h1, proj);

    // Cross attention: K'/V' constant, weight-stationary difference
    // processing applies directly.
    const FloatTensor tok = nchwToTokens(h2);
    const FloatTensor q2 = run_fc(*eCrossQ_, qCrossQ_, tok, kScaleCrossIn,
                                  kInCrossQ, kOutCrossQ);
    const QuantParams qpq2{actScale_[kScaleCrossQ], 8};
    Int8Tensor q2_codes = quantize(q2, qpq2);
    Int32Tensor s2_acc;
    if (primed) {
        s2_acc = eCrossQk_->runDiff(q2_codes, state->prevIn[kInCrossQkQ],
                                    state->prevOut[kOutCrossQk], counts);
    } else {
        s2_acc = eCrossQk_->runDirect(q2_codes);
    }
    if (use_ditto) {
        state->prevIn[kInCrossQkQ] = std::move(q2_codes);
        state->prevOut[kOutCrossQk] = std::move(s2_acc);
    }
    FloatTensor s2 =
        dequantizeAccum(use_ditto ? state->prevOut[kOutCrossQk] : s2_acc,
                        qpq2.scale * qCrossKConst_.scale);
    s2 = affine(s2, inv_sqrt_c, 0.0f);
    const FloatTensor prob2 = softmaxRows(s2);

    const QuantParams qpp2{actScale_[kScaleCrossP], 8};
    Int8Tensor p2_codes = quantize(prob2, qpp2);
    // P' x V' with constant V' runs as a weight-stationary layer with
    // V'^T as the weight (persistent eCrossPv_ engine).
    Int32Tensor o2_acc;
    if (primed) {
        o2_acc = eCrossPv_->runDiff(p2_codes, state->prevIn[kInCrossPvP],
                                    state->prevOut[kOutCrossPv], counts);
    } else {
        o2_acc = eCrossPv_->runDirect(p2_codes);
    }
    if (use_ditto) {
        state->prevIn[kInCrossPvP] = std::move(p2_codes);
        state->prevOut[kOutCrossPv] = std::move(o2_acc);
    }
    const FloatTensor o2 =
        dequantizeAccum(use_ditto ? state->prevOut[kOutCrossPv] : o2_acc,
                        qpp2.scale * qCrossVConst_.scale);

    const FloatTensor co = run_fc(*eCrossOut_, qCrossOut_, o2, kScaleCrossO,
                                  kInCrossOut, kOutCrossOut);
    const FloatTensor h3 = add(h2, tokensToNchw(co, res, res));

    FloatTensor out = silu(groupNorm(h3, 2));
    const FloatTensor eps = run_conv(*eConvOut_, qConvOut_, out,
                                     kScaleConvOut, kInConvOut, kOutConvOut);
    if (use_ditto)
        state->primed = true;
    return eps;
}

FloatTensor
HandWiredMiniUnet::forward(const FloatTensor &x, RunMode mode, DittoState *state,
                  OpCounts *counts) const
{
    switch (mode) {
      case RunMode::Fp32:
        return forwardFp32(x);
      case RunMode::QuantDirect:
        return forwardQuant(x, /*use_ditto=*/false, nullptr, nullptr);
      case RunMode::QuantDitto:
        return forwardQuant(x, /*use_ditto=*/true, state, counts);
      case RunMode::ApproxDitto:
        DITTO_FATAL("ApproxDitto is a graph-runtime mode; the "
                    "hand-wired parity reference only runs the exact "
                    "modes");
    }
    DITTO_PANIC("unknown RunMode");
}

namespace {

/** The fixed per-step MAC budget of one request (see rollout()). */
int64_t
macsPerStep(const MiniUnetConfig &cfg)
{
    const int64_t c = cfg.channels;
    const int64_t tokens = cfg.resolution * cfg.resolution;
    return c * cfg.inChannels * 9 * tokens +     // conv-in
           2 * c * c * 9 * tokens +              // res convs
           3 * c * c * tokens +                  // q/k/v
           2 * tokens * tokens * c +             // QK + PV
           c * c * tokens +                      // proj
           2 * c * c * tokens +                  // cross q / out
           2 * tokens * cfg.ctxTokens * c +      // cross QK + PV
           cfg.inChannels * c * 9 * tokens;      // conv-out
}

} // namespace

RolloutResult
HandWiredMiniUnet::rollout(RunMode mode) const
{
    return rollout(mode, noiseInit_);
}

RolloutResult
HandWiredMiniUnet::rollout(RunMode mode, const FloatTensor &noise, int steps) const
{
    DITTO_ASSERT(noise.shape() == noiseInit_.shape(),
                 "rollout noise shape mismatch");
    if (steps <= 0)
        steps = cfg_.steps;
    RolloutResult result;
    DittoState state;
    FloatTensor x = noise;
    for (int t = 0; t < steps; ++t) {
        const FloatTensor eps =
            forward(x, mode, &state, &result.dittoOps);
        x = add(x, affine(eps, -0.15f, 0.0f));
    }
    result.finalImage = std::move(x);
    result.totalMacsPerStep = macsPerStep(cfg_);
    return result;
}

FloatTensor
HandWiredMiniUnet::requestNoise(uint64_t seed) const
{
    // A distinct key stream from the weight/init RNG so request noise
    // never correlates with model parameters.
    Rng rng = Rng::fromKeys(seed, 0x5EED'D177);
    FloatTensor noise(noiseInit_.shape());
    noise.fillNormal(rng, 0.0, 1.0);
    return noise;
}

} // namespace ditto
