/**
 * @file
 * Attention difference processing implementation.
 *
 * Each of the two correction terms pairs one full-bit-width operand
 * with one narrow difference operand; the difference operand is
 * encoded into a sparse panel plan and executed by the plan-driven
 * diff GEMM. Terms whose sparse operand sits on the right of the
 * product are computed transposed — (X dY^T)^T = dY X^T — so the plan
 * operand is always the left factor, then folded back with a fused
 * transpose-add. The scalar two-term expansions are retained under
 * naive:: as parity references.
 */
#include "core/attention_diff.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "quant/encoder.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace ditto {

Int32Tensor
attentionScoresDirect(const Int8Tensor &q, const Int8Tensor &k)
{
    return matmulTransposedInt8(q, k);
}

Int32Tensor
attentionScoresDiff(const Int8Tensor &q, const Int8Tensor &prev_q,
                    const Int8Tensor &k, const Int8Tensor &prev_k,
                    const Int32Tensor &prev_scores, OpCounts *counts,
                    DiffPolicy policy)
{
    DITTO_ASSERT(q.shape() == prev_q.shape() && k.shape() == prev_k.shape(),
                 "attention diff operand shape mismatch");
    const int64_t tokens = q.shape()[0];
    const int64_t ctx = k.shape()[0];
    const int64_t d = q.shape()[1];
    DITTO_ASSERT(prev_scores.shape() == Shape({tokens, ctx}),
                 "previous scores shape mismatch");
    // Sub-op 1: Q_t dK^T — dK elements each multiply `tokens` rows of
    // Q. Sub-op 2: dQ K_prev^T — dQ elements each multiply `ctx` rows
    // of K.
    const DiffClassCounts probe_dq = countTemporalDiffClasses(q, prev_q);
    const DiffClassCounts probe_dk = countTemporalDiffClasses(k, prev_k);
    if (counts) {
        counts->merge(probeOpCounts(probe_dk, tokens));
        counts->merge(probeOpCounts(probe_dq, ctx));
    }
    // Two sub-ops against one dense product: revert unless the
    // combined predicted sparse cost undercuts Q_t K_t^T.
    const double predicted =
        diffMacPenalty(tokens) * static_cast<double>(probe_dk.nonzero()) *
            static_cast<double>(tokens) +
        diffMacPenalty(ctx) * static_cast<double>(probe_dq.nonzero()) *
            static_cast<double>(ctx);
    if (policy == DiffPolicy::Auto &&
        predicted >= static_cast<double>(tokens * ctx * d))
        return attentionScoresDirect(q, k);
    // S_t = prev + dQ K_prev^T + (dK Q_t^T)^T.
    const DiffGemmPlan plan_dq = encodeTemporalDiff(q, prev_q);
    const DiffGemmPlan plan_dk = encodeTemporalDiff(k, prev_k);
    Int32Tensor partial =
        matmulTransposedDiffPlan(plan_dq, prev_k, &prev_scores);
    const Int32Tensor qdk_t = matmulTransposedDiffPlan(plan_dk, q);
    return addTransposedInt32(partial, qdk_t);
}

Int32Tensor
attentionScoresBatch(const Int8Tensor &q, const Int8Tensor &k,
                     int64_t slabs, const Int8Tensor *prev_q,
                     const Int8Tensor *prev_k,
                     const Int32Tensor *prev_scores, const uint8_t *primed,
                     OpCounts *counts, DiffPolicy policy)
{
    DITTO_ASSERT(q.shape().rank() == 2 && q.shape() == k.shape() &&
                 slabs > 0 && q.shape()[0] % slabs == 0,
                 "batched attention operands must stack equal slabs");
    const int64_t tokens = q.shape()[0] / slabs;
    const int64_t d = q.shape()[1];
    const int64_t in_elems = tokens * d;
    const int64_t out_elems = tokens * tokens;
    const int8_t *qd = q.data().data();
    const int8_t *kd = k.data().data();

    // Per-slab decisions, identical to attentionScoresDiff's.
    std::vector<uint8_t> use_diff(static_cast<size_t>(slabs), 0);
    bool any_diff = false;
    for (int64_t s = 0; s < slabs; ++s) {
        if (!primed || !primed[s])
            continue;
        DITTO_ASSERT(prev_q && prev_k && prev_scores,
                     "primed slabs need previous state");
        DITTO_ASSERT(prev_q->shape() == q.shape() &&
                     prev_k->shape() == k.shape() &&
                     prev_scores->shape() ==
                         Shape({slabs * tokens, tokens}),
                     "batched attention previous state shape mismatch");
        const DiffClassCounts probe_dq =
            countTemporalDiffClasses(q, *prev_q, s * in_elems, in_elems);
        const DiffClassCounts probe_dk =
            countTemporalDiffClasses(k, *prev_k, s * in_elems, in_elems);
        if (counts) {
            counts[s].merge(probeOpCounts(probe_dk, tokens));
            counts[s].merge(probeOpCounts(probe_dq, tokens));
        }
        const double predicted =
            diffMacPenalty(tokens) *
                static_cast<double>(probe_dk.nonzero()) *
                static_cast<double>(tokens) +
            diffMacPenalty(tokens) *
                static_cast<double>(probe_dq.nonzero()) *
                static_cast<double>(tokens);
        use_diff[s] =
            policy == DiffPolicy::ForceDiff ||
            predicted < static_cast<double>(tokens * tokens * d);
        any_diff |= use_diff[s] != 0;
    }

    Int32Tensor out(Shape{slabs * tokens, tokens});
    int32_t *od = out.data().data();
    for (int64_t s = 0; s < slabs; ++s) {
        if (use_diff[s])
            continue;
        // Direct slabs: each attends within its own rows, so the K
        // operand differs per slab and runs stay per-slab GEMMs.
        kernels::gemmInt8Into(qd + s * in_elems, tokens, d,
                              kd + s * in_elems, tokens, /*trans_b=*/true,
                              od + s * out_elems);
    }
    if (!any_diff)
        return out;

    // Diff slabs: S_t = prev + dQ K_prev^T + (dK Q_t^T)^T, every term
    // batched into one dispatch across slabs.
    std::vector<DiffGemmPlan> plans_dq;
    std::vector<DiffGemmPlan> plans_dk;
    plans_dq.reserve(static_cast<size_t>(slabs));
    plans_dk.reserve(static_cast<size_t>(slabs));
    std::vector<kernels::DiffGemmBatchItem> items_a, items_b;
    std::vector<int64_t> diff_slabs;
    int64_t n_diff = 0;
    for (int64_t s = 0; s < slabs; ++s)
        n_diff += use_diff[s] ? 1 : 0;
    Int32Tensor scratch(Shape{n_diff * tokens, tokens});
    int32_t *sd = scratch.data().data();
    int64_t di = 0;
    for (int64_t s = 0; s < slabs; ++s) {
        if (!use_diff[s])
            continue;
        std::memcpy(od + s * out_elems,
                    prev_scores->data().data() + s * out_elems,
                    static_cast<size_t>(out_elems) * sizeof(int32_t));
        plans_dq.push_back(encodeTemporalDiffRegion(q, *prev_q,
                                                    s * in_elems, tokens,
                                                    d));
        plans_dk.push_back(encodeTemporalDiffRegion(k, *prev_k,
                                                    s * in_elems, tokens,
                                                    d));
        items_a.push_back({&plans_dq.back(),
                           prev_k->data().data() + s * in_elems,
                           od + s * out_elems});
        items_b.push_back({&plans_dk.back(), qd + s * in_elems,
                           sd + di * out_elems});
        diff_slabs.push_back(s);
        ++di;
    }
    kernels::diffGemmBatch(items_a, tokens, /*transpose_b=*/true);
    kernels::diffGemmBatch(items_b, tokens, /*transpose_b=*/true);
    parallelFor(0, n_diff, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            kernels::addTransposedInt32InPlace(
                od + diff_slabs[static_cast<size_t>(i)] * out_elems,
                sd + i * out_elems, tokens, tokens);
    });
    return out;
}

namespace {

/**
 * Reconstruct an operand's previous-step codes from a handed-over
 * payload: prev = codes - d. Both sides of the subtraction are valid
 * symmetric int8 codes, so the int16 difference of codes always lands
 * back in int8 range — the reconstruction is exact, which is what
 * makes delegation to the stored-codes bodies bitwise neutral.
 */
Int8Tensor
reconstructPrev(const Int8Tensor &codes, const Int16Tensor &d)
{
    DITTO_ASSERT(d.shape() == codes.shape(),
                 "payload difference shape mismatch");
    Int8Tensor prev(codes.shape());
    auto sc = codes.data();
    auto sd = d.data();
    auto sp = prev.data();
    for (size_t i = 0; i < sc.size(); ++i)
        sp[i] = static_cast<int8_t>(static_cast<int16_t>(sc[i]) - sd[i]);
    return prev;
}

/** One operand's previous codes: reconstructed or stored. */
const Int8Tensor &
operandPrev(const Int8Tensor &codes, const Int16Tensor *d,
            const Int8Tensor *stored, Int8Tensor *scratch)
{
    DITTO_ASSERT((d != nullptr) != (stored != nullptr),
                 "exactly one of payload difference and stored codes");
    if (stored)
        return *stored;
    *scratch = reconstructPrev(codes, *d);
    return *scratch;
}

} // namespace

Int32Tensor
attentionScoresBatchPre(const Int8Tensor &q, const Int16Tensor *dq,
                        const Int8Tensor *prev_q, const Int8Tensor &k,
                        const Int16Tensor *dk, const Int8Tensor *prev_k,
                        int64_t slabs, const Int32Tensor *prev_scores,
                        const uint8_t *primed, OpCounts *counts,
                        DiffPolicy policy)
{
    Int8Tensor qs, ks;
    const Int8Tensor &pq = operandPrev(q, dq, prev_q, &qs);
    const Int8Tensor &pk = operandPrev(k, dk, prev_k, &ks);
    return attentionScoresBatch(q, k, slabs, &pq, &pk, prev_scores,
                                primed, counts, policy);
}

Int32Tensor
attentionOutputDirect(const Int8Tensor &p, const Int8Tensor &v)
{
    return matmulInt8(p, v);
}

Int32Tensor
attentionOutputBatchPre(const Int8Tensor &p, const Int16Tensor *dp,
                        const Int8Tensor *prev_p, const Int8Tensor &v,
                        const Int16Tensor *dv, const Int8Tensor *prev_v,
                        int64_t slabs, const Int32Tensor *prev_out,
                        const uint8_t *primed, OpCounts *counts,
                        DiffPolicy policy)
{
    Int8Tensor ps, vs;
    const Int8Tensor &pp = operandPrev(p, dp, prev_p, &ps);
    const Int8Tensor &pv = operandPrev(v, dv, prev_v, &vs);
    return attentionOutputBatch(p, v, slabs, &pp, &pv, prev_out, primed,
                                counts, policy);
}

Int32Tensor
attentionOutputDiff(const Int8Tensor &p, const Int8Tensor &prev_p,
                    const Int8Tensor &v, const Int8Tensor &prev_v,
                    const Int32Tensor &prev_out, OpCounts *counts,
                    DiffPolicy policy)
{
    DITTO_ASSERT(p.shape() == prev_p.shape() && v.shape() == prev_v.shape(),
                 "attention diff operand shape mismatch");
    const int64_t rows = p.shape()[0];
    const int64_t inner = p.shape()[1];
    const int64_t d = v.shape()[1];
    DITTO_ASSERT(v.shape()[0] == inner, "P/V inner dimension mismatch");
    DITTO_ASSERT(prev_out.shape() == Shape({rows, d}),
                 "previous output shape mismatch");
    const DiffClassCounts probe_dp = countTemporalDiffClasses(p, prev_p);
    const DiffClassCounts probe_dv = countTemporalDiffClasses(v, prev_v);
    if (counts) {
        counts->merge(probeOpCounts(probe_dv, rows));
        counts->merge(probeOpCounts(probe_dp, d));
    }
    const double predicted =
        diffMacPenalty(rows) * static_cast<double>(probe_dv.nonzero()) *
            static_cast<double>(rows) +
        diffMacPenalty(d) * static_cast<double>(probe_dp.nonzero()) *
            static_cast<double>(d);
    if (policy == DiffPolicy::Auto &&
        predicted >= static_cast<double>(rows * inner * d))
        return attentionOutputDirect(p, v);
    // O_t = prev + dP V_prev + (dV^T P_t^T)^T.
    const DiffGemmPlan plan_dp = encodeTemporalDiff(p, prev_p);
    const DiffGemmPlan plan_dvt = encodeTemporalDiffTransposed(v, prev_v);
    Int32Tensor partial = matmulDiffPlan(plan_dp, prev_v, &prev_out);
    const Int32Tensor pdv_t = matmulTransposedDiffPlan(plan_dvt, p);
    return addTransposedInt32(partial, pdv_t);
}

Int32Tensor
attentionOutputBatch(const Int8Tensor &p, const Int8Tensor &v,
                     int64_t slabs, const Int8Tensor *prev_p,
                     const Int8Tensor *prev_v, const Int32Tensor *prev_out,
                     const uint8_t *primed, OpCounts *counts,
                     DiffPolicy policy)
{
    DITTO_ASSERT(p.shape().rank() == 2 && v.shape().rank() == 2 &&
                 slabs > 0 && p.shape()[0] % slabs == 0 &&
                 v.shape()[0] % slabs == 0,
                 "batched attention operands must stack equal slabs");
    const int64_t rows = p.shape()[0] / slabs;
    const int64_t inner = p.shape()[1];
    const int64_t d = v.shape()[1];
    DITTO_ASSERT(v.shape()[0] / slabs == inner,
                 "P/V inner dimension mismatch");
    const int64_t p_elems = rows * inner;
    const int64_t v_elems = inner * d;
    const int64_t out_elems = rows * d;
    const int8_t *pd = p.data().data();
    const int8_t *vd = v.data().data();

    // Per-slab decisions, identical to attentionOutputDiff's.
    std::vector<uint8_t> use_diff(static_cast<size_t>(slabs), 0);
    bool any_diff = false;
    for (int64_t s = 0; s < slabs; ++s) {
        if (!primed || !primed[s])
            continue;
        DITTO_ASSERT(prev_p && prev_v && prev_out,
                     "primed slabs need previous state");
        DITTO_ASSERT(prev_p->shape() == p.shape() &&
                     prev_v->shape() == v.shape() &&
                     prev_out->shape() == Shape({slabs * rows, d}),
                     "batched attention previous state shape mismatch");
        const DiffClassCounts probe_dp =
            countTemporalDiffClasses(p, *prev_p, s * p_elems, p_elems);
        const DiffClassCounts probe_dv =
            countTemporalDiffClasses(v, *prev_v, s * v_elems, v_elems);
        if (counts) {
            counts[s].merge(probeOpCounts(probe_dv, rows));
            counts[s].merge(probeOpCounts(probe_dp, d));
        }
        const double predicted =
            diffMacPenalty(rows) *
                static_cast<double>(probe_dv.nonzero()) *
                static_cast<double>(rows) +
            diffMacPenalty(d) * static_cast<double>(probe_dp.nonzero()) *
                static_cast<double>(d);
        use_diff[s] = policy == DiffPolicy::ForceDiff ||
                      predicted < static_cast<double>(rows * inner * d);
        any_diff |= use_diff[s] != 0;
    }

    Int32Tensor out(Shape{slabs * rows, d});
    int32_t *od = out.data().data();
    for (int64_t s = 0; s < slabs; ++s) {
        if (use_diff[s])
            continue;
        kernels::gemmInt8Into(pd + s * p_elems, rows, inner,
                              vd + s * v_elems, d, /*trans_b=*/false,
                              od + s * out_elems);
    }
    if (!any_diff)
        return out;

    // Diff slabs: O_t = prev + dP V_prev + (dV^T P_t^T)^T, batched.
    std::vector<DiffGemmPlan> plans_dp;
    std::vector<DiffGemmPlan> plans_dvt;
    plans_dp.reserve(static_cast<size_t>(slabs));
    plans_dvt.reserve(static_cast<size_t>(slabs));
    std::vector<kernels::DiffGemmBatchItem> items_a, items_b;
    std::vector<int64_t> diff_slabs;
    int64_t n_diff = 0;
    for (int64_t s = 0; s < slabs; ++s)
        n_diff += use_diff[s] ? 1 : 0;
    Int32Tensor scratch(Shape{n_diff * d, rows});
    int32_t *sd = scratch.data().data();
    int64_t di = 0;
    for (int64_t s = 0; s < slabs; ++s) {
        if (!use_diff[s])
            continue;
        std::memcpy(od + s * out_elems,
                    prev_out->data().data() + s * out_elems,
                    static_cast<size_t>(out_elems) * sizeof(int32_t));
        plans_dp.push_back(encodeTemporalDiffRegion(p, *prev_p,
                                                    s * p_elems, rows,
                                                    inner));
        plans_dvt.push_back(encodeTemporalDiffRegionTransposed(
            v, *prev_v, s * v_elems, inner, d));
        items_a.push_back({&plans_dp.back(),
                           prev_v->data().data() + s * v_elems,
                           od + s * out_elems});
        items_b.push_back({&plans_dvt.back(), pd + s * p_elems,
                           sd + di * d * rows});
        diff_slabs.push_back(s);
        ++di;
    }
    kernels::diffGemmBatch(items_a, d, /*transpose_b=*/false);
    kernels::diffGemmBatch(items_b, rows, /*transpose_b=*/true);
    parallelFor(0, n_diff, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            kernels::addTransposedInt32InPlace(
                od + diff_slabs[static_cast<size_t>(i)] * out_elems,
                sd + i * d * rows, rows, d);
    });
    return out;
}

CrossAttentionEngine::CrossAttentionEngine(Int8Tensor k_const)
    : kConst_(std::move(k_const))
{
    DITTO_ASSERT(kConst_.shape().rank() == 2,
                 "context operand must be a matrix");
    kConstT_ = transposeInt8(kConst_);
}

Int32Tensor
CrossAttentionEngine::runDirect(const Int8Tensor &q) const
{
    return matmulTransposedInt8(q, kConst_);
}

Int32Tensor
CrossAttentionEngine::runDiff(const Int8Tensor &q, const Int8Tensor &prev_q,
                              const Int32Tensor &prev_scores,
                              OpCounts *counts, DiffPolicy policy) const
{
    DITTO_ASSERT(q.shape() == prev_q.shape(),
                 "cross attention diff shape mismatch");
    const int64_t ctx = kConst_.shape()[0];
    const DiffClassCounts probe = countTemporalDiffClasses(q, prev_q);
    if (counts)
        counts->merge(probeOpCounts(probe, ctx));
    if (policy == DiffPolicy::Auto && !diffWorthIt(probe, ctx))
        return runDirect(q);
    const DiffGemmPlan plan = encodeTemporalDiff(q, prev_q);
    return matmulDiffPlan(plan, kConstT_, &prev_scores);
}

Int32Tensor
CrossAttentionEngine::runBatch(const Int8Tensor &q, int64_t slabs,
                               const Int8Tensor *prev_q,
                               const Int32Tensor *prev_scores,
                               const uint8_t *primed, OpCounts *counts,
                               DiffPolicy policy) const
{
    return detail::runBatchWeightStationary(q, slabs, prev_q, prev_scores,
                                            primed, counts, policy,
                                            kConst_, kConstT_);
}

Int32Tensor
CrossAttentionEngine::runBatchPre(const Int8Tensor &q, const Int16Tensor &d,
                                  int64_t slabs,
                                  const Int32Tensor *prev_scores,
                                  const uint8_t *primed, OpCounts *counts,
                                  DiffPolicy policy) const
{
    return detail::runBatchWeightStationaryPre(q, d, slabs, prev_scores,
                                               primed, counts, policy,
                                               kConst_, kConstT_);
}

namespace naive {

Int32Tensor
attentionScoresDiff(const Int8Tensor &q, const Int8Tensor &prev_q,
                    const Int8Tensor &k, const Int8Tensor &prev_k,
                    const Int32Tensor &prev_scores, OpCounts *counts)
{
    DITTO_ASSERT(q.shape() == prev_q.shape() && k.shape() == prev_k.shape(),
                 "attention diff operand shape mismatch");
    const Int16Tensor dq = subtractInt8(q, prev_q);
    const Int16Tensor dk = subtractInt8(k, prev_k);
    if (counts) {
        counts->merge(tallyOps(dk, q.shape()[0]));
        counts->merge(tallyOps(dq, k.shape()[0]));
    }
    // S_t = prev + Q_t dK^T + dQ K_prev^T.
    const int64_t tokens = q.shape()[0];
    const int64_t ctx = k.shape()[0];
    const int64_t d = q.shape()[1];
    Int32Tensor out(prev_scores.shape());
    DITTO_ASSERT(prev_scores.shape() == Shape({tokens, ctx}),
                 "previous scores shape mismatch");
    for (int64_t i = 0; i < tokens; ++i) {
        for (int64_t j = 0; j < ctx; ++j) {
            int64_t acc = 0;
            for (int64_t x = 0; x < d; ++x) {
                acc += static_cast<int64_t>(q.at(i, x)) * dk.at(j, x);
                acc += static_cast<int64_t>(dq.at(i, x)) *
                       prev_k.at(j, x);
            }
            out.at(i, j) = prev_scores.at(i, j) +
                           static_cast<int32_t>(acc);
        }
    }
    return out;
}

Int32Tensor
attentionOutputDiff(const Int8Tensor &p, const Int8Tensor &prev_p,
                    const Int8Tensor &v, const Int8Tensor &prev_v,
                    const Int32Tensor &prev_out, OpCounts *counts)
{
    DITTO_ASSERT(p.shape() == prev_p.shape() && v.shape() == prev_v.shape(),
                 "attention diff operand shape mismatch");
    const Int16Tensor dp = subtractInt8(p, prev_p);
    const Int16Tensor dv = subtractInt8(v, prev_v);
    if (counts) {
        counts->merge(tallyOps(dv, p.shape()[0]));
        counts->merge(tallyOps(dp, v.shape()[1]));
    }
    // O_t = prev + P_t dV + dP V_prev.
    const int64_t rows = p.shape()[0];
    const int64_t inner = p.shape()[1];
    const int64_t d = v.shape()[1];
    DITTO_ASSERT(v.shape()[0] == inner, "P/V inner dimension mismatch");
    DITTO_ASSERT(prev_out.shape() == Shape({rows, d}),
                 "previous output shape mismatch");
    Int32Tensor out(prev_out.shape());
    for (int64_t i = 0; i < rows; ++i) {
        for (int64_t j = 0; j < d; ++j) {
            int64_t acc = 0;
            for (int64_t x = 0; x < inner; ++x) {
                acc += static_cast<int64_t>(p.at(i, x)) * dv.at(x, j);
                acc += static_cast<int64_t>(dp.at(i, x)) *
                       prev_v.at(x, j);
            }
            out.at(i, j) = prev_out.at(i, j) + static_cast<int32_t>(acc);
        }
    }
    return out;
}

Int32Tensor
crossAttentionScoresDiff(const Int8Tensor &q, const Int8Tensor &prev_q,
                         const Int8Tensor &k_const,
                         const Int32Tensor &prev_scores, OpCounts *counts)
{
    DITTO_ASSERT(q.shape() == prev_q.shape(),
                 "cross attention diff shape mismatch");
    const Int16Tensor dq = subtractInt8(q, prev_q);
    if (counts)
        counts->merge(tallyOps(dq, k_const.shape()[0]));
    const Int32Tensor delta = ditto::matmulTransposedDiffInt16(dq, k_const);
    return addInt32(prev_scores, delta);
}

} // namespace naive

} // namespace ditto
