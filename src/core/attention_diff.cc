/**
 * @file
 * Attention difference processing implementation.
 *
 * Each of the two correction terms pairs one full-bit-width operand
 * with one narrow difference operand; the difference operand is
 * encoded into a sparse panel plan and executed by the batched
 * plan-driven diff GEMM (one *BatchInto body per op; the
 * single-request entry points run it on one slab). Terms whose sparse operand sits on the right of the
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
    DITTO_ASSERT(q.shape().rank() == 2 && k.shape().rank() == 2 &&
                     q.shape()[1] == k.shape()[1],
                 "Q/K must be matrices of one head dimension");
    const int64_t tokens = q.shape()[0];
    const int64_t keys = k.shape()[0];
    const DiffOperand qo{q.data().data(), prev_q.data().data(), nullptr};
    const DiffOperand ko{k.data().data(), prev_k.data().data(), nullptr};
    std::vector<int32_t> delta(static_cast<size_t>(tokens * keys));
    return detail::runPrimed(
        prev_scores, Shape{tokens, keys}, 1, counts,
        [&](int32_t *out, const uint8_t *primed, OpCounts *slab_counts,
            EngineScratch *scratch) {
            attentionScoresBatchInto(qo, ko, tokens, keys, q.shape()[1], 1,
                                     primed, out, delta.data(), slab_counts,
                                     policy, scratch);
        });
}

namespace {

/**
 * The stored-codes form of an operand: a handed-over difference `d`
 * becomes previous codes reconstructed as codes - d into `scratch`.
 * Both sides of the subtraction are valid symmetric int8 codes, so the
 * int16 difference of codes always lands back in int8 range — the
 * reconstruction is exact, which is what makes one stored-codes body
 * serve both operand kinds bitwise. Unprimed slabs' difference regions
 * are never consumed, so their reconstructed codes may be anything.
 */
DiffOperand
storedForm(const DiffOperand &op, int64_t n, std::vector<int8_t> *scratch)
{
    if (!op.diff)
        return op;
    DITTO_ASSERT(!op.prev,
                 "exactly one of payload difference and stored codes");
    scratch->resize(static_cast<size_t>(n));
    int8_t *prev = scratch->data();
    for (int64_t i = 0; i < n; ++i)
        prev[i] = static_cast<int8_t>(static_cast<int16_t>(op.codes[i]) -
                                      op.diff[i]);
    return {op.codes, prev, nullptr};
}

} // namespace

void
attentionScoresBatchInto(const DiffOperand &q_in, const DiffOperand &k_in,
                         int64_t tokens, int64_t keys, int64_t d,
                         int64_t slabs, const uint8_t *primed, int32_t *out,
                         int32_t *delta, OpCounts *counts,
                         DiffPolicy policy, EngineScratch *scratch)
{
    const int64_t q_elems = tokens * d;
    const int64_t k_elems = keys * d;
    const int64_t out_elems = tokens * keys;
    const bool primed_any = anyPrimed(primed, slabs);
    const DiffOperand q =
        primed_any ? storedForm(q_in, slabs * q_elems, &scratch->prevA)
                   : q_in;
    const DiffOperand k =
        primed_any ? storedForm(k_in, slabs * k_elems, &scratch->prevB)
                   : k_in;

    // Per-slab decisions. Sub-op 1: Q_t dK^T — dK elements each
    // multiply `tokens` rows of Q. Sub-op 2: dQ K_prev^T — dQ elements
    // each multiply `keys` rows of K.
    std::vector<uint8_t> &use_diff = scratch->useDiff;
    use_diff.assign(static_cast<size_t>(slabs), 0);
    if (primed_any) {
        scratch->reserve(&scratch->plans, slabs, tokens, d);
        scratch->reserve(&scratch->plans2, slabs, keys, d);
        const auto bt_elems = static_cast<size_t>(slabs * (q_elems + k_elems));
        if (scratch->bT.capacity() < bt_elems)
            scratch->bT.reserve(bt_elems);
    }
    int64_t n_diff = 0;
    for (int64_t s = 0; s < slabs; ++s) {
        if (!primed || !primed[s])
            continue;
        DITTO_ASSERT(q.prev && k.prev, "primed slabs need previous state");
        const DiffClassCounts probe_dq = q.probe(s * q_elems, q_elems);
        const DiffClassCounts probe_dk = k.probe(s * k_elems, k_elems);
        if (counts) {
            counts[s].merge(probeOpCounts(probe_dk, tokens));
            counts[s].merge(probeOpCounts(probe_dq, keys));
        }
        // Two sub-ops against one dense product: revert unless the
        // combined predicted sparse cost undercuts Q_t K_t^T.
        const double predicted =
            diffMacPenalty(tokens) *
                static_cast<double>(probe_dk.nonzero()) *
                static_cast<double>(tokens) +
            diffMacPenalty(keys) * static_cast<double>(probe_dq.nonzero()) *
                static_cast<double>(keys);
        use_diff[s] =
            policy == DiffPolicy::ForceDiff ||
            predicted < static_cast<double>(tokens * keys * d);
        n_diff += use_diff[s];
    }

    for (int64_t s = 0; s < slabs; ++s) {
        if (use_diff[s])
            continue;
        // Direct slabs: each attends within its own rows, so the K
        // operand differs per slab and runs stay per-slab GEMMs.
        std::memset(out + s * out_elems, 0,
                    static_cast<size_t>(out_elems) * sizeof(int32_t));
        kernels::gemmInt8Into(q.codes + s * q_elems, tokens, d,
                              k.codes + s * k_elems, keys,
                              /*trans_b=*/true, out + s * out_elems);
    }
    if (n_diff == 0)
        return;

    // Diff slabs: S_t = prev + dQ K_prev^T + (dK Q_t^T)^T, every term
    // batched into one dispatch across slabs; the slab's region of
    // `out` already holds prev.
    std::fill(delta, delta + n_diff * out_elems, 0);
    // Both products multiply an operand transposed: the engine
    // de-transposes them into [d, keys] / [d, tokens] scratch once, so
    // the plan dispatch reads contiguous rows.
    std::vector<int8_t> &bt = scratch->bT;
    bt.resize(static_cast<size_t>(n_diff * (q_elems + k_elems)));
    std::vector<kernels::DiffGemmBatchItem> &items_a = scratch->items;
    std::vector<kernels::DiffGemmBatchItem> &items_b = scratch->items2;
    std::vector<int64_t> &diff_slabs = scratch->slabOf;
    items_a.clear();
    items_b.clear();
    diff_slabs.clear();
    int32_t *sd = delta;
    for (int64_t s = 0; s < slabs; ++s) {
        if (!use_diff[s])
            continue;
        const auto di = static_cast<int64_t>(diff_slabs.size());
        DiffGemmPlan &plan_dq = scratch->plans[static_cast<size_t>(di)];
        DiffGemmPlan &plan_dk = scratch->plans2[static_cast<size_t>(di)];
        q.encode(s * q_elems, tokens, d, &plan_dq);
        k.encode(s * k_elems, keys, d, &plan_dk);
        int8_t *kt = bt.data() + di * (q_elems + k_elems);
        int8_t *qt = kt + k_elems;
        kernels::transposeInt8Into(k.prev + s * k_elems, keys, d, kt);
        kernels::transposeInt8Into(q.codes + s * q_elems, tokens, d, qt);
        items_a.push_back({&plan_dq, kt, out + s * out_elems});
        items_b.push_back({&plan_dk, qt, sd + di * out_elems});
        diff_slabs.push_back(s);
    }
    kernels::diffGemmBatch(items_a, keys);
    kernels::diffGemmBatch(items_b, tokens);
    const int64_t *slab_of = diff_slabs.data();
    parallelFor(0, n_diff, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            kernels::addTransposedInt32InPlace(out + slab_of[i] * out_elems,
                                               sd + i * out_elems, tokens,
                                               keys);
    });
}

Int32Tensor
attentionOutputDirect(const Int8Tensor &p, const Int8Tensor &v)
{
    return matmulInt8(p, v);
}

Int32Tensor
attentionOutputDiff(const Int8Tensor &p, const Int8Tensor &prev_p,
                    const Int8Tensor &v, const Int8Tensor &prev_v,
                    const Int32Tensor &prev_out, OpCounts *counts,
                    DiffPolicy policy)
{
    DITTO_ASSERT(p.shape() == prev_p.shape() && v.shape() == prev_v.shape(),
                 "attention diff operand shape mismatch");
    DITTO_ASSERT(p.shape().rank() == 2 && v.shape().rank() == 2,
                 "P/V must be matrices");
    const int64_t rows = p.shape()[0];
    const int64_t inner = p.shape()[1];
    const int64_t d = v.shape()[1];
    DITTO_ASSERT(v.shape()[0] == inner, "P/V inner dimension mismatch");
    const DiffOperand po{p.data().data(), prev_p.data().data(), nullptr};
    const DiffOperand vo{v.data().data(), prev_v.data().data(), nullptr};
    std::vector<int32_t> delta(static_cast<size_t>(rows * d));
    return detail::runPrimed(
        prev_out, Shape{rows, d}, 1, counts,
        [&](int32_t *out, const uint8_t *primed, OpCounts *slab_counts,
            EngineScratch *scratch) {
            attentionOutputBatchInto(po, vo, rows, inner, d, 1, primed, out,
                                     delta.data(), slab_counts, policy,
                                     scratch);
        });
}

void
attentionOutputBatchInto(const DiffOperand &p_in, const DiffOperand &v_in,
                         int64_t rows, int64_t inner, int64_t d,
                         int64_t slabs, const uint8_t *primed, int32_t *out,
                         int32_t *delta, OpCounts *counts,
                         DiffPolicy policy, EngineScratch *scratch)
{
    const int64_t p_elems = rows * inner;
    const int64_t v_elems = inner * d;
    const int64_t out_elems = rows * d;
    const bool primed_any = anyPrimed(primed, slabs);
    const DiffOperand p =
        primed_any ? storedForm(p_in, slabs * p_elems, &scratch->prevA)
                   : p_in;
    const DiffOperand v =
        primed_any ? storedForm(v_in, slabs * v_elems, &scratch->prevB)
                   : v_in;

    // Per-slab decisions: sub-op 1 (P_t dV) charges each dV element
    // `rows` multiplies, sub-op 2 (dP V_prev) each dP element `d`.
    std::vector<uint8_t> &use_diff = scratch->useDiff;
    use_diff.assign(static_cast<size_t>(slabs), 0);
    if (primed_any) {
        scratch->reserve(&scratch->plans, slabs, rows, inner);
        scratch->reserve(&scratch->plans2, slabs, d, inner);
        if (scratch->bT.capacity() < static_cast<size_t>(slabs * p_elems))
            scratch->bT.reserve(static_cast<size_t>(slabs * p_elems));
    }
    int64_t n_diff = 0;
    for (int64_t s = 0; s < slabs; ++s) {
        if (!primed || !primed[s])
            continue;
        DITTO_ASSERT(p.prev && v.prev, "primed slabs need previous state");
        const DiffClassCounts probe_dp = p.probe(s * p_elems, p_elems);
        const DiffClassCounts probe_dv = v.probe(s * v_elems, v_elems);
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
        n_diff += use_diff[s];
    }

    for (int64_t s = 0; s < slabs; ++s) {
        if (use_diff[s])
            continue;
        std::memset(out + s * out_elems, 0,
                    static_cast<size_t>(out_elems) * sizeof(int32_t));
        kernels::gemmInt8Into(p.codes + s * p_elems, rows, inner,
                              v.codes + s * v_elems, d, /*trans_b=*/false,
                              out + s * out_elems);
    }
    if (n_diff == 0)
        return;

    // Diff slabs: O_t = prev + dP V_prev + (dV^T P_t^T)^T, batched; the
    // slab's region of `out` already holds prev.
    std::fill(delta, delta + n_diff * out_elems, 0);
    // (dV^T P_t^T) multiplies P_t transposed: de-transposed once into
    // [inner, rows] scratch per diff slab.
    std::vector<int8_t> &bt = scratch->bT;
    bt.resize(static_cast<size_t>(n_diff * p_elems));
    std::vector<kernels::DiffGemmBatchItem> &items_a = scratch->items;
    std::vector<kernels::DiffGemmBatchItem> &items_b = scratch->items2;
    std::vector<int64_t> &diff_slabs = scratch->slabOf;
    items_a.clear();
    items_b.clear();
    diff_slabs.clear();
    int32_t *sd = delta;
    for (int64_t s = 0; s < slabs; ++s) {
        if (!use_diff[s])
            continue;
        const auto di = static_cast<int64_t>(diff_slabs.size());
        DiffGemmPlan &plan_dp = scratch->plans[static_cast<size_t>(di)];
        DiffGemmPlan &plan_dvt = scratch->plans2[static_cast<size_t>(di)];
        p.encode(s * p_elems, rows, inner, &plan_dp);
        encodeTemporalDiffTransposedInto(v.codes + s * v_elems,
                                         v.prev + s * v_elems, inner, d,
                                         &plan_dvt);
        int8_t *pt = bt.data() + di * p_elems;
        kernels::transposeInt8Into(p.codes + s * p_elems, rows, inner, pt);
        items_a.push_back(
            {&plan_dp, v.prev + s * v_elems, out + s * out_elems});
        items_b.push_back({&plan_dvt, pt, sd + di * d * rows});
        diff_slabs.push_back(s);
    }
    kernels::diffGemmBatch(items_a, d);
    kernels::diffGemmBatch(items_b, rows);
    const int64_t *slab_of = diff_slabs.data();
    parallelFor(0, n_diff, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            kernels::addTransposedInt32InPlace(out + slab_of[i] * out_elems,
                                               sd + i * d * rows, rows, d);
    });
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
    DITTO_ASSERT(q.shape().rank() == 2 && q.shape()[1] == kConst_.shape()[1],
                 "cross attention query must be [rows, d]");
    const int64_t rows = q.shape()[0];
    const DiffOperand op{q.data().data(), prev_q.data().data(), nullptr};
    return detail::runPrimed(
        prev_scores, Shape{rows, kConst_.shape()[0]}, 1, counts,
        [&](int32_t *out, const uint8_t *primed, OpCounts *slab_counts,
            EngineScratch *scratch) {
            runBatchInto(op, rows, 1, primed, out, slab_counts, policy,
                         scratch);
        });
}

void
CrossAttentionEngine::runBatchInto(const DiffOperand &q, int64_t rows,
                                   int64_t slabs, const uint8_t *primed,
                                   int32_t *out, OpCounts *counts,
                                   DiffPolicy policy,
                                   EngineScratch *scratch) const
{
    detail::runBatchWeightStationaryInto(q, rows, slabs, primed, out, counts,
                                         policy, kConst_, kConstT_, scratch);
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
