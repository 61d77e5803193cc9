/**
 * @file
 * Attention difference processing implementation.
 *
 * Each of the two correction terms pairs one full-bit-width operand
 * with one narrow difference operand; the difference operand is
 * encoded into a sparse panel plan and executed by the batched
 * plan-driven diff GEMM. Scores (A B^T) and the weighted sum (A B) run
 * one body, attentionBatchInto; the single-request entry points run it
 * on one slab. The term whose sparse operand sits on the right of the
 * product is computed transposed — (A dB)^T = dB^T A^T — so the plan
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
            attentionBatchInto(qo, ko, tokens, q.shape()[1], keys,
                               /*trans_b=*/true, 1, primed, out, delta.data(),
                               slab_counts, policy, scratch);
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
            attentionBatchInto(po, vo, rows, inner, d, /*trans_b=*/false, 1,
                               primed, out, delta.data(), slab_counts, policy,
                               scratch);
        });
}

void
attentionBatchInto(const DiffOperand &a_in, const DiffOperand &b_in,
                   int64_t m, int64_t k, int64_t n, bool trans_b,
                   int64_t slabs, const uint8_t *primed, int32_t *out,
                   int32_t *delta, OpCounts *counts, DiffPolicy policy,
                   EngineScratch *scratch)
{
    const int64_t a_elems = m * k;
    const int64_t b_elems = k * n;
    const int64_t out_elems = m * n;
    // De-transposed scratch per diff slab: A_t^T [k, m], and for A B^T
    // also B_prev^T [k, n] (A B reads B_prev as it is).
    const int64_t bt_stride = a_elems + (trans_b ? b_elems : 0);
    const bool primed_any = anyPrimed(primed, slabs);
    const DiffOperand a =
        primed_any ? storedForm(a_in, slabs * a_elems, &scratch->prevA)
                   : a_in;
    const DiffOperand b =
        primed_any ? storedForm(b_in, slabs * b_elems, &scratch->prevB)
                   : b_in;

    // Per-slab decisions. Sub-op 1, A_t dB: each dB element multiplies
    // `m` rows of A. Sub-op 2, dA B_prev: each dA element multiplies
    // `n` columns of B.
    std::vector<uint8_t> &use_diff = scratch->useDiff;
    use_diff.assign(static_cast<size_t>(slabs), 0);
    if (primed_any) {
        scratch->reserve(&scratch->plans, slabs, m, k);
        scratch->reserve(&scratch->plans2, slabs, n, k);
        if (scratch->bT.capacity() < static_cast<size_t>(slabs * bt_stride))
            scratch->bT.reserve(static_cast<size_t>(slabs * bt_stride));
    }
    int64_t n_diff = 0;
    for (int64_t s = 0; s < slabs; ++s) {
        if (!primed || !primed[s])
            continue;
        DITTO_ASSERT(a.prev && b.prev, "primed slabs need previous state");
        const DiffClassCounts probe_da = a.probe(s * a_elems, a_elems);
        const DiffClassCounts probe_db = b.probe(s * b_elems, b_elems);
        if (counts) {
            counts[s].merge(probeOpCounts(probe_db, m));
            counts[s].merge(probeOpCounts(probe_da, n));
        }
        // Two sub-ops against one dense product: revert unless the
        // combined predicted sparse cost undercuts A_t B_t.
        const double predicted =
            diffMacPenalty(m) * static_cast<double>(probe_db.nonzero()) *
                static_cast<double>(m) +
            diffMacPenalty(n) * static_cast<double>(probe_da.nonzero()) *
                static_cast<double>(n);
        use_diff[s] = policy == DiffPolicy::ForceDiff ||
                      predicted < static_cast<double>(m * k * n);
        n_diff += use_diff[s];
    }

    for (int64_t s = 0; s < slabs; ++s) {
        if (use_diff[s])
            continue;
        // Direct slabs: each multiplies its own B, so runs stay
        // per-slab GEMMs.
        std::memset(out + s * out_elems, 0,
                    static_cast<size_t>(out_elems) * sizeof(int32_t));
        kernels::gemmInt8Into(a.codes + s * a_elems, m, k,
                              b.codes + s * b_elems, n, trans_b,
                              out + s * out_elems);
    }
    if (n_diff == 0)
        return;

    // Diff slabs: out_t = prev + dA B_prev + (dB^T A_t^T)^T, each term
    // batched into one dispatch across slabs; the slab's region of
    // `out` already holds prev. The plan dispatch reads contiguous
    // rows, so the dense factors are de-transposed into scratch once.
    std::fill(delta, delta + n_diff * out_elems, 0);
    std::vector<int8_t> &bt = scratch->bT;
    bt.resize(static_cast<size_t>(n_diff * bt_stride));
    std::vector<kernels::DiffGemmBatchItem> &items_a = scratch->items;
    std::vector<kernels::DiffGemmBatchItem> &items_b = scratch->items2;
    std::vector<int64_t> &diff_slabs = scratch->slabOf;
    items_a.clear();
    items_b.clear();
    diff_slabs.clear();
    for (int64_t s = 0; s < slabs; ++s) {
        if (!use_diff[s])
            continue;
        const auto di = static_cast<int64_t>(diff_slabs.size());
        DiffGemmPlan &plan_da = scratch->plans[static_cast<size_t>(di)];
        DiffGemmPlan &plan_dbt = scratch->plans2[static_cast<size_t>(di)];
        a.encode(s * a_elems, m, k, &plan_da);
        const int8_t *b_prev = b.prev + s * b_elems;
        int8_t *at = bt.data() + di * bt_stride;
        kernels::transposeInt8Into(a.codes + s * a_elems, m, k, at);
        if (trans_b) {
            // B is [n, k]: dB is already dB^T's layout; B_prev^T is not.
            b.encode(s * b_elems, n, k, &plan_dbt);
            int8_t *bpt = at + a_elems;
            kernels::transposeInt8Into(b_prev, n, k, bpt);
            b_prev = bpt;
        } else {
            encodeTemporalDiffTransposedInto(b.codes + s * b_elems, b_prev,
                                             k, n, &plan_dbt);
        }
        items_a.push_back({&plan_da, b_prev, out + s * out_elems});
        items_b.push_back({&plan_dbt, at, delta + di * out_elems});
        diff_slabs.push_back(s);
    }
    kernels::diffGemmBatch(items_a, n);
    kernels::diffGemmBatch(items_b, m);
    const int64_t *slab_of = diff_slabs.data();
    parallelFor(0, n_diff, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            kernels::addTransposedInt32InPlace(out + slab_of[i] * out_elems,
                                               delta + i * out_elems, m, n);
    });
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

} // namespace naive

} // namespace ditto
