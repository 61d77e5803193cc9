/**
 * @file
 * Temporal difference processing for attention layers (Section IV-A).
 *
 * Attention matmuls multiply two *dynamic* operands, so the naive
 * expansion of Q_t K_t^T around the previous step's operands needs
 * three correction terms. The paper folds them into two:
 *
 *   Q_t K_t^T = Q_p K_p^T + Q_t dK^T + dQ K_p^T,
 *
 * where p is the previous step, dQ = Q_t - Q_p and dK = K_t - K_p
 * (because Q_p dK^T + dQ dK^T = Q_t dK^T). Each sub-operation pairs one
 * full-bit-width operand, treated as the "weight", with one narrow
 * difference operand — exactly the shape the Compute Unit handles. The
 * same identity applies to P x V.
 *
 * Cross attention is simpler: the context projections K' and V' do not
 * change across time steps, so Q' K'^T is an ordinary weight-stationary
 * layer with K' as the weight (and likewise P' V').
 *
 * All difference operands are executed through the sparse panel-plan
 * path (quant/encoder.h + the batched plan kernels of
 * tensor/diff_gemm.h), once per op in its *BatchInto body; the dense
 * two-term expansions live on under ditto::naive as parity references.
 */
#ifndef DITTO_CORE_ATTENTION_DIFF_H
#define DITTO_CORE_ATTENTION_DIFF_H

#include "core/diff_linear.h"
#include "tensor/tensor.h"

namespace ditto {

/**
 * Direct score computation S = Q K^T (int8 operands, int32 scores).
 * Q:[tokens,d], K:[tokens,d].
 */
Int32Tensor attentionScoresDirect(const Int8Tensor &q, const Int8Tensor &k);

/**
 * Difference-processed scores:
 * S_t = prev_scores + Q_t dK^T + dQ K_prev^T, as
 * attentionScoresBatchInto on the caller's operands as one primed
 * slab. Q:[tokens,d], K:[keys,d].
 *
 * @param counts tallies the multiplies of both sub-operations by the
 *        bit class of their difference operand.
 * @param policy Auto reverts to direct execution (bit-identical) when
 *        the class-count probe predicts both sub-operations together
 *        cost more than one dense product — attention pays two
 *        difference sub-ops per matmul, so it needs roughly twice the
 *        sparsity a weight-stationary layer does.
 */
Int32Tensor attentionScoresDiff(const Int8Tensor &q,
                                const Int8Tensor &prev_q,
                                const Int8Tensor &k,
                                const Int8Tensor &prev_k,
                                const Int32Tensor &prev_scores,
                                OpCounts *counts = nullptr,
                                DiffPolicy policy = DiffPolicy::Auto);

/**
 * The one scores body, on caller-owned buffers, over `slabs` requests
 * stacked along the token dimension: q stacks `slabs` [tokens, d] and
 * k `slabs` [keys, d] operands, slab s attends only within its own
 * rows. Per slab it runs direct when the slab is unprimed or the probe
 * reverts, the two-term sparse expansion otherwise; unprimed slabs do
 * not touch `counts` (per-slab tallies, array of `slabs`, or null).
 * Each operand arrives either with stored previous codes or with its
 * producer's requantized code difference (the graph runtime's
 * dynamic-attention hand-over; no previous codes were stored for it).
 * The previous operand the two-term expansion multiplies against is
 * reconstructed into scratch as codes - d, which is exact in the
 * integer domain, so results, probes and Defo decisions are bitwise
 * identical to operands whose subtraction equals the handed-over
 * difference. `out` [slabs * tokens, keys] holds every primed slab's
 * previous scores on entry — direct slabs overwrite their region, diff
 * slabs accumulate the expansion into it in place. `delta` is caller
 * scratch of `out`'s size for the transposed correction terms
 * (contents unspecified on entry; the graph runtime plans it in its
 * arena). Bitwise identical at any thread count and batch size.
 */
void attentionScoresBatchInto(const DiffOperand &q, const DiffOperand &k,
                              int64_t tokens, int64_t keys, int64_t d,
                              int64_t slabs, const uint8_t *primed,
                              int32_t *out, int32_t *delta, OpCounts *counts,
                              DiffPolicy policy, EngineScratch *scratch);

/** Direct weighted sum O = P V. P:[tokens,tokens], V:[tokens,d]. */
Int32Tensor attentionOutputDirect(const Int8Tensor &p, const Int8Tensor &v);

/**
 * Difference-processed weighted sum:
 * O_t = prev_out + P_t dV + dP V_prev, as attentionOutputBatchInto on
 * the caller's operands as one primed slab.
 */
Int32Tensor attentionOutputDiff(const Int8Tensor &p,
                                const Int8Tensor &prev_p,
                                const Int8Tensor &v,
                                const Int8Tensor &prev_v,
                                const Int32Tensor &prev_out,
                                OpCounts *counts = nullptr,
                                DiffPolicy policy = DiffPolicy::Auto);

/**
 * attentionScoresBatchInto for the weighted sum: p stacks [rows, inner]
 * and v [inner, d] operands, `out` [slabs * rows, d].
 */
void attentionOutputBatchInto(const DiffOperand &p, const DiffOperand &v,
                              int64_t rows, int64_t inner, int64_t d,
                              int64_t slabs, const uint8_t *primed,
                              int32_t *out, int32_t *delta, OpCounts *counts,
                              DiffPolicy policy, EngineScratch *scratch);

/**
 * Cross-attention scores with a constant context projection:
 * S = Q' K'^T where K' never changes across steps. Difference
 * processing degenerates to the weight-stationary form
 * S_t = prev + dQ' K'^T.
 */
class CrossAttentionEngine
{
  public:
    /** @param k_const constant K' matrix [ctx_tokens, d]. */
    explicit CrossAttentionEngine(Int8Tensor k_const);

    Int32Tensor runDirect(const Int8Tensor &q) const;

    /** S_t = prev + dQ' K'^T, as runBatchInto on one primed slab. */
    Int32Tensor runDiff(const Int8Tensor &q, const Int8Tensor &prev_q,
                        const Int32Tensor &prev_scores,
                        OpCounts *counts = nullptr,
                        DiffPolicy policy = DiffPolicy::Auto) const;

    /**
     * The one difference body, over `slabs` requests stacked along the
     * query row dimension (DiffFcEngine::runBatchInto semantics).
     */
    void runBatchInto(const DiffOperand &q, int64_t rows, int64_t slabs,
                      const uint8_t *primed, int32_t *out, OpCounts *counts,
                      DiffPolicy policy, EngineScratch *scratch) const;

  private:
    Int8Tensor kConst_;
    Int8Tensor kConstT_; //!< [d, ctx] copy: plan B operand
};

namespace naive {

/**
 * Dense difference references: the scalar two-term expansions the
 * sparse plan-driven paths above are parity-tested against.
 */
Int32Tensor attentionScoresDiff(const Int8Tensor &q,
                                const Int8Tensor &prev_q,
                                const Int8Tensor &k,
                                const Int8Tensor &prev_k,
                                const Int32Tensor &prev_scores,
                                OpCounts *counts = nullptr);
Int32Tensor attentionOutputDiff(const Int8Tensor &p,
                                const Int8Tensor &prev_p,
                                const Int8Tensor &v,
                                const Int8Tensor &prev_v,
                                const Int32Tensor &prev_out,
                                OpCounts *counts = nullptr);
Int32Tensor crossAttentionScoresDiff(const Int8Tensor &q,
                                     const Int8Tensor &prev_q,
                                     const Int8Tensor &k_const,
                                     const Int32Tensor &prev_scores,
                                     OpCounts *counts = nullptr);

} // namespace naive

} // namespace ditto

#endif // DITTO_CORE_ATTENTION_DIFF_H
