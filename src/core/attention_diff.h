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
 * Cross attention needs no engine of its own: the context projections
 * K' and V' do not change across time steps, so Q' K'^T is an
 * ordinary weight-stationary layer with K' as the weight, and P' V' one
 * with V'^T as the weight — the graph runtime runs both on a
 * DiffFcEngine (core/diff_linear.h).
 *
 * Both dynamic products run one sparse body, attentionBatchInto, which
 * covers out = A B^T (scores) and out = A B (weighted sum) over a stack
 * of request slabs: the difference operands are encoded into panel
 * plans (quant/encoder.h) for the batched plan kernels of
 * tensor/diff_gemm.h. The dense two-term expansions live on under
 * ditto::naive as parity references.
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
 * S_t = prev_scores + Q_t dK^T + dQ K_prev^T, as attentionBatchInto
 * (trans_b) on the caller's operands as one primed slab.
 * Q:[tokens,d], K:[keys,d].
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

/** Direct weighted sum O = P V. P:[tokens,tokens], V:[tokens,d]. */
Int32Tensor attentionOutputDirect(const Int8Tensor &p, const Int8Tensor &v);

/**
 * Difference-processed weighted sum:
 * O_t = prev_out + P_t dV + dP V_prev, as attentionBatchInto (not
 * trans_b) on the caller's operands as one primed slab.
 */
Int32Tensor attentionOutputDiff(const Int8Tensor &p,
                                const Int8Tensor &prev_p,
                                const Int8Tensor &v,
                                const Int8Tensor &prev_v,
                                const Int32Tensor &prev_out,
                                OpCounts *counts = nullptr,
                                DiffPolicy policy = DiffPolicy::Auto);

/**
 * The one dynamic-attention body, on caller-owned buffers, over `slabs`
 * requests stacked along the row dimension: out = A B^T when `trans_b`
 * (scores: a stacks [m, k] queries, b [n, k] keys) and out = A B
 * otherwise (weighted sum: a stacks [m, k] probabilities, b [k, n]
 * values); slab s multiplies only its own operands. Per slab it runs
 * direct when the slab is unprimed or the probe reverts, the two-term
 * expansion out_t = prev + dA B_prev + A_t dB otherwise, where the
 * A_t dB term runs transposed (dB^T A_t^T) so the plan operand is
 * always the left factor. Unprimed slabs do not touch `counts`
 * (per-slab tallies, array of `slabs`, or null).
 *
 * Each operand arrives either with stored previous codes or with its
 * producer's requantized code difference (the graph runtime's
 * dynamic-attention hand-over; no previous codes were stored for it).
 * The previous operand the expansion multiplies against is
 * reconstructed into scratch as codes - d, which is exact in the
 * integer domain, so results, probes and Defo decisions are bitwise
 * identical to operands whose subtraction equals the handed-over
 * difference. `out` [slabs * m, n] holds every primed slab's previous
 * output on entry — direct slabs overwrite their region, diff slabs
 * accumulate the expansion into it in place. `delta` is caller scratch
 * of `out`'s size for the transposed correction terms (contents
 * unspecified on entry; the graph runtime plans it in its arena).
 * Bitwise identical at any thread count and batch size.
 */
void attentionBatchInto(const DiffOperand &a, const DiffOperand &b,
                        int64_t m, int64_t k, int64_t n, bool trans_b,
                        int64_t slabs, const uint8_t *primed, int32_t *out,
                        int32_t *delta, OpCounts *counts, DiffPolicy policy,
                        EngineScratch *scratch);

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

} // namespace naive

} // namespace ditto

#endif // DITTO_CORE_ATTENTION_DIFF_H
