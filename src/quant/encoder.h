/**
 * @file
 * Software Encoding Unit: builds the panel plan the sparse diff-GEMM
 * executes (paper Section V-B, Fig. 11, in plan form).
 *
 * The hardware Encoding Unit subtracts adjacent-step activations,
 * classifies every difference (zero / 4-bit lane / full path) and
 * reorders the survivors toward the Compute Unit lanes. This module is
 * the same pipeline targeting tensor/diff_gemm.h: one pass over the
 * difference operand produces
 *
 *  - the per-panel class table with a zero-panel skip list,
 *  - packed 4-bit lane panels and verbatim int16 fallback panels, and
 *  - exact element-class tallies (quant/bitwidth.h semantics), so the
 *    OpCounts the execution engines report are a by-product of the same
 *    pass that drives execution — tally and execution cannot diverge
 *    the way the old ad-hoc classifyValue loops could.
 *
 * Rows are encoded independently (two parallel passes linked by a
 * serial prefix scan), so plans are deterministic at any thread count.
 */
#ifndef DITTO_QUANT_ENCODER_H
#define DITTO_QUANT_ENCODER_H

#include <span>

#include "quant/quantizer.h"
#include "tensor/diff_gemm.h"
#include "tensor/tensor.h"

namespace ditto {

/**
 * Element-class tallies of a temporal difference, produced by one
 * vectorized counting sweep — the cheap prefix of full encoding. The
 * engines use it both for OpCounts accounting and as the Defo-style
 * cost probe that decides whether difference execution is worth it
 * before paying for the plan (paper Section IV-C: the Encoding Unit's
 * class counts are exactly the statistic the flow controller needs).
 */
struct DiffClassCounts
{
    int64_t zero = 0;
    int64_t low4 = 0;
    int64_t full8 = 0;

    int64_t total() const { return zero + low4 + full8; }
    int64_t nonzero() const { return low4 + full8; }
};

/**
 * Encode an already-subtracted int16 difference matrix [rows, cols].
 * Values must lie in the int8-code difference domain [-254, 254].
 */
DiffGemmPlan encodeDiff(const Int16Tensor &diff);

/**
 * Fused subtract + encode of a temporal difference current - previous
 * (both int8 code matrices of the same shape) without materializing the
 * intermediate int16 tensor.
 */
DiffGemmPlan encodeTemporalDiff(const Int8Tensor &current,
                                const Int8Tensor &previous);

/**
 * Like encodeTemporalDiff but encodes the *transpose* of the difference:
 * for operands [r, c] the plan describes (current - previous)^T with
 * rows = c, cols = r. Used when the sparse operand is the right-hand
 * factor of a product (e.g. P_t * dV computed as (dV^T P_t^T)^T).
 */
DiffGemmPlan encodeTemporalDiffTransposed(const Int8Tensor &current,
                                          const Int8Tensor &previous);

/**
 * @name Raw-buffer forms (the engines' allocation-free path)
 *
 * The same probes and encodings over caller-owned flat storage. The
 * Into encoders reuse the plan's storage (see encodeImpl in
 * encoder.cc: streams are reserved at their worst case once per plan
 * object), so an engine that keeps its plans across calls encodes
 * without allocating.
 * @{
 */

/**
 * Count difference classes of `count` elements of current - previous
 * (raw codes; one flat region, e.g. a batch slab).
 */
DiffClassCounts countTemporalDiffClasses(const int8_t *current,
                                         const int8_t *previous,
                                         int64_t count);

/**
 * Count classes of `count` elements of an explicit int16 difference:
 * the probe for callers whose difference was handed over by a
 * producer layer instead of being subtracted here (dependency-analysis
 * bypass). Equals countTemporalDiffClasses of operands whose
 * subtraction is `diff`.
 */
DiffClassCounts countDiffClasses(const int16_t *diff, int64_t count);

/**
 * Reserve `plan`'s storage for any [rows, cols] operand (the worst
 * case: every element nonzero), so encoding such an operand into it
 * never allocates. The Into encoders do this themselves.
 */
void reserveDiffPlan(DiffGemmPlan *plan, int64_t rows, int64_t cols);

/**
 * Encode a raw [rows, cols] difference (values in [-254, 254]) into
 * `plan`: exactly the plan encodeTemporalDiffInto would produce for
 * operands whose subtraction is `diff`.
 */
void encodeDiffInto(const int16_t *diff, int64_t rows, int64_t cols,
                    DiffGemmPlan *plan);

/**
 * encodeTemporalDiff of raw [rows, cols] codes into `plan`: the region
 * may start anywhere in flat storage, e.g. the [Cin, H*W] batch slab of
 * an NCHW difference the sparse scatter convolution consumes.
 */
void encodeTemporalDiffInto(const int8_t *current, const int8_t *previous,
                            int64_t rows, int64_t cols, DiffGemmPlan *plan);

/**
 * encodeTemporalDiffTransposed of raw [rows, cols] codes into `plan`
 * (plan rows = cols, plan cols = rows). Used by the batched attention
 * path, where each request's P/V operand is one row slab of a stacked
 * code matrix.
 */
void encodeTemporalDiffTransposedInto(const int8_t *current,
                                      const int8_t *previous, int64_t rows,
                                      int64_t cols, DiffGemmPlan *plan);

/** @} */

/**
 * One producer feeding a multi-producer requant-delta fold: its
 * resident int32 accumulator and the combined dequantization scale
 * (activation scale x weight scale) that maps accumulator units to
 * real values.
 */
struct RequantSource
{
    const int32_t *acc = nullptr; //!< current-step accumulator (flat)
    float scale = 1.0f;           //!< combined dequantization scale
};

/**
 * Multi-producer requant-delta for an `Add` junction region: combine N
 * producers' accumulators into one consumable code-diff stream at the
 * consumer's quantization point. For every element i
 *
 *   codes[i] = Q(sum_s acc_s[i] * scale_s)
 *   d16[i]   = codes[i] - prev_codes[i]
 *
 * with Q the symmetric int8 quantizer at `qp` and the sum taken in
 * left-associated float order — element for element exactly the codes
 * the consumer would have produced by quantizing the dequantized,
 * float-added producer outputs (the scale-alignment argument in
 * docs/graph_runtime.md). `prev_codes` is the same fold's emission of
 * the previous step (the junction's resident code state), so the
 * difference equals the subtraction the consumer would have performed
 * against stored input codes, without a float recomputation of the
 * previous step; pass null while unprimed (codes only). This file is
 * compiled with FP contraction off so every product rounds like the
 * dense path's per-tensor stores.
 */
void requantSumDelta(std::span<const RequantSource> srcs, int64_t n,
                     const QuantParams &qp, const int8_t *prev_codes,
                     int8_t *codes, int16_t *d16);

/**
 * requantSumDelta through nearest-neighbour 2x upsampling: sources are
 * [c, h, w] maps, the emitted region is [c, 2h, 2w] with output
 * (y, x) reading source (y/2, x/2). Each source element is requantized
 * once and written to its four output positions — bitwise identical to
 * upsampling the float sum first (the replicated values are equal).
 */
void requantUpsample2xSumDelta(std::span<const RequantSource> srcs,
                               int64_t c, int64_t h, int64_t w,
                               const QuantParams &qp,
                               const int8_t *prev_codes, int8_t *codes,
                               int16_t *d16);

/**
 * requantSumDelta through 2x2 average pooling: sources are [c, h, w]
 * maps (h, w even), the emitted region is [c, h/2, w/2]. Per output
 * element the four taps are summed across sources first (the Add
 * junction), then averaged in the dense path's tap order
 * ((t00 + t01 + t10 + t11) * 0.25f), then quantized.
 */
void requantAvgPool2xSumDelta(std::span<const RequantSource> srcs,
                              int64_t c, int64_t h, int64_t w,
                              const QuantParams &qp,
                              const int8_t *prev_codes, int8_t *codes,
                              int16_t *d16);

} // namespace ditto

#endif // DITTO_QUANT_ENCODER_H
