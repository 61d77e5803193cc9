/**
 * @file
 * Sparsity-aware difference GEMM — the software mirror of the Ditto
 * accelerator's zero-skip / 4-bit-lane dispatch.
 *
 * The dense kernels in tensor/kernels.h execute a temporal difference
 * operand at full int16 cost even though most of its values are zero
 * (skippable) or fit the signed 4-bit lane. This module executes the
 * same contraction from a *panel encoding plan* (DiffGemmPlan, built in
 * one pass by the software Encoding Unit in quant/encoder.h):
 *
 *  - the K extent of every difference row is cut into panels of
 *    kDiffPanelK elements;
 *  - all-zero panels appear only in the plan's panel table (class Zero)
 *    and are skipped without touching their data;
 *  - panels whose nonzero values all fit the 4-bit lane store those
 *    values as packed nibbles (two per byte) plus one k-offset byte per
 *    entry (class Low4);
 *  - panels containing at least one wider value fall back to verbatim
 *    int16 storage of their nonzero entries (class Full8).
 *
 * Zero *elements* inside Low4/Full8 panels are dropped from the entry
 * streams too, so the executed multiply count equals the nonzero count
 * exactly — the same population the paper's OpCounts tally describes.
 *
 * diffGemmBatch() walks each plan row by row in fixed K order and
 * accumulates into the previous step's int32 output in place. Work is
 * divided at row granularity with parallelFor; the K reduction is
 * never split, so results are bitwise identical to the dense path at
 * any thread count. Every entry point here works on raw buffers; the
 * Tensor forms (matmulDiffPlan, ...) are shims in tensor/ops.h. See
 * docs/diff_exec.md.
 */
#ifndef DITTO_TENSOR_DIFF_GEMM_H
#define DITTO_TENSOR_DIFF_GEMM_H

#include <cstdint>
#include <span>
#include <vector>

namespace ditto {

struct Conv2dParams; // tensor/ops.h

/** Summary class of one K-panel of a difference row. */
enum class PanelClass : uint8_t
{
    Zero = 0,  //!< no nonzero entries: skipped wholesale
    Low4 = 1,  //!< only 4-bit lane entries (packed nibbles)
    Full8 = 2, //!< only wide entries (verbatim int16 fallback)
    Mixed = 3, //!< both lane kinds present
};

/** K extent of one encoding panel (offsets must fit uint8). */
constexpr int64_t kDiffPanelK = 64;

/**
 * One panel's slices of the two entry streams. Lane dispatch is per
 * *element*, exactly like the hardware Encoding Unit: a panel may
 * contribute entries to both the 4-bit lane stream and the wide
 * fallback stream. Panels exist for zero skipping (both counts zero:
 * nothing is stored or executed) and as the work-division granule.
 */
struct PanelRef
{
    int32_t low4Begin = 0;  //!< first entry in the 4-bit lane stream
    int32_t full8Begin = 0; //!< first entry in the wide stream
    uint16_t low4Count = 0;
    uint16_t full8Count = 0;

    bool empty() const { return low4Count == 0 && full8Count == 0; }

    PanelClass
    cls() const
    {
        if (empty())
            return PanelClass::Zero;
        if (full8Count == 0)
            return PanelClass::Low4;
        if (low4Count == 0)
            return PanelClass::Full8;
        return PanelClass::Mixed;
    }
};

/**
 * Panel encoding plan for one difference operand [rows, cols].
 *
 * Entry streams are global: a panel's 4-bit lane entries live at
 * indices [low4Begin, low4Begin+low4Count) of low4Offsets, with the
 * value of entry e packed into nibble (e & 1) of byte
 * low4Nibbles[e >> 1]. Each row's lane entries start at an even index
 * so rows never share a nibble byte (rows can then be encoded in
 * parallel). Wide entries use full8Offsets/full8Values the same way,
 * one int16 per entry.
 *
 * The element tallies below classify every element of the operand by
 * value (quant/bitwidth.h semantics) and coincide with the stream
 * populations (low4Elems lane entries, full8Elems wide entries), so
 * OpCounts accounting is a by-product of encoding.
 */
struct DiffGemmPlan
{
    int64_t rows = 0;   //!< M extent of the difference operand
    int64_t cols = 0;   //!< K extent of the difference operand
    int64_t panelsPerRow = 0;

    std::vector<PanelRef> panels;      //!< rows * panelsPerRow, K order
    std::vector<uint8_t> low4Offsets;  //!< within-panel k offset per entry
    std::vector<uint8_t> low4Nibbles;  //!< packed values, two per byte
    std::vector<uint8_t> full8Offsets; //!< within-panel k offset per entry
    std::vector<int16_t> full8Values;  //!< verbatim wide values

    int64_t zeroElems = 0;  //!< elements classified Zero
    int64_t low4Elems = 0;  //!< elements classified Low4
    int64_t full8Elems = 0; //!< elements classified Full8

    int64_t totalElems() const { return zeroElems + low4Elems + full8Elems; }
    int64_t nonzeroElems() const { return low4Elems + full8Elems; }

    /** Sign-extended value of Low4 entry `e`. */
    int32_t
    low4Value(int64_t e) const
    {
        const uint8_t byte = low4Nibbles[static_cast<size_t>(e >> 1)];
        const uint8_t nib = (e & 1) ? (byte >> 4) : (byte & 0x0F);
        return (static_cast<int32_t>(nib) ^ 8) - 8; // sign-extend 4 bits
    }
};

namespace kernels {

/**
 * @name Batched plan execution (serving substrate)
 *
 * The batched denoising path carries one encoding plan per request;
 * these entry points execute a whole batch of plans through a single
 * parallelFor dispatch, dividing work across (request, row) /
 * (request, band) pairs so the pool sees the union of all requests'
 * work. Each request's sub-problem keeps exactly the single-plan
 * accumulation order, so results are bitwise identical to per-request
 * calls at any thread count.
 * @{
 */

/** One request's slice of a batched sparse diff GEMM. */
struct DiffGemmBatchItem
{
    const DiffGemmPlan *plan = nullptr;
    /**
     * B operand [k, n], row-major: callers whose product needs B^T
     * de-transpose it first (transposeInt8Into), once per operand.
     */
    const int8_t *b = nullptr;
    /**
     * Output rows [plan->rows, n], row-major. Must be pre-filled with
     * the accumulation base (previous output, or zeros for a bare
     * delta); rows the plan leaves untouched keep their base values.
     */
    int32_t *out = nullptr;
};

/**
 * Execute a batch of sparse diff GEMMs: for each item,
 * item.out += D_item * B_item. All items share the output column
 * count `n`. Allocates nothing for batches of up to 64 items.
 */
void diffGemmBatch(std::span<const DiffGemmBatchItem> items, int64_t n);

/** One request's slice of a batched scatter convolution. */
struct ConvScatterBatchItem
{
    /** Plan over the request's raw [Cin, H*W] difference slab. */
    const DiffGemmPlan *plan = nullptr;
    /** Pixel-major delta [OH*OW, Cout] to fill (zero-initialized). */
    int32_t *delta = nullptr;
};

/**
 * Sparse scatter convolution deltas, one per item. Each plan encodes a
 * request's *raw* difference slab [Cin, H*W] — no im2col expansion, so
 * the Encoding Unit touches each difference value once instead of K*K
 * times. `wmat_t` points at the OIHW weight viewed as [Cout, Cin*K*K]
 * and transposed to [Cin*K*K, Cout] row-major (cached by
 * DiffConvEngine); row ic*K*K + ky*K + kx holds the output-channel
 * vector for tap (ic, ky, kx). `wrev_t` is the same data regrouped as
 * [Cin*K, K*Cout] with kx *descending* within a row: for stride-1
 * interior pixels the K windows of one kernel row land on K adjacent
 * output pixels, so the whole kernel row becomes a single contiguous
 * K*Cout-wide axpy against a wrev_t row. Boundary pixels (and any
 * stride > 1) take the window-by-window path. Every nonzero difference
 * value is scattered through its valid kernel windows into the item's
 * pixel-major delta [OH*OW, Cout].
 *
 * Non-pointwise items split into (item, output-row band) tasks, each
 * walking its plan in fixed order and writing only its own output
 * rows; 1x1/stride-1/pad-0 items are serial per slab and run
 * item-parallel. Bitwise identical at any thread count.
 */
void convDiffScatterBatch(std::span<const ConvScatterBatchItem> items,
                          const int8_t *wmat_t, const int8_t *wrev_t,
                          const Conv2dParams &p, int64_t h, int64_t w);

/** acc[m,n] += delta[n,m]^T in place (tiled). */
void addTransposedInt32InPlace(int32_t *acc, const int32_t *delta,
                               int64_t m, int64_t n);
/** @} */

/** dst[c, r] = src[r, c] for src:[rows, cols] (tiled, parallel). */
void transposeInt8Into(const int8_t *src, int64_t rows, int64_t cols,
                       int8_t *dst);

/**
 * In-place conv delta fold for the flipped Ditto state: the
 * accumulator already holds the previous output, so
 * acc[b, c, p] += delta[b * pix * ch + p * ch + c] over `batches`
 * stacked [ch, pix] slabs and a pixel-major delta [batches * pix, ch].
 */
void addConvDeltaInPlace(int32_t *acc, const int32_t *delta,
                         int64_t batches, int64_t ch, int64_t pix);

} // namespace kernels
} // namespace ditto

#endif // DITTO_TENSOR_DIFF_GEMM_H
