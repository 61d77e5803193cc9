/**
 * @file
 * Software Encoding Unit implementation.
 *
 * Two row-parallel passes joined by a serial prefix scan:
 *  1. classify every panel (count nonzero entries, detect wide values)
 *     and tally element classes;
 *  2. after reserving exact stream space per row, emit offsets, packed
 *     nibbles and fallback values.
 * Stream layout depends only on the data, never on the thread count.
 */
#include "quant/encoder.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"

namespace ditto {

namespace {

/** Signed 4-bit lane bounds (classifyValue with low_bits = 4). */
constexpr int16_t kLow4Min = -8;
constexpr int16_t kLow4Max = 7;

/**
 * Build a plan for a logical [rows, cols] operand read through at(),
 * reusing `out`'s storage. With `reuse`, the entry streams are
 * reserved at their worst case (every element nonzero, plus the
 * per-row padding) the first time a plan object sees an operand this
 * large, so re-encoding into it — whatever the data — never allocates
 * again. Reserved but unwritten capacity is never touched, so it costs
 * address space, not resident memory. One-shot plans (reuse off) size
 * their streams exactly.
 */
template <typename At>
void
encodeImpl(int64_t rows, int64_t cols, const At &at, DiffGemmPlan *out,
           bool reuse = true)
{
    DITTO_ASSERT(rows > 0 && cols > 0, "encoder needs a non-empty operand");
    DiffGemmPlan &plan = *out;
    plan.rows = rows;
    plan.cols = cols;
    plan.panelsPerRow = (cols + kDiffPanelK - 1) / kDiffPanelK;
    plan.panels.assign(static_cast<size_t>(rows * plan.panelsPerRow),
                       PanelRef{});
    plan.zeroElems = plan.low4Elems = plan.full8Elems = 0;
    if (reuse)
        reserveDiffPlan(&plan, rows, cols);

    // Per-row tallies and stream origins: per-thread scratch (the
    // caller's), grown to the largest row count seen. Workers reach it
    // through the plain pointers below.
    thread_local std::vector<int64_t> rowScratch;
    if (rowScratch.size() < static_cast<size_t>(5 * rows))
        rowScratch.resize(static_cast<size_t>(5 * rows));
    int64_t *rowLow4 = rowScratch.data();
    int64_t *rowFull8 = rowLow4 + rows;
    int64_t *rowZeroE = rowFull8 + rows;
    int64_t *low4Begin = rowZeroE + rows;
    int64_t *full8Begin = low4Begin + rows;

    parallelFor(0, rows, [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
            int64_t l4 = 0, f8 = 0, ze = 0;
            for (int64_t pi = 0; pi < plan.panelsPerRow; ++pi) {
                const int64_t k0 = pi * kDiffPanelK;
                const int64_t kw = std::min(kDiffPanelK, cols - k0);
                // Branchless counting with narrow accumulators so the
                // classification sweep vectorizes; lane dispatch is
                // per element (kw <= 64 cannot overflow an int).
                int nnz = 0;
                int wide = 0;
                for (int64_t kk = 0; kk < kw; ++kk) {
                    const int16_t v = at(r, k0 + kk);
                    nnz += v != 0;
                    wide += (v < kLow4Min) | (v > kLow4Max);
                }
                ze += kw - nnz;
                l4 += nnz - wide;
                f8 += wide;
                PanelRef &p =
                    plan.panels[static_cast<size_t>(r * plan.panelsPerRow +
                                                    pi)];
                p.low4Count = static_cast<uint16_t>(nnz - wide);
                p.full8Count = static_cast<uint16_t>(wide);
            }
            rowLow4[r] = l4;
            rowFull8[r] = f8;
            rowZeroE[r] = ze;
        }
    });

    // Serial prefix scan. Each row's stream region is padded by one
    // dead slot (the branch-free writer in pass 2 always stores to the
    // current position and conditionally advances, so its final stray
    // store must not touch the next row's first entry) and Low4
    // regions start at an even index so two rows never pack nibbles
    // into the same byte. Rows can then be filled concurrently.
    int64_t l4pos = 0, f8pos = 0;
    for (int64_t r = 0; r < rows; ++r) {
        low4Begin[r] = l4pos;
        l4pos += rowLow4[r] + 1;
        l4pos += l4pos & 1;
        full8Begin[r] = f8pos;
        f8pos += rowFull8[r] + 1;
        plan.zeroElems += rowZeroE[r];
        plan.low4Elems += rowLow4[r];
        plan.full8Elems += rowFull8[r];
    }
    DITTO_ASSERT(l4pos <= std::numeric_limits<int32_t>::max() &&
                 f8pos <= std::numeric_limits<int32_t>::max(),
                 "encoding plan entry stream exceeds 2^31 entries");
    plan.low4Offsets.assign(static_cast<size_t>(l4pos), 0);
    plan.low4Nibbles.assign(static_cast<size_t>((l4pos + 1) / 2), 0);
    plan.full8Offsets.assign(static_cast<size_t>(f8pos), 0);
    plan.full8Values.assign(static_cast<size_t>(f8pos), 0);

    parallelFor(0, rows, [&](int64_t lo, int64_t hi) {
        // Branch-free two-stage extraction per panel: compress the
        // nonzero elements into stack scratch (always store,
        // conditionally advance), then split the surviving entries —
        // only nnz of them — across the two lane streams the same way.
        uint8_t toff[kDiffPanelK];
        int16_t tval[kDiffPanelK];
        for (int64_t r = lo; r < hi; ++r) {
            int64_t l4 = low4Begin[r];
            int64_t f8 = full8Begin[r];
            for (int64_t pi = 0; pi < plan.panelsPerRow; ++pi) {
                PanelRef &p =
                    plan.panels[static_cast<size_t>(r * plan.panelsPerRow +
                                                    pi)];
                p.low4Begin = static_cast<int32_t>(l4);
                p.full8Begin = static_cast<int32_t>(f8);
                if (p.empty())
                    continue;
                const int64_t k0 = pi * kDiffPanelK;
                const int64_t kw = std::min(kDiffPanelK, cols - k0);
                int64_t c = 0;
                for (int64_t kk = 0; kk < kw; ++kk) {
                    const int16_t v = at(r, k0 + kk);
                    toff[c] = static_cast<uint8_t>(kk);
                    tval[c] = v;
                    c += v != 0;
                }
                for (int64_t e = 0; e < c; ++e) {
                    const int16_t v = tval[e];
                    const bool wide = v < kLow4Min || v > kLow4Max;
                    plan.low4Offsets[static_cast<size_t>(l4)] = toff[e];
                    const uint8_t nib = static_cast<uint8_t>(v) & 0x0F;
                    uint8_t &byte =
                        plan.low4Nibbles[static_cast<size_t>(l4 >> 1)];
                    byte = (l4 & 1)
                               ? static_cast<uint8_t>(
                                     (byte & 0x0F) |
                                     static_cast<uint8_t>(nib << 4))
                               : nib;
                    l4 += !wide;
                    plan.full8Offsets[static_cast<size_t>(f8)] = toff[e];
                    plan.full8Values[static_cast<size_t>(f8)] = v;
                    f8 += wide;
                }
            }
        }
    });
}

/** Temporal difference reader over a [rows, cols] region. */
struct TemporalAt
{
    const int8_t *cur;
    const int8_t *prev;
    int64_t cols;

    int16_t
    operator()(int64_t r, int64_t c) const
    {
        const int64_t i = r * cols + c;
        return static_cast<int16_t>(static_cast<int16_t>(cur[i]) -
                                    static_cast<int16_t>(prev[i]));
    }
};

/** Transposed temporal difference reader: (r, c) reads region (c, r). */
struct TemporalAtT
{
    const int8_t *cur;
    const int8_t *prev;
    int64_t cols; //!< column count of the *source* region

    int16_t
    operator()(int64_t r, int64_t c) const
    {
        const int64_t i = c * cols + r;
        return static_cast<int16_t>(static_cast<int16_t>(cur[i]) -
                                    static_cast<int16_t>(prev[i]));
    }
};

/** Already-subtracted int16 difference reader. */
struct DiffAt
{
    const int16_t *d;
    int64_t cols;

    int16_t operator()(int64_t r, int64_t c) const { return d[r * cols + c]; }
};

template <typename At>
DiffGemmPlan
encodeNew(int64_t rows, int64_t cols, const At &at)
{
    DiffGemmPlan plan;
    encodeImpl(rows, cols, at, &plan, /*reuse=*/false);
    return plan;
}

} // namespace

void
reserveDiffPlan(DiffGemmPlan *plan, int64_t rows, int64_t cols)
{
    // Worst case: every element nonzero, plus one dead slot and one
    // even-alignment pad per row (see the prefix scan in encodeImpl).
    const auto worst = static_cast<size_t>(rows * (cols + 2));
    const auto panels = static_cast<size_t>(
        rows * ((cols + kDiffPanelK - 1) / kDiffPanelK));
    if (plan->panels.capacity() < panels)
        plan->panels.reserve(panels);
    if (plan->low4Offsets.capacity() < worst) {
        plan->low4Offsets.reserve(worst);
        plan->low4Nibbles.reserve((worst + 1) / 2);
        plan->full8Offsets.reserve(worst);
        plan->full8Values.reserve(worst);
    }
}

void
encodeDiffInto(const int16_t *diff, int64_t rows, int64_t cols,
               DiffGemmPlan *plan)
{
    encodeImpl(rows, cols, DiffAt{diff, cols}, plan);
}

void
encodeTemporalDiffInto(const int8_t *current, const int8_t *previous,
                       int64_t rows, int64_t cols, DiffGemmPlan *plan)
{
    encodeImpl(rows, cols, TemporalAt{current, previous, cols}, plan);
}

void
encodeTemporalDiffTransposedInto(const int8_t *current,
                                 const int8_t *previous, int64_t rows,
                                 int64_t cols, DiffGemmPlan *plan)
{
    // Plan rows index the *columns* of the region.
    encodeImpl(cols, rows, TemporalAtT{current, previous, cols}, plan);
}

DiffClassCounts
countTemporalDiffClasses(const int8_t *cur, const int8_t *prev,
                         int64_t count)
{
    // Chunked branchless counting; int accumulators per chunk so the
    // sweep vectorizes like the encoder's first pass.
    DiffClassCounts c;
    constexpr int64_t kChunk = 1 << 14;
    for (int64_t base = 0; base < count; base += kChunk) {
        const int64_t end = std::min(count, base + kChunk);
        int nnz = 0;
        int wide = 0;
        for (int64_t i = base; i < end; ++i) {
            const int16_t v =
                static_cast<int16_t>(static_cast<int16_t>(cur[i]) -
                                     static_cast<int16_t>(prev[i]));
            nnz += v != 0;
            wide += (v < kLow4Min) | (v > kLow4Max);
        }
        c.zero += (end - base) - nnz;
        c.low4 += nnz - wide;
        c.full8 += wide;
    }
    return c;
}

DiffClassCounts
countDiffClasses(const int16_t *d, int64_t count)
{
    DiffClassCounts c;
    constexpr int64_t kChunk = 1 << 14;
    for (int64_t base = 0; base < count; base += kChunk) {
        const int64_t end = std::min(count, base + kChunk);
        int nnz = 0;
        int wide = 0;
        for (int64_t i = base; i < end; ++i) {
            const int16_t v = d[i];
            nnz += v != 0;
            wide += (v < kLow4Min) | (v > kLow4Max);
        }
        c.zero += (end - base) - nnz;
        c.low4 += nnz - wide;
        c.full8 += wide;
    }
    return c;
}

DiffGemmPlan
encodeDiff(const Int16Tensor &diff)
{
    DITTO_ASSERT(diff.shape().rank() == 2,
                 "encodeDiff expects a difference matrix");
    const int64_t cols = diff.shape()[1];
    return encodeNew(diff.shape()[0], cols, DiffAt{diff.data().data(), cols});
}

DiffGemmPlan
encodeTemporalDiff(const Int8Tensor &current, const Int8Tensor &previous)
{
    DITTO_ASSERT(current.shape() == previous.shape(),
                 "temporal diff operand shape mismatch");
    DITTO_ASSERT(current.shape().rank() == 2,
                 "encodeTemporalDiff expects code matrices");
    const int64_t cols = current.shape()[1];
    return encodeNew(current.shape()[0], cols,
                     TemporalAt{current.data().data(),
                                previous.data().data(), cols});
}

DiffGemmPlan
encodeTemporalDiffTransposed(const Int8Tensor &current,
                             const Int8Tensor &previous)
{
    DITTO_ASSERT(current.shape() == previous.shape(),
                 "temporal diff operand shape mismatch");
    DITTO_ASSERT(current.shape().rank() == 2,
                 "encodeTemporalDiffTransposed expects code matrices");
    const int64_t src_cols = current.shape()[1];
    // Plan rows index the *columns* of the operands.
    return encodeNew(src_cols, current.shape()[0],
                     TemporalAtT{current.data().data(),
                                 previous.data().data(), src_cols});
}

namespace {

/**
 * The consumer's quantization point, unpacked once per region. The
 * rounding chain is exactly quantize()'s: nearbyint, clamp to the
 * symmetric code range, cast.
 */
struct RequantPoint
{
    float inv;
    float lo;
    float hi;

    explicit RequantPoint(const QuantParams &qp)
        : inv(1.0f / qp.scale),
          lo(static_cast<float>(qp.minCode())),
          hi(static_cast<float>(qp.maxCode()))
    {}

    int8_t
    operator()(float v) const
    {
        return static_cast<int8_t>(
            std::clamp(std::nearbyint(v * inv), lo, hi));
    }
};

/**
 * Left-associated scale-aligned sum over the sources at flat index i:
 * ((acc_0 * s_0 + acc_1 * s_1) + ...) with every product and sum
 * rounded to float (this file builds with FP contraction off), the
 * exact arithmetic of dequantizing each producer to a tensor and
 * float-adding them pairwise left to right.
 */
float
sumAt(std::span<const RequantSource> srcs, int64_t i)
{
    float v = 0.0f;
    for (size_t s = 0; s < srcs.size(); ++s) {
        const float t =
            static_cast<float>(srcs[s].acc[i]) * srcs[s].scale;
        v = s == 0 ? t : v + t;
    }
    return v;
}

int16_t
deltaOf(int8_t ct, int8_t cp)
{
    return static_cast<int16_t>(static_cast<int16_t>(ct) -
                                static_cast<int16_t>(cp));
}

} // namespace

void
requantSumDelta(std::span<const RequantSource> srcs, int64_t n,
                const QuantParams &qp, const int8_t *prev_codes,
                int8_t *codes, int16_t *d16)
{
    DITTO_ASSERT(!srcs.empty(), "requantSumDelta needs sources");
    const RequantPoint q(qp);
    for (int64_t i = 0; i < n; ++i) {
        const int8_t ct = q(sumAt(srcs, i));
        codes[i] = ct;
        if (prev_codes)
            d16[i] = deltaOf(ct, prev_codes[i]);
    }
}

void
requantUpsample2xSumDelta(std::span<const RequantSource> srcs, int64_t c,
                          int64_t h, int64_t w, const QuantParams &qp,
                          const int8_t *prev_codes, int8_t *codes,
                          int16_t *d16)
{
    DITTO_ASSERT(!srcs.empty(), "requantUpsample2xSumDelta needs sources");
    const RequantPoint q(qp);
    const int64_t ow = 2 * w;
    for (int64_t ci = 0; ci < c; ++ci) {
        for (int64_t y = 0; y < h; ++y) {
            const int64_t src_row = (ci * h + y) * w;
            const int64_t out_row = (ci * 2 * h + 2 * y) * ow;
            for (int64_t x = 0; x < w; ++x) {
                const int8_t ct = q(sumAt(srcs, src_row + x));
                const int64_t o = out_row + 2 * x;
                codes[o] = ct;
                codes[o + 1] = ct;
                codes[o + ow] = ct;
                codes[o + ow + 1] = ct;
                if (prev_codes) {
                    d16[o] = deltaOf(ct, prev_codes[o]);
                    d16[o + 1] = deltaOf(ct, prev_codes[o + 1]);
                    d16[o + ow] = deltaOf(ct, prev_codes[o + ow]);
                    d16[o + ow + 1] =
                        deltaOf(ct, prev_codes[o + ow + 1]);
                }
            }
        }
    }
}

void
requantAvgPool2xSumDelta(std::span<const RequantSource> srcs, int64_t c,
                         int64_t h, int64_t w, const QuantParams &qp,
                         const int8_t *prev_codes, int8_t *codes,
                         int16_t *d16)
{
    DITTO_ASSERT(!srcs.empty(), "requantAvgPool2xSumDelta needs sources");
    DITTO_ASSERT(h % 2 == 0 && w % 2 == 0,
                 "avg-pool region needs even spatial extents");
    const RequantPoint q(qp);
    const int64_t oh = h / 2;
    const int64_t ow = w / 2;
    for (int64_t ci = 0; ci < c; ++ci) {
        for (int64_t y = 0; y < oh; ++y) {
            for (int64_t x = 0; x < ow; ++x) {
                // Tap order and associativity of avgPool2xF on the
                // float sum.
                const int64_t base = (ci * h + 2 * y) * w + 2 * x;
                const float v =
                    (sumAt(srcs, base) + sumAt(srcs, base + 1) +
                     sumAt(srcs, base + w) + sumAt(srcs, base + w + 1)) *
                    0.25f;
                const int64_t o = (ci * oh + y) * ow + x;
                const int8_t ct = q(v);
                codes[o] = ct;
                if (prev_codes)
                    d16[o] = deltaOf(ct, prev_codes[o]);
            }
        }
    }
}

} // namespace ditto
