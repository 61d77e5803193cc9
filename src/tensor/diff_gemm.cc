/**
 * @file
 * Sparse difference-GEMM execution.
 *
 * The kernel is an axpy formulation: for each output row, a strip of
 * kDiffNc int32 accumulators is held in registers while the row's
 * panels stream past in K order; every nonzero entry contributes
 * acc[j] += v * B[k, n0 + j] over the contiguous B row segment, which
 * the compiler vectorizes. Dense GEMM cost is m*k*n multiply-adds; this
 * path pays nonzero(k)*n, so wall-clock shrinks with the zero fraction.
 */
#include "tensor/diff_gemm.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "tensor/ops.h"
#include "tensor/simd/simd.h"

#define DITTO_RESTRICT __restrict__

namespace ditto {
namespace kernels {

namespace {

/** Tile edge for the blocked de-transpose of B. */
constexpr int64_t kTransposeTile = 32;

} // namespace

void
transposeInt8Into(const int8_t *DITTO_RESTRICT src, int64_t rows,
                  int64_t cols, int8_t *DITTO_RESTRICT dst)
{
    const int64_t rtiles = (rows + kTransposeTile - 1) / kTransposeTile;
    parallelFor(0, rtiles, [&](int64_t lo, int64_t hi) {
        for (int64_t rt = lo; rt < hi; ++rt) {
            const int64_t r0 = rt * kTransposeTile;
            const int64_t r1 = std::min(rows, r0 + kTransposeTile);
            for (int64_t c0 = 0; c0 < cols; c0 += kTransposeTile) {
                const int64_t c1 = std::min(cols, c0 + kTransposeTile);
                for (int64_t r = r0; r < r1; ++r)
                    for (int64_t c = c0; c < c1; ++c)
                        dst[c * rows + r] = src[r * cols + c];
            }
        }
    });
}

namespace {

/**
 * Two entries fused: crow[j] += v0*b0[j] + v1*b1[j]. Halves the
 * output-row read-modify-write traffic relative to two axpyRow calls.
 */
inline void
axpyRow2(int32_t v0, const int8_t *DITTO_RESTRICT b0, int32_t v1,
         const int8_t *DITTO_RESTRICT b1, int32_t *DITTO_RESTRICT crow,
         int64_t n)
{
    for (int64_t j = 0; j < n; ++j)
        crow[j] += v0 * static_cast<int32_t>(b0[j]) +
                   v1 * static_cast<int32_t>(b1[j]);
}

/**
 * Two 4-bit lane entries fused with an int16 intermediate — the
 * software analogue of the narrow multiplier lane. |v| <= 8 and
 * |b| <= 127, so v0*b0[j] + v1*b1[j] is at most 2032 in magnitude and
 * the int16 truncation is lossless; the vectorizer gets twice the
 * lanes for the multiply half of the work.
 */
inline void
axpyRow2Low4(int16_t v0, const int8_t *DITTO_RESTRICT b0, int16_t v1,
             const int8_t *DITTO_RESTRICT b1, int32_t *DITTO_RESTRICT crow,
             int64_t n)
{
    for (int64_t j = 0; j < n; ++j) {
        const int16_t t = static_cast<int16_t>(
            v0 * static_cast<int16_t>(b0[j]) +
            v1 * static_cast<int16_t>(b1[j]));
        crow[j] += t;
    }
}

/** Sign-extended value of Low4 entry `e` (hot-loop copy). */
inline int32_t
low4At(const uint8_t *DITTO_RESTRICT nibbles, int64_t e)
{
    const uint8_t byte = nibbles[e >> 1];
    const uint8_t nib = (e & 1) ? (byte >> 4) : (byte & 0x0F);
    return (static_cast<int32_t>(nib) ^ 8) - 8;
}

/** Low4 entries accumulated per int16 group register. */
constexpr int64_t kLow4Group = 8;

static_assert(kLow4Group == simd::kLow4Group,
              "dispatched group axpy assumes the plan's group size");

// Full groups of 4-bit lane entries and every wide-lane axpy go
// through the dispatched SIMD table (tensor/simd/simd.h): the group
// axpy accumulates kLow4Group entries through one bounded int16
// intermediate — 8 products of magnitude <= 1024 sum to at most 8192,
// far inside int16, so the truncation is lossless and the int32 output
// row is read and written once per group instead of once per entry.
// kernels_generic.cc holds the portable bodies these calls used to
// inline; axpyRow2/axpyRow2Low4 below stay local (short tails, not
// worth a dispatch slot).

/**
 * Accumulate every panel of `row` into the output row crow[0..n).
 * bmat is row-major [k, n] (already de-transposed). Entries are
 * consumed pairwise; integer addition is exact, so the pairing does
 * not change the result, only the memory traffic.
 */
void
accumulateRow(const DiffGemmPlan &plan, int64_t row,
              const int8_t *DITTO_RESTRICT bmat, int64_t n,
              int32_t *DITTO_RESTRICT crow)
{
    const simd::KernelTable &kt = simd::active();
    const PanelRef *prow = plan.panels.data() + row * plan.panelsPerRow;
    const uint8_t *DITTO_RESTRICT l4off = plan.low4Offsets.data();
    const uint8_t *DITTO_RESTRICT l4nib = plan.low4Nibbles.data();
    const uint8_t *DITTO_RESTRICT f8off = plan.full8Offsets.data();
    const int16_t *DITTO_RESTRICT f8val = plan.full8Values.data();
    for (int64_t pi = 0; pi < plan.panelsPerRow; ++pi) {
        const PanelRef &p = prow[pi];
        if (p.empty())
            continue;
        const int64_t kbase = pi * kDiffPanelK;

        // 4-bit lane entries: full groups through the int16 lane
        // accumulator, short tails through the pairwise path.
        int64_t e = p.low4Begin;
        const int64_t lend = p.low4Begin + p.low4Count;
        for (; e + kLow4Group <= lend; e += kLow4Group) {
            int16_t vs[kLow4Group];
            const int8_t *bs[kLow4Group];
            for (int64_t g = 0; g < kLow4Group; ++g) {
                vs[g] = static_cast<int16_t>(low4At(l4nib, e + g));
                bs[g] = bmat + (kbase + l4off[e + g]) * n;
            }
            kt.low4GroupAxpy(vs, bs, crow, n);
        }
        for (; e + 1 < lend; e += 2) {
            axpyRow2Low4(static_cast<int16_t>(low4At(l4nib, e)),
                         bmat + (kbase + l4off[e]) * n,
                         static_cast<int16_t>(low4At(l4nib, e + 1)),
                         bmat + (kbase + l4off[e + 1]) * n, crow, n);
        }
        if (e < lend)
            kt.diffAxpy(low4At(l4nib, e), bmat + (kbase + l4off[e]) * n,
                        crow, n);

        // Wide entries: pairwise int32 fallback.
        e = p.full8Begin;
        const int64_t wend = p.full8Begin + p.full8Count;
        for (; e + 1 < wend; e += 2) {
            axpyRow2(f8val[e], bmat + (kbase + f8off[e]) * n, f8val[e + 1],
                     bmat + (kbase + f8off[e + 1]) * n, crow, n);
        }
        if (e < wend)
            kt.diffAxpy(f8val[e], bmat + (kbase + f8off[e]) * n, crow, n);
    }
}

} // namespace

void
diffGemmBatch(std::span<const DiffGemmBatchItem> items, int64_t n)
{
    DITTO_ASSERT(n > 0, "diffGemmBatch needs a positive column count");
    const int64_t count = static_cast<int64_t>(items.size());
    if (count == 0)
        return;

    // One dispatch over the union of all items' rows. A global row is
    // owned by exactly one task and runs its K reduction serially in
    // plan order, so the batch is bitwise equal to per-item calls at
    // any thread count. Rows whose panels are all zero keep their base
    // values untouched. Row bases are the caller's thread-local
    // scratch (workers see the pointer), sized once per batch size.
    thread_local std::vector<int64_t> rb_scratch;
    rb_scratch.resize(static_cast<size_t>(count + 1));
    int64_t *rb = rb_scratch.data();
    rb[0] = 0;
    for (int64_t i = 0; i < count; ++i)
        rb[i + 1] = rb[i] + items[i].plan->rows;
    const int64_t total = rb[count];
    parallelFor(0, total, [&](int64_t lo, int64_t hi) {
        int64_t it = static_cast<int64_t>(
            std::upper_bound(rb, rb + count + 1, lo) - rb - 1);
        for (int64_t g = lo; g < hi; ++g) {
            while (g >= rb[it + 1])
                ++it;
            const int64_t row = g - rb[it];
            accumulateRow(*items[it].plan, row, items[it].b, n,
                          items[it].out + row * n);
        }
    });
}

namespace {

/**
 * Scatter one nonzero difference value through its kernel windows into
 * the output-row band [ylo, yhi).
 */
inline void
scatterEntry(const simd::KernelTable &kt, int32_t v, int64_t y, int64_t x,
             const int8_t *DITTO_RESTRICT wbase, const Conv2dParams &p,
             int64_t oh, int64_t ow, int64_t ylo, int64_t yhi,
             int32_t *DITTO_RESTRICT delta)
{
    const int64_t cout = p.outChannels;
    for (int64_t ky = 0; ky < p.kernel; ++ky) {
        const int64_t t = y + p.padding - ky;
        if (t < 0)
            break; // t only decreases with ky
        if (t % p.stride)
            continue;
        const int64_t oy = t / p.stride;
        if (oy >= oh || oy < ylo || oy >= yhi)
            continue;
        for (int64_t kx = 0; kx < p.kernel; ++kx) {
            const int64_t u = x + p.padding - kx;
            if (u < 0)
                break;
            if (u % p.stride)
                continue;
            const int64_t ox = u / p.stride;
            if (ox >= ow)
                continue;
            int32_t *DITTO_RESTRICT dst = delta + (oy * ow + ox) * cout;
            const int8_t *DITTO_RESTRICT wrow =
                wbase + (ky * p.kernel + kx) * cout;
            kt.diffAxpy(v, wrow, dst, cout);
        }
    }
}

/**
 * 1x1/stride-1/pad-0 scatter of one plan: every entry lands in exactly
 * its own output pixel, so the window logic (and the per-entry
 * division) disappears entirely. Different channels scatter into the
 * same output pixels, so the channel loop stays serial; batch slabs
 * parallelize one level up (convDiffScatterBatch runs one item per
 * task).
 */
void
scatterPointwisePlan(const DiffGemmPlan &plan, const int8_t *wmat_t,
                     int64_t cout, int32_t *DITTO_RESTRICT dd)
{
    const simd::KernelTable &kt = simd::active();
    const uint8_t *l4off = plan.low4Offsets.data();
    const uint8_t *l4nib = plan.low4Nibbles.data();
    const uint8_t *f8off = plan.full8Offsets.data();
    const int16_t *f8val = plan.full8Values.data();
    for (int64_t ic = 0; ic < plan.rows; ++ic) {
        const int8_t *DITTO_RESTRICT wrow = wmat_t + ic * cout;
        const PanelRef *prow = plan.panels.data() + ic * plan.panelsPerRow;
        for (int64_t pi = 0; pi < plan.panelsPerRow; ++pi) {
            const PanelRef &pp = prow[pi];
            const int64_t kbase = pi * kDiffPanelK;
            for (int64_t e = pp.low4Begin;
                 e < pp.low4Begin + pp.low4Count; ++e) {
                kt.diffAxpy(low4At(l4nib, e), wrow,
                            dd + (kbase + l4off[e]) * cout, cout);
            }
            for (int64_t e = pp.full8Begin;
                 e < pp.full8Begin + pp.full8Count; ++e) {
                kt.diffAxpy(f8val[e], wrow,
                            dd + (kbase + f8off[e]) * cout, cout);
            }
        }
    }
}

/**
 * Scatter one plan's entries into the output-row band [ylo, yhi).
 * Each band walks the whole plan in fixed order and writes only
 * windows landing in its rows, so any banding yields the same
 * per-element accumulation order.
 */
void
scatterPlanBand(const DiffGemmPlan &plan, const int8_t *wmat_t,
                const int8_t *wrev_t, const Conv2dParams &p, int64_t w,
                int64_t oh, int64_t ow, int64_t ylo, int64_t yhi,
                int32_t *DITTO_RESTRICT dd)
{
    const simd::KernelTable &kt = simd::active();
    const uint8_t *l4off = plan.low4Offsets.data();
    const uint8_t *l4nib = plan.low4Nibbles.data();
    const uint8_t *f8off = plan.full8Offsets.data();
    const int16_t *f8val = plan.full8Values.data();
    const int64_t kk = p.kernel;
    const int64_t cout = p.outChannels;
    const bool unit_stride = p.stride == 1;
    for (int64_t ic = 0; ic < plan.rows; ++ic) {
        const int8_t *wbase = wmat_t + ic * kk * kk * cout;
        const int8_t *wrev_base = wrev_t + ic * kk * kk * cout;
        const PanelRef *prow = plan.panels.data() + ic * plan.panelsPerRow;
        // One entry scattered through its windows; stride-1
        // interior pixels run one contiguous kk*cout-wide axpy per
        // kernel row against the reversed weight.
        auto scatter = [&](int32_t v, int64_t y, int64_t x) {
            if (unit_stride && x >= kk - 1 - p.padding &&
                x + p.padding < ow) {
                const int64_t ox0 = x + p.padding - (kk - 1);
                for (int64_t ky = 0; ky < kk; ++ky) {
                    const int64_t oy = y + p.padding - ky;
                    if (oy < 0)
                        break;
                    if (oy >= oh || oy < ylo || oy >= yhi)
                        continue;
                    kt.diffAxpy(v, wrev_base + ky * kk * cout,
                                dd + (oy * ow + ox0) * cout, kk * cout);
                }
            } else {
                scatterEntry(kt, v, y, x, wbase, p, oh, ow, ylo, yhi, dd);
            }
        };
        for (int64_t pi = 0; pi < plan.panelsPerRow; ++pi) {
            const PanelRef &pp = prow[pi];
            if (pp.empty())
                continue;
            const int64_t kbase = pi * kDiffPanelK;
            // One division per panel; entries advance y/x from the
            // panel origin with at most a few subtractions.
            const int64_t y0 = kbase / w;
            const int64_t x0 = kbase % w;
            auto toYx = [&](int64_t off, int64_t *y, int64_t *x) {
                int64_t yy = y0;
                int64_t xx = x0 + off;
                while (xx >= w) {
                    xx -= w;
                    ++yy;
                }
                *y = yy;
                *x = xx;
            };
            int64_t y, x;
            for (int64_t e = pp.low4Begin;
                 e < pp.low4Begin + pp.low4Count; ++e) {
                toYx(l4off[e], &y, &x);
                scatter(low4At(l4nib, e), y, x);
            }
            for (int64_t e = pp.full8Begin;
                 e < pp.full8Begin + pp.full8Count; ++e) {
                toYx(f8off[e], &y, &x);
                scatter(f8val[e], y, x);
            }
        }
    }
}

} // namespace

void
convDiffScatterBatch(std::span<const ConvScatterBatchItem> items,
                     const int8_t *wmat_t, const int8_t *wrev_t,
                     const Conv2dParams &p, int64_t h, int64_t w)
{
    const int64_t count = static_cast<int64_t>(items.size());
    if (count == 0)
        return;
    const int64_t oh = p.outExtent(h);
    const int64_t ow = p.outExtent(w);
    DITTO_ASSERT(oh > 0 && ow > 0,
                 "convDiffScatterBatch output would be empty");
    for (const ConvScatterBatchItem &item : items)
        DITTO_ASSERT(item.plan->rows == p.inChannels &&
                     item.plan->cols == h * w,
                     "convDiffScatterBatch plan must cover the slab");
    if (p.kernel == 1 && p.stride == 1 && p.padding == 0) {
        // Pointwise scatter is serial within a slab; slabs are
        // independent, so the batch parallelizes across items — the
        // banding the single-slab path cannot have.
        parallelFor(0, count, 1, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i)
                scatterPointwisePlan(*items[i].plan, wmat_t,
                                     p.outChannels, items[i].delta);
        });
        return;
    }
    // (item, output-row band) tasks flattened into one dispatch; a
    // chunk spanning items executes each item's own band portion.
    parallelFor(0, count * oh, [&](int64_t lo, int64_t hi) {
        for (int64_t g = lo; g < hi;) {
            const int64_t i = g / oh;
            const int64_t ylo = g % oh;
            const int64_t yhi = std::min(oh, ylo + (hi - g));
            scatterPlanBand(*items[i].plan, wmat_t, wrev_t, p, w, oh, ow,
                            ylo, yhi, items[i].delta);
            g += yhi - ylo;
        }
    });
}

void
addTransposedInt32InPlace(int32_t *acc, const int32_t *delta, int64_t m,
                          int64_t n)
{
    int32_t *DITTO_RESTRICT so = acc;
    const int32_t *DITTO_RESTRICT sd = delta;
    for (int64_t r0 = 0; r0 < m; r0 += kTransposeTile) {
        const int64_t r1 = std::min(m, r0 + kTransposeTile);
        for (int64_t c0 = 0; c0 < n; c0 += kTransposeTile) {
            const int64_t c1 = std::min(n, c0 + kTransposeTile);
            for (int64_t r = r0; r < r1; ++r)
                for (int64_t c = c0; c < c1; ++c)
                    so[r * n + c] += sd[c * m + r];
        }
    }
}

void
addConvDeltaInPlace(int32_t *acc, const int32_t *delta, int64_t batches,
                    int64_t ch, int64_t pix)
{
    parallelFor(0, batches * ch, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
            const int64_t b = i / ch;
            const int64_t c = i % ch;
            int32_t *DITTO_RESTRICT dst = acc + i * pix;
            const int32_t *DITTO_RESTRICT dcol = delta + b * pix * ch + c;
            for (int64_t p = 0; p < pix; ++p)
                dst[p] += dcol[p * ch];
        }
    });
}

} // namespace kernels
} // namespace ditto
