/**
 * @file
 * Blocked, parallel kernel implementations.
 *
 * Layout conventions (see docs/kernels.md):
 *  - A panels: kMr rows x KC columns, stored k-major (ap[k*kMr + r])
 *    and zero-padded to kMr rows so the micro-kernel never branches.
 *  - B panels: KC rows x kNr columns, stored k-major (bp[k*kNr + j])
 *    and zero-padded to kNr columns. Zero padding contributes exact
 *    zeros, so fringe tiles stay bit-correct for every element type.
 *  - The K dimension is processed in serial KC-sized blocks; threads
 *    split only the row-panel (M) dimension, so every output element
 *    accumulates in one fixed order regardless of thread count.
 */
#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "tensor/simd/simd.h"

#define DITTO_RESTRICT __restrict__

namespace ditto {
namespace kernels {

namespace {

/** Micro-tile rows: output rows accumulated per micro-kernel call. */
constexpr int64_t kMr = 4;
/** Micro-tile columns: one or two SIMD vectors of accumulators. */
constexpr int64_t kNr = 16;

static_assert(kMr == simd::kGemmMr && kNr == simd::kGemmNr,
              "dispatched micro-kernels assume the driver's tile shape");
/** K-dimension cache block (panel depth). */
constexpr int64_t kKc = 256;
/** N-dimension cache block (columns packed per B slab). */
constexpr int64_t kNc = 4096;
/** Elements per chunk for parallel elementwise sweeps. */
constexpr int64_t kElemGrain = 1 << 15;

int64_t
ceilDiv(int64_t a, int64_t b)
{
    return (a + b - 1) / b;
}

float
siluScalar(float v)
{
    return v / (1.0f + fastExpf(-v));
}

float
geluScalar(float v)
{
    // tanh approximation: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))
    constexpr float kC = 0.7978845608028654f; // sqrt(2/pi)
    return 0.5f * v * (1.0f + std::tanh(kC * (v + 0.044715f * v * v * v)));
}

/**
 * Per-thread packed-B scratch of the GEMM drivers, one per element
 * type: at most kNc x kKc elements, sized once per shape like apack.
 */
template <typename T>
std::vector<T> &
bpackScratch()
{
    thread_local std::vector<T> bpack;
    return bpack;
}

/** Per-thread im2col scratch, shared by the serial and slab-parallel paths. */
template <typename TIn>
std::vector<TIn> &
colScratch()
{
    thread_local std::vector<TIn> col;
    return col;
}

/**
 * Pack one kMr-row panel of A (row-major, leading dim lda), k-major,
 * widening the elements to the accumulator type. Widening here (once
 * per packed element, amortized over a whole row of micro-kernel
 * calls) keeps the micro-kernel arithmetic uniform in TAcc, which is
 * what lets the compiler turn its inner loop into plain vector FMAs /
 * 32-bit multiplies instead of scalar widening sequences.
 */
template <typename TA, typename TAcc>
void
packPanelA(const TA *DITTO_RESTRICT a, int64_t lda, int64_t row0,
           int64_t rows, int64_t k0, int64_t kcs, TAcc *DITTO_RESTRICT ap)
{
    for (int64_t kk = 0; kk < kcs; ++kk) {
        for (int64_t r = 0; r < kMr; ++r) {
            ap[kk * kMr + r] =
                r < rows ? static_cast<TAcc>(a[(row0 + r) * lda + k0 + kk])
                         : TAcc{0};
        }
    }
}

/**
 * Pack one kNr-column panel of B, k-major, widened to TAcc.
 *
 * trans_b selects the logical orientation: false reads row-major
 * B[k,n] (b[kk*ldb + col]), true reads row-major B[n,k] (b[col*ldb +
 * kk], i.e. the operand of a transposed product).
 */
template <typename TB, typename TAcc>
void
packPanelB(const TB *DITTO_RESTRICT b, int64_t ldb, bool trans_b,
           int64_t col0, int64_t cols, int64_t k0, int64_t kcs,
           TAcc *DITTO_RESTRICT bp)
{
    if (!trans_b) {
        for (int64_t kk = 0; kk < kcs; ++kk) {
            const TB *src = b + (k0 + kk) * ldb + col0;
            for (int64_t j = 0; j < kNr; ++j)
                bp[kk * kNr + j] =
                    j < cols ? static_cast<TAcc>(src[j]) : TAcc{0};
        }
    } else {
        for (int64_t j = 0; j < kNr; ++j) {
            if (j < cols) {
                const TB *src = b + (col0 + j) * ldb + k0;
                for (int64_t kk = 0; kk < kcs; ++kk)
                    bp[kk * kNr + j] = static_cast<TAcc>(src[kk]);
            } else {
                for (int64_t kk = 0; kk < kcs; ++kk)
                    bp[kk * kNr + j] = TAcc{0};
            }
        }
    }
}

/**
 * kMr x kNr register tile over a KC block of packed, pre-widened
 * panels: acc[r][j] += ap[k][r] * bp[k][j].
 *
 * On GCC/Clang the kNr-wide accumulator rows are expressed with
 * portable vector extensions — one vector register per row, a
 * broadcast-multiply-accumulate per (k, row) — because the
 * auto-vectorizer otherwise picks the 4-wide row dimension and emits
 * shuffle-heavy code. Element semantics are identical to the scalar
 * fallback (same per-element accumulation order), so results do not
 * depend on which path was compiled in.
 */
template <typename TAcc>
void
microKernel(int64_t kcs, const TAcc *DITTO_RESTRICT ap,
            const TAcc *DITTO_RESTRICT bp, TAcc *DITTO_RESTRICT acc)
{
#if defined(__GNUC__) || defined(__clang__)
    static_assert(kMr == 4, "micro-kernel is unrolled for kMr == 4");
    // aligned(alignof(TAcc)): packed panels come from std::vector, so
    // loads/stores must not assume full vector alignment.
    typedef TAcc Vec __attribute__((vector_size(kNr * sizeof(TAcc)),
                                    aligned(alignof(TAcc))));
    Vec a0{}, a1{}, a2{}, a3{};
    for (int64_t kk = 0; kk < kcs; ++kk) {
        const TAcc *DITTO_RESTRICT arow = ap + kk * kMr;
        const Vec b = *reinterpret_cast<const Vec *>(bp + kk * kNr);
        a0 += b * arow[0];
        a1 += b * arow[1];
        a2 += b * arow[2];
        a3 += b * arow[3];
    }
    *reinterpret_cast<Vec *>(acc + 0 * kNr) += a0;
    *reinterpret_cast<Vec *>(acc + 1 * kNr) += a1;
    *reinterpret_cast<Vec *>(acc + 2 * kNr) += a2;
    *reinterpret_cast<Vec *>(acc + 3 * kNr) += a3;
#else
    for (int64_t kk = 0; kk < kcs; ++kk) {
        const TAcc *DITTO_RESTRICT arow = ap + kk * kMr;
        const TAcc *DITTO_RESTRICT brow = bp + kk * kNr;
        for (int64_t r = 0; r < kMr; ++r) {
            const TAcc av = arow[r];
            for (int64_t j = 0; j < kNr; ++j)
                acc[r * kNr + j] += av * brow[j];
        }
    }
#endif
}

/**
 * Pack one kMr-row panel of A as int16 in K-pair-interleaved order for
 * the dispatched integer micro-kernels (layout in tensor/simd/simd.h):
 * ap[p*2*kMr + r*2 + s] = A[row0 + r, k0 + 2p + s]. The K extent is
 * padded to even with zero pairs (exact zeros), rows to kMr as usual.
 */
template <typename TA>
void
packPanelAPairs(const TA *DITTO_RESTRICT a, int64_t lda, int64_t row0,
                int64_t rows, int64_t k0, int64_t kcs,
                int16_t *DITTO_RESTRICT ap)
{
    const int64_t pairs = (kcs + 1) / 2;
    for (int64_t p = 0; p < pairs; ++p) {
        for (int64_t r = 0; r < kMr; ++r) {
            for (int64_t s = 0; s < 2; ++s) {
                const int64_t kk = 2 * p + s;
                ap[p * 2 * kMr + r * 2 + s] =
                    (r < rows && kk < kcs)
                        ? static_cast<int16_t>(a[(row0 + r) * lda + k0 + kk])
                        : int16_t{0};
            }
        }
    }
}

/**
 * Pack one kNr-column panel of B as int16 in K-pair-interleaved order:
 * bp[p*2*kNr + j*2 + s] = B[k0 + 2p + s, col0 + j] (trans_b as in
 * packPanelB). One 32-bit lane then holds a column's (k, k+1) pair —
 * the operand shape of vpmaddwd / vpdpwssd and of a de-interleaving
 * vld2 on NEON.
 */
template <typename TB>
void
packPanelBPairs(const TB *DITTO_RESTRICT b, int64_t ldb, bool trans_b,
                int64_t col0, int64_t cols, int64_t k0, int64_t kcs,
                int16_t *DITTO_RESTRICT bp)
{
    const int64_t pairs = (kcs + 1) / 2;
    for (int64_t p = 0; p < pairs; ++p) {
        for (int64_t j = 0; j < kNr; ++j) {
            for (int64_t s = 0; s < 2; ++s) {
                const int64_t kk = 2 * p + s;
                int16_t v = 0;
                if (j < cols && kk < kcs)
                    v = static_cast<int16_t>(
                        trans_b ? b[(col0 + j) * ldb + k0 + kk]
                                : b[(k0 + kk) * ldb + col0 + j]);
                bp[p * 2 * kNr + j * 2 + s] = v;
            }
        }
    }
}

/**
 * Integer-GEMM driver over pair-packed int16 panels, used when the
 * active SIMD table provides a hand-written pair micro-kernel. Same
 * blocking, same thread split, and — because int32 accumulation is
 * exact under any association (two's-complement addition is
 * associative even across wraparound) — bitwise-identical output to
 * the generic driver for every integer instantiation.
 */
template <typename TA, typename TB>
void
gemmDriverPairs(const TA *a, int64_t lda, const TB *b, int64_t ldb,
                bool trans_b, int32_t *c, int64_t ldc, int64_t m,
                int64_t n, int64_t k,
                void (*micro)(int64_t, const int16_t *, const int16_t *,
                              int32_t *))
{
    const int64_t row_panels = ceilDiv(m, kMr);
    std::vector<int16_t> &bpack = bpackScratch<int16_t>();
    for (int64_t jc = 0; jc < n; jc += kNc) {
        const int64_t ncs = std::min(kNc, n - jc);
        const int64_t col_panels = ceilDiv(ncs, kNr);
        for (int64_t kc = 0; kc < k; kc += kKc) {
            const int64_t kcs = std::min(kKc, k - kc);
            const int64_t pairs = (kcs + 1) / 2;
            bpack.resize(static_cast<size_t>(col_panels * kNr * 2 * pairs));
            int16_t *bpack_data = bpack.data();
            parallelFor(0, col_panels, [&](int64_t lo, int64_t hi) {
                for (int64_t cp = lo; cp < hi; ++cp) {
                    packPanelBPairs(b, ldb, trans_b, jc + cp * kNr,
                                    std::min(kNr, ncs - cp * kNr), kc, kcs,
                                    bpack_data + cp * kNr * 2 * pairs);
                }
            });
            parallelFor(0, row_panels, [&](int64_t lo, int64_t hi) {
                thread_local std::vector<int16_t> apack;
                apack.resize(static_cast<size_t>(kMr * 2 * pairs));
                for (int64_t rp = lo; rp < hi; ++rp) {
                    const int64_t row0 = rp * kMr;
                    const int64_t rows = std::min(kMr, m - row0);
                    packPanelAPairs(a, lda, row0, rows, kc, kcs,
                                    apack.data());
                    for (int64_t cp = 0; cp < col_panels; ++cp) {
                        int32_t acc[kMr * kNr] = {};
                        micro(pairs, apack.data(),
                              bpack_data + cp * kNr * 2 * pairs, acc);
                        const int64_t col0 = jc + cp * kNr;
                        const int64_t cols = std::min(kNr, ncs - cp * kNr);
                        for (int64_t r = 0; r < rows; ++r) {
                            int32_t *crow = c + (row0 + r) * ldc + col0;
                            for (int64_t j = 0; j < cols; ++j)
                                crow[j] += acc[r * kNr + j];
                        }
                    }
                }
            });
        }
    }
}

/**
 * Blocked GEMM on raw row-major buffers: C += A * op(B). C holds the
 * accumulation base (zeros for a plain product).
 */
template <typename TA, typename TB, typename TAcc>
void
gemmDriver(const TA *a, int64_t lda, const TB *b, int64_t ldb,
           bool trans_b, TAcc *c, int64_t ldc, int64_t m, int64_t n,
           int64_t k)
{
    // Integer products route through the dispatched pair micro-kernel
    // when the active SIMD level provides one; the generic level keeps
    // gemmMicroPairs null, so DITTO_SIMD=generic (and any host without
    // hand-written kernels) runs the historic path below verbatim.
    // Float stays on the generic micro-kernel unconditionally: its
    // accumulation order is part of the output contract.
    if constexpr (std::is_integral_v<TA> && std::is_integral_v<TB> &&
                  std::is_same_v<TAcc, int32_t>) {
        if (auto *micro = simd::active().gemmMicroPairs) {
            gemmDriverPairs<TA, TB>(a, lda, b, ldb, trans_b, c, ldc, m, n,
                                    k, micro);
            return;
        }
    }
    const int64_t row_panels = ceilDiv(m, kMr);
    std::vector<TAcc> &bpack = bpackScratch<TAcc>();
    for (int64_t jc = 0; jc < n; jc += kNc) {
        const int64_t ncs = std::min(kNc, n - jc);
        const int64_t col_panels = ceilDiv(ncs, kNr);
        for (int64_t kc = 0; kc < k; kc += kKc) {
            const int64_t kcs = std::min(kKc, k - kc);
            bpack.resize(static_cast<size_t>(col_panels * kNr * kcs));
            TAcc *bpack_data = bpack.data();
            parallelFor(0, col_panels, [&](int64_t lo, int64_t hi) {
                for (int64_t cp = lo; cp < hi; ++cp) {
                    packPanelB(b, ldb, trans_b, jc + cp * kNr,
                               std::min(kNr, ncs - cp * kNr), kc, kcs,
                               bpack_data + cp * kNr * kcs);
                }
            });
            parallelFor(0, row_panels, [&](int64_t lo, int64_t hi) {
                thread_local std::vector<TAcc> apack;
                apack.resize(static_cast<size_t>(kMr * kcs));
                for (int64_t rp = lo; rp < hi; ++rp) {
                    const int64_t row0 = rp * kMr;
                    const int64_t rows = std::min(kMr, m - row0);
                    packPanelA(a, lda, row0, rows, kc, kcs, apack.data());
                    for (int64_t cp = 0; cp < col_panels; ++cp) {
                        TAcc acc[kMr * kNr] = {};
                        microKernel(kcs, apack.data(),
                                    bpack_data + cp * kNr * kcs, acc);
                        const int64_t col0 = jc + cp * kNr;
                        const int64_t cols = std::min(kNr, ncs - cp * kNr);
                        for (int64_t r = 0; r < rows; ++r) {
                            TAcc *crow = c + (row0 + r) * ldc + col0;
                            for (int64_t j = 0; j < cols; ++j)
                                crow[j] += acc[r * kNr + j];
                        }
                    }
                }
            });
        }
    }
}

/**
 * im2col: one batch of NCHW input -> patch matrix col[P, K] with
 * P = oh*ow and K = cin*kernel*kernel (OIHW weight order), zero-filled
 * where the window overhangs the padding border.
 */
template <typename TIn>
void
im2col(const TIn *DITTO_RESTRICT in, int64_t h, int64_t w, int64_t cin,
       const Conv2dParams &p, int64_t oh, int64_t ow,
       TIn *DITTO_RESTRICT col)
{
    const int64_t kk = p.kernel;
    const int64_t patch = cin * kk * kk;
    // Stride-1 pixels whose kernel window lies fully inside the input
    // copy one contiguous kk-run per (channel, kernel row) with no
    // per-element bounds checks; that is every pixel except a
    // padding-wide border, i.e. almost all of them, and the branchy
    // per-element path that used to dominate rollout profiles now only
    // runs on the border.
    parallelFor(0, oh * ow, [&](int64_t lo, int64_t hi) {
        for (int64_t pix = lo; pix < hi; ++pix) {
            const int64_t oy = pix / ow;
            const int64_t ox = pix % ow;
            TIn *DITTO_RESTRICT dst = col + pix * patch;
            const bool interior =
                p.stride == 1 && ox >= p.padding && ox - p.padding + kk <= w;
            for (int64_t ic = 0; ic < cin; ++ic) {
                const TIn *plane = in + ic * h * w;
                for (int64_t ky = 0; ky < kk; ++ky) {
                    const int64_t iy = oy * p.stride + ky - p.padding;
                    if (iy < 0 || iy >= h) {
                        for (int64_t kx = 0; kx < kk; ++kx)
                            *dst++ = TIn{0};
                        continue;
                    }
                    const TIn *DITTO_RESTRICT row = plane + iy * w;
                    if (interior) {
                        const TIn *DITTO_RESTRICT src =
                            row + ox - p.padding;
                        for (int64_t kx = 0; kx < kk; ++kx)
                            *dst++ = src[kx];
                        continue;
                    }
                    for (int64_t kx = 0; kx < kk; ++kx) {
                        const int64_t ix = ox * p.stride + kx - p.padding;
                        *dst++ = (ix >= 0 && ix < w) ? row[ix] : TIn{0};
                    }
                }
            }
        }
    });
}

/**
 * Convolution of `batches` stacked NCHW slabs [cin, h, w] at `in0`,
 * lowered onto the blocked GEMM and written to the stacked output
 * `out0`: out[b] (viewed as [cout, oh*ow]) = W[cout, K] * col[b]^T.
 * The GEMM accumulates, so the output slabs are zeroed first.
 *
 * 1x1/stride-1/pad-0 convolutions skip im2col entirely: the input slab
 * [cin, h*w] already is the K x P operand in row-major order.
 *
 * Multi-slab ranges run slab by slab, parallelized across slabs when
 * there are enough to occupy the pool. A column-folded single driver
 * call over all slabs was tried and measured slower (see the comment
 * at the batch loop), so batching a conv amortizes dispatch, not
 * packing.
 */
template <typename TIn, typename TW, typename TAcc>
void
convBlockedRaw(const TIn *in0, int64_t batches, int64_t cin, int64_t h,
               int64_t w, const TW *wmat, const Conv2dParams &p,
               TAcc *out0)
{
    const int64_t oh = p.outExtent(h);
    const int64_t ow = p.outExtent(w);
    DITTO_ASSERT(oh > 0 && ow > 0, "conv output would be empty");
    const int64_t pix = oh * ow;
    const int64_t patch = cin * p.kernel * p.kernel;
    const bool pointwise =
        p.kernel == 1 && p.stride == 1 && p.padding == 0;
    std::memset(out0, 0,
                static_cast<size_t>(batches * p.outChannels * pix) *
                    sizeof(TAcc));

    // Each slab runs its own im2col + GEMM. A single column-folded
    // driver call over all slabs was tried here and measured *slower*:
    // the folded packed-B working set (batches * pix * patch widened
    // elements) falls out of L1/L2 exactly when batching matters, while
    // the per-slab pack stays cache-resident. Batch amortization comes
    // from the slab-parallel dispatch below and from the row-folded
    // GEMMs of the token-matrix layers instead.
    auto runSlab = [&](int64_t b) {
        const TIn *in_slab = in0 + b * cin * h * w;
        TAcc *out_slab = out0 + b * p.outChannels * pix;
        if (pointwise) {
            // B = input slab [cin, pix] row-major, not transposed.
            gemmDriver<TW, TIn, TAcc>(wmat, patch, in_slab, pix,
                                      /*trans_b=*/false, out_slab, pix,
                                      p.outChannels, pix, patch);
        } else {
            std::vector<TIn> &col = colScratch<TIn>();
            col.resize(static_cast<size_t>(pix * patch));
            im2col(in_slab, h, w, cin, p, oh, ow, col.data());
            // B = col [pix, patch] row-major, transposed product.
            gemmDriver<TW, TIn, TAcc>(wmat, patch, col.data(), patch,
                                      /*trans_b=*/true, out_slab, pix,
                                      p.outChannels, pix, patch);
        }
    };
    // Pick the parallel level by shape: enough batches to occupy the
    // pool -> parallelize across batches (inner parallelFor calls run
    // inline on the workers); few batches -> keep the batch loop
    // serial and exploit the parallelism inside im2col and the GEMM
    // row panels. Either way each output element is produced by the
    // same fixed accumulation order, so results are identical.
    if (batches >= threadCount() && batches > 1) {
        parallelFor(0, batches, 1, [&](int64_t lo, int64_t hi) {
            for (int64_t b = lo; b < hi; ++b)
                runSlab(b);
        });
    } else {
        for (int64_t b = 0; b < batches; ++b)
            runSlab(b);
    }
}

/** Weight check + convBlockedRaw for the conv2d*Into entry points. */
template <typename TIn, typename TW, typename TAcc>
void
convInto(const TIn *input, int64_t batches, int64_t h, int64_t w,
         const Tensor<TW> &weight, const Conv2dParams &p, TAcc *out)
{
    DITTO_ASSERT(weight.shape() == Shape({p.outChannels, p.inChannels,
                                          p.kernel, p.kernel}),
                 "conv weight shape mismatch");
    convBlockedRaw<TIn, TW, TAcc>(input, batches, p.inChannels, h, w,
                                  weight.data().data(), p, out);
}

/**
 * Parallel elementwise binary kernel on raw buffers. No restrict: the
 * output may alias an operand (in-place updates), and each element is
 * read before it is written.
 */
template <typename T, typename Fn>
void
zipWithInto(const T *sa, const T *sb, int64_t n, T *so, Fn fn)
{
    parallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            so[i] = fn(sa[i], sb[i]);
    });
}

/** Parallel elementwise unary kernel on raw buffers (may alias). */
template <typename T, typename Fn>
void
mapInto(const T *sx, int64_t n, T *so, Fn fn)
{
    parallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            so[i] = fn(sx[i]);
    });
}

/**
 * Normalize `count` contiguous values with a single fused
 * sum/sum-of-squares sweep (vs the naive references' three passes).
 */
void
normalizeSpan(const float *DITTO_RESTRICT src, float *DITTO_RESTRICT dst,
              int64_t count, float eps)
{
    double sum = 0.0;
    double sumsq = 0.0;
    for (int64_t i = 0; i < count; ++i) {
        const double v = src[i];
        sum += v;
        sumsq += v * v;
    }
    const double mean = sum / static_cast<double>(count);
    const double var =
        std::max(0.0, sumsq / static_cast<double>(count) - mean * mean);
    const float fmean = static_cast<float>(mean);
    const float inv = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    for (int64_t i = 0; i < count; ++i)
        dst[i] = (src[i] - fmean) * inv;
}

} // namespace

void
gemmInto(const float *a, int64_t m, int64_t k, const float *b, int64_t n,
         bool trans_b, float *c)
{
    gemmDriver<float, float, float>(a, k, b, trans_b ? k : n, trans_b, c, n,
                                    m, n, k);
}

void
gemmInt8Into(const int8_t *a, int64_t m, int64_t k, const int8_t *b,
             int64_t n, bool trans_b, int32_t *c)
{
    gemmDriver<int8_t, int8_t, int32_t>(a, k, b, trans_b ? k : n, trans_b,
                                        c, n, m, n, k);
}

void
gemmDiffInt16Into(const int16_t *a, int64_t m, int64_t k, const int8_t *b,
                  int64_t n, bool trans_b, int32_t *c)
{
    gemmDriver<int16_t, int8_t, int32_t>(a, k, b, trans_b ? k : n, trans_b,
                                         c, n, m, n, k);
}

void
conv2dInto(const float *input, int64_t batches, int64_t h, int64_t w,
           const FloatTensor &weight, const Conv2dParams &params,
           float *out)
{
    convInto(input, batches, h, w, weight, params, out);
}

void
conv2dInt8Into(const int8_t *input, int64_t batches, int64_t h, int64_t w,
               const Int8Tensor &weight, const Conv2dParams &params,
               int32_t *out)
{
    convInto(input, batches, h, w, weight, params, out);
}

void
conv2dDiffInt16Into(const int16_t *input, int64_t batches, int64_t h,
                    int64_t w, const Int8Tensor &weight,
                    const Conv2dParams &params, int32_t *out)
{
    convInto(input, batches, h, w, weight, params, out);
}

void
releaseFloatScratch()
{
    std::vector<float>().swap(bpackScratch<float>());
    std::vector<float>().swap(colScratch<float>());
}

void
addInto(const float *a, const float *b, int64_t n, float *out)
{
    zipWithInto<float>(a, b, n, out,
                       [](float x, float y) { return x + y; });
}

void
affineInto(const float *x, int64_t n, float scale, float shift, float *out)
{
    mapInto<float>(x, n, out,
                   [scale, shift](float v) { return v * scale + shift; });
}

void
siluInto(const float *x, int64_t n, float *out)
{
    mapInto<float>(x, n, out, siluScalar);
}

void
geluInto(const float *x, int64_t n, float *out)
{
    mapInto<float>(x, n, out, geluScalar);
}

void
softmaxRowsInto(const float *sx, int64_t n, int64_t d, float *so)
{
    parallelFor(0, n, [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
            const float *DITTO_RESTRICT row = sx + r * d;
            float *DITTO_RESTRICT orow = so + r * d;
            float mx = row[0];
            for (int64_t c = 1; c < d; ++c)
                mx = std::max(mx, row[c]);
            float sum = 0.0f;
            for (int64_t c = 0; c < d; ++c) {
                const float e = fastExpf(row[c] - mx);
                orow[c] = e;
                sum += e;
            }
            for (int64_t c = 0; c < d; ++c)
                orow[c] /= sum;
        }
    });
}

void
groupNormInto(const float *sx, int64_t n, int64_t c, int64_t hw,
              int64_t groups, float eps, float *so)
{
    const int64_t span = (c / groups) * hw; // one group is contiguous
    parallelFor(0, n * groups, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            normalizeSpan(sx + i * span, so + i * span, span, eps);
    });
}

void
layerNormInto(const float *sx, int64_t n, int64_t d, float eps, float *so)
{
    parallelFor(0, n, [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r)
            normalizeSpan(sx + r * d, so + r * d, d, eps);
    });
}

void
addInt32Into(const int32_t *a, const int32_t *b, int64_t n, int32_t *out)
{
    zipWithInto<int32_t>(a, b, n, out,
                         [](int32_t x, int32_t y) { return x + y; });
}

void
subtractInt8Into(const int8_t *DITTO_RESTRICT a,
                 const int8_t *DITTO_RESTRICT b, int64_t n,
                 int16_t *DITTO_RESTRICT out)
{
    parallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            out[i] = static_cast<int16_t>(static_cast<int16_t>(a[i]) -
                                          static_cast<int16_t>(b[i]));
    });
}

} // namespace kernels
} // namespace ditto
