/**
 * @file
 * Blocked, parallel kernel library — the fast execution substrate.
 *
 * Every kernel here reads and writes caller-owned raw buffers. The
 * compiled executors and the difference engines call them directly;
 * the Tensor-returning ops in tensor/ops.h are shape-checking shims
 * over the same bodies, so both produce identical bits. The scalar
 * triple-loop references live on as ditto::naive:: and are used only
 * for parity testing and speedup baselines.
 *
 * Design (see docs/kernels.md for the full picture):
 *  - GEMM is packed-panel and register-tiled: A is packed into
 *    MR-row column-major panels, B into NR-column row-major panels,
 *    and an MR x NR micro-kernel accumulates over KC-length K-blocks
 *    with raw restrict pointers so the compiler vectorizes the inner
 *    loop. The K-block loop is serial, so each output element has a
 *    fixed accumulation order: integer results are bitwise identical
 *    at any thread count, float results are deterministic too.
 *  - Convolutions lower to the same GEMM via im2col (1x1/stride-1/
 *    pad-0 convolutions skip the copy and feed the input slab to the
 *    packer directly).
 *  - GEMM row panels, im2col rows, conv batches (when there are
 *    enough to occupy the pool) and the elementwise/normalization ops
 *    are parallelized with common/parallel.h's parallelFor.
 */
#ifndef DITTO_TENSOR_KERNELS_H
#define DITTO_TENSOR_KERNELS_H

#include <bit>
#include <cstdint>

#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace ditto {
namespace kernels {

/**
 * Fast vectorizable expf.
 *
 * Round-to-nearest range reduction (the 1.5 * 2^23 magic-number trick,
 * valid under the default rounding mode), a two-part ln2 so the reduced
 * argument keeps full precision, a degree-6 Taylor polynomial on
 * [-ln2/2, ln2/2] (truncation error ~1.2e-7 relative) and an exact 2^n
 * scale assembled from the exponent bits. Branch-free and built from
 * elementwise float ops only, so the auto-vectorizer turns the
 * softmax/SiLU sweeps into SIMD loops where glibc's expf was a serial
 * call — and the result is a pure function of the input, identical in
 * scalar and vector code, which the batched-vs-sequential bitwise
 * parity guarantee relies on.
 */
inline float
fastExpf(float x)
{
    // Clamp so the exponent assembly below stays in normal range;
    // exp(-87.3) already underflows float and exp(88.7) overflows.
    // The first select is written NaN-catching (NaN > -87 is false),
    // so a NaN input deterministically maps to exp(-87) ~ 0 instead
    // of feeding the float->int cast undefined behavior.
    x = x > -87.0f ? x : -87.0f;
    x = x < 88.0f ? x : 88.0f;
    constexpr float kLog2e = 1.44269504088896341f;
    constexpr float kRound = 12582912.0f; // 1.5 * 2^23
    const float biased = x * kLog2e + kRound;
    const float nf = biased - kRound; // nearest integer to x * log2(e)
    // r = x - nf * ln2, with ln2 split so the product is exact.
    constexpr float kLn2Hi = 0.693359375f;
    constexpr float kLn2Lo = -2.12194440e-4f;
    const float r = (x - nf * kLn2Hi) - nf * kLn2Lo;
    // exp(r) on [-ln2/2, ln2/2], Horner form.
    float p = 1.0f / 720.0f;
    p = p * r + 1.0f / 120.0f;
    p = p * r + 1.0f / 24.0f;
    p = p * r + 1.0f / 6.0f;
    p = p * r + 0.5f;
    p = p * r + 1.0f;
    p = p * r + 1.0f;
    // 2^n from the exponent bits; nf is integral and within [-126, 127].
    const int32_t n = static_cast<int32_t>(nf);
    const float scale = std::bit_cast<float>((n + 127) << 23);
    return p * scale;
}

/**
 * @name Blocked GEMM
 *
 * C[m,n] += A[m,k] * op(B) on raw row-major buffers: op(B) is B[k,n]
 * (ldb = n) or, when trans_b, B^T for B:[n,k] (ldb = k). `c` holds the
 * accumulation base (zeros for a plain product). The batched denoising
 * path stacks several requests' rows into one call; each output
 * element keeps the accumulation order of a single-request call, so
 * results are bitwise identical to N independent calls at any thread
 * count and batch size (the test_serve.cc parity suite asserts this
 * end to end).
 * @{
 */
void gemmInto(const float *a, int64_t m, int64_t k, const float *b,
              int64_t n, bool trans_b, float *c);
void gemmInt8Into(const int8_t *a, int64_t m, int64_t k, const int8_t *b,
                  int64_t n, bool trans_b, int32_t *c);
/** int16 difference codes x int8 weights: the dense diff baseline. */
void gemmDiffInt16Into(const int16_t *a, int64_t m, int64_t k,
                       const int8_t *b, int64_t n, bool trans_b,
                       int32_t *c);
/** @} */

/**
 * @name im2col convolutions on the blocked GEMM
 *
 * Convolution of `batches` stacked NCHW slabs of [Cin, h, w] at
 * `input` with the OIHW `weight`, written to the stacked
 * [batches, Cout, OH, OW] output. The output is overwritten (zeroed,
 * then accumulated by the GEMM), no bias; no allocation once the
 * thread-local im2col and packing scratch has grown to the shape.
 * @{
 */
void conv2dInto(const float *input, int64_t batches, int64_t h, int64_t w,
                const FloatTensor &weight, const Conv2dParams &params,
                float *out);
void conv2dInt8Into(const int8_t *input, int64_t batches, int64_t h,
                    int64_t w, const Int8Tensor &weight,
                    const Conv2dParams &params, int32_t *out);
void conv2dDiffInt16Into(const int16_t *input, int64_t batches, int64_t h,
                         int64_t w, const Int8Tensor &weight,
                         const Conv2dParams &params, int32_t *out);
/** @} */

/**
 * Free the calling thread's float packing and im2col scratch — the
 * largest per-thread buffers, which only the FP32 executor grows.
 * compile() calls it once calibration is done, so a serving or
 * benchmark thread does not keep calibration-sized buffers resident.
 */
void releaseFloatScratch();

/**
 * @name Parallel elementwise and normalization kernels
 *
 * Each overwrites `out`. groupNorm/layerNorm accumulate mean and
 * variance in a single fused sum/sum-of-squares sweep per group/row
 * (the naive references sweep the data three times).
 * @{
 */
/** out[i] = a[i] + b[i]; `out` may alias either operand. */
void addInto(const float *a, const float *b, int64_t n, float *out);
/** out[i] = x[i] * scale + shift; `out` may alias `x`. */
void affineInto(const float *x, int64_t n, float scale, float shift,
                float *out);
void siluInto(const float *x, int64_t n, float *out);
void geluInto(const float *x, int64_t n, float *out);
/** Row softmax of a [rows, d] matrix. */
void softmaxRowsInto(const float *x, int64_t rows, int64_t d, float *out);
/** Group norm of [n, c, hw] with `groups` contiguous channel groups. */
void groupNormInto(const float *x, int64_t n, int64_t c, int64_t hw,
                   int64_t groups, float eps, float *out);
/** Layer norm of each row of a [rows, d] matrix. */
void layerNormInto(const float *x, int64_t rows, int64_t d, float eps,
                   float *out);
/** out[i] = a[i] + b[i] (int32); `out` may alias either operand. */
void addInt32Into(const int32_t *a, const int32_t *b, int64_t n,
                  int32_t *out);
/** out[i] = a[i] - b[i], int8 codes widened to int16. */
void subtractInt8Into(const int8_t *a, const int8_t *b, int64_t n,
                      int16_t *out);
/** @} */

} // namespace kernels
} // namespace ditto

#endif // DITTO_TENSOR_KERNELS_H
