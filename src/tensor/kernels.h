/**
 * @file
 * Blocked, parallel kernel library — the fast execution substrate.
 *
 * Every public op in tensor/ops.h routes through these kernels; the
 * scalar triple-loop references they replace live on as ditto::naive::
 * and are used only for parity testing and speedup baselines.
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
 *  - Bias and SiLU/GELU epilogues are fused into the GEMM/conv
 *    write-back instead of running as separate tensor passes.
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

/** Epilogue activation fused into GEMM/conv write-back. */
enum class Activation { kNone, kSiLU, kGELU };

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
 * C[m,n] = A[m,k] * op(B) with op(B) = B[k,n] or B^T for B:[n,k].
 * Float GEMM optionally fuses a bias row ([n]) and an activation.
 * @{
 */
FloatTensor gemm(const FloatTensor &a, const FloatTensor &b,
                 bool transpose_b, const FloatTensor *bias = nullptr,
                 Activation act = Activation::kNone);
Int32Tensor gemmInt8(const Int8Tensor &a, const Int8Tensor &b,
                     bool transpose_b);
Int32Tensor gemmDiffInt16(const Int16Tensor &a, const Int8Tensor &b,
                          bool transpose_b);
/** @} */

/**
 * @name im2col convolutions on the blocked GEMM
 *
 * Input NCHW, weight OIHW; float conv fuses bias [O] and activation.
 * @{
 */
FloatTensor conv2d(const FloatTensor &input, const FloatTensor &weight,
                   const FloatTensor *bias, const Conv2dParams &params,
                   Activation act = Activation::kNone);
Int32Tensor conv2dInt8(const Int8Tensor &input, const Int8Tensor &weight,
                       const Conv2dParams &params);
Int32Tensor conv2dDiffInt16(const Int16Tensor &input,
                            const Int8Tensor &weight,
                            const Conv2dParams &params);
/** @} */

/**
 * @name Batch-dim-aware raw entry points (serving substrate)
 *
 * The batched denoising path executes several requests' sub-problems
 * through one kernel invocation: GEMM row blocks and conv batch slabs
 * are written straight into the caller's stacked output, so per-call
 * packing, allocation and pool-dispatch overheads amortize across the
 * batch. Each output element keeps exactly the accumulation order of
 * the single-request kernels, so results are bitwise identical to N
 * independent calls at any thread count and batch size (the
 * test_serve.cc parity suite asserts this end to end).
 * @{
 */

/**
 * C[m,n] += A[m,k] * op(B) on raw row-major int8 buffers. `c` rows must
 * hold the accumulation base (zeros for a plain product). op(B) is
 * B[k,n] (ldb = n) or, when trans_b, B^T for B:[n,k] (ldb = k).
 */
void gemmInt8Into(const int8_t *a, int64_t m, int64_t k, const int8_t *b,
                  int64_t n, bool trans_b, int32_t *c);

/**
 * Integer convolution of `batches` stacked NCHW slabs of [Cin, h, w]
 * int8 codes at `input`, written to the stacked [batches, Cout, OH, OW]
 * int32 output. The output is overwritten (zeroed, then accumulated by
 * the GEMM); no allocation once the thread-local im2col and packing
 * scratch has grown to the shape. Bitwise identical to conv2dInt8 per
 * slab.
 */
void conv2dInt8Into(const int8_t *input, int64_t batches, int64_t h,
                    int64_t w, const Int8Tensor &weight,
                    const Conv2dParams &params, int32_t *out);
/** @} */

/**
 * @name Raw-buffer float entry points (the FP32 executor's substrate)
 *
 * The compiled FP32 executor lays every activation into its workspace
 * arena and calls these with caller-owned buffers; the Tensor-returning
 * forms above and below are wrappers over the same bodies, so both
 * produce identical bits.
 * @{
 */

/**
 * Free the calling thread's float packing and im2col scratch — the
 * largest per-thread buffers, which only the FP32 executor grows.
 * compile() calls it once calibration is done, so a serving or
 * benchmark thread does not keep calibration-sized buffers resident.
 */
void releaseFloatScratch();

/** C[m,n] += A[m,k] * op(B) (float; `c` holds the accumulation base). */
void gemmInto(const float *a, int64_t m, int64_t k, const float *b,
              int64_t n, bool trans_b, float *c);

/**
 * Float convolution of `batches` stacked [Cin, h, w] slabs into the
 * stacked [batches, Cout, OH, OW] output (overwritten), no bias.
 */
void conv2dInto(const float *input, int64_t batches, int64_t h, int64_t w,
                const FloatTensor &weight, const Conv2dParams &params,
                float *out);

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
/** @} */

/**
 * @name Parallel elementwise and normalization kernels
 *
 * groupNorm/layerNorm accumulate mean and variance in a single fused
 * sum/sum-of-squares sweep per group/row (the naive references sweep
 * the data three times).
 * @{
 */
FloatTensor add(const FloatTensor &a, const FloatTensor &b);
FloatTensor subtract(const FloatTensor &a, const FloatTensor &b);
FloatTensor multiply(const FloatTensor &a, const FloatTensor &b);
FloatTensor affine(const FloatTensor &x, float scale, float shift);
FloatTensor silu(const FloatTensor &x);
FloatTensor gelu(const FloatTensor &x);
FloatTensor softmaxRows(const FloatTensor &x);
FloatTensor groupNorm(const FloatTensor &x, int64_t groups, float eps);
FloatTensor layerNorm(const FloatTensor &x, float eps);
Int32Tensor addInt32(const Int32Tensor &a, const Int32Tensor &b);
Int16Tensor subtractInt8(const Int8Tensor &a, const Int8Tensor &b);
/** @} */

} // namespace kernels
} // namespace ditto

#endif // DITTO_TENSOR_KERNELS_H
