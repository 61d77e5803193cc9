/**
 * @file
 * Numeric kernels over dense tensors.
 *
 * These entry points are the functional substrate for the Ditto
 * reproduction: every quantized / difference-processed execution path
 * is validated against them. This is the only Tensor-returning layer:
 * each op checks shapes and calls one raw-buffer kernel in
 * tensor/kernels.h or tensor/diff_gemm.h, the bodies the compiled
 * executors call too. The original scalar triple-loop implementations
 * are retained in ditto::naive as reference kernels for parity tests
 * and speedup baselines. The paper's performance
 * claims are still evaluated by the cycle-level hardware model in
 * src/hw — these kernels just make the functional pipeline fast.
 */
#ifndef DITTO_TENSOR_OPS_H
#define DITTO_TENSOR_OPS_H

#include <cstdint>

#include "tensor/diff_gemm.h"
#include "tensor/tensor.h"

namespace ditto {

/** Parameters of a 2-D convolution (NCHW activations, OIHW weights). */
struct Conv2dParams
{
    int64_t inChannels = 0;
    int64_t outChannels = 0;
    int64_t kernel = 1;   //!< square kernel size
    int64_t stride = 1;
    int64_t padding = 0;

    /** Output spatial size for an input of extent `in`. */
    int64_t
    outExtent(int64_t in) const
    {
        return (in + 2 * padding - kernel) / stride + 1;
    }
};

/**
 * @name Floating-point reference kernels
 * @{
 */

/** C = A * B for row-major matrices A:[m,k], B:[k,n]. */
FloatTensor matmul(const FloatTensor &a, const FloatTensor &b);

/** C = A * B^T for row-major matrices A:[m,k], B:[n,k]. */
FloatTensor matmulTransposed(const FloatTensor &a, const FloatTensor &b);

/** 2-D convolution; input NCHW, weight OIHW, optional bias [O]. */
FloatTensor conv2d(const FloatTensor &input, const FloatTensor &weight,
                   const FloatTensor *bias, const Conv2dParams &params);

/** Fully-connected layer: y = x W^T + b; x:[n,in], W:[out,in], b:[out]. */
FloatTensor fullyConnected(const FloatTensor &input, const FloatTensor &weight,
                           const FloatTensor *bias);

/** Elementwise sum; shapes must match. */
FloatTensor add(const FloatTensor &a, const FloatTensor &b);

/** Scale-and-shift: y = x * scale + shift (scalars). */
FloatTensor affine(const FloatTensor &x, float scale, float shift);

/** SiLU activation x * sigmoid(x). */
FloatTensor silu(const FloatTensor &x);

/** GeLU activation (tanh approximation, as used by DiT/Latte). */
FloatTensor gelu(const FloatTensor &x);

/** Row-wise softmax over the last dimension of a matrix [n, d]. */
FloatTensor softmaxRows(const FloatTensor &x);

/**
 * Group normalization over NCHW input.
 *
 * @param groups number of channel groups; must divide C.
 * @param eps numerical-stability epsilon.
 */
FloatTensor groupNorm(const FloatTensor &x, int64_t groups,
                      float eps = 1e-5f);

/** Layer normalization over the last dimension of a matrix [n, d]. */
FloatTensor layerNorm(const FloatTensor &x, float eps = 1e-5f);

/** @} */

/**
 * @name Integer kernels (quantized execution)
 *
 * Inputs are int8 codes (activation) x int8 codes (weight); accumulation
 * in int32. The caller owns scales; these kernels are pure integer math
 * so the Ditto difference-processing equivalence can be checked exactly.
 * @{
 */

/** C = A * B, int8 x int8 -> int32. A:[m,k], B:[k,n]. */
Int32Tensor matmulInt8(const Int8Tensor &a, const Int8Tensor &b);

/** C = A * B^T, int8 x int8 -> int32. A:[m,k], B:[n,k]. */
Int32Tensor matmulTransposedInt8(const Int8Tensor &a, const Int8Tensor &b);

/** Integer 2-D convolution; input NCHW int8, weight OIHW int8 -> int32. */
Int32Tensor conv2dInt8(const Int8Tensor &input, const Int8Tensor &weight,
                       const Conv2dParams &params);

/** Integer fully-connected: y = x W^T; x:[n,in], W:[out,in] -> int32. */
Int32Tensor fullyConnectedInt8(const Int8Tensor &input,
                               const Int8Tensor &weight);

/**
 * Integer matmul where the left operand is given as int16 codes.
 *
 * Temporal differences of int8 codes live in [-255, 255] and therefore
 * need more than 8 bits in the worst case; the hardware models them as
 * (high, low) 4-bit slices, and this reference kernel as int16.
 */
Int32Tensor matmulDiffInt16(const Int16Tensor &a, const Int8Tensor &b);

/** Like matmulDiffInt16 but with the right operand transposed: B:[n,k]. */
Int32Tensor matmulTransposedDiffInt16(const Int16Tensor &a,
                                      const Int8Tensor &b);

/** Integer convolution with int16 difference input. */
Int32Tensor conv2dDiffInt16(const Int16Tensor &input,
                            const Int8Tensor &weight,
                            const Conv2dParams &params);

/** Integer fully-connected with int16 difference input. */
Int32Tensor fullyConnectedDiffInt16(const Int16Tensor &input,
                                    const Int8Tensor &weight);

/** Elementwise int32 sum; shapes must match. */
Int32Tensor addInt32(const Int32Tensor &a, const Int32Tensor &b);

/** Elementwise difference of int8 codes, widened to int16. */
Int16Tensor subtractInt8(const Int8Tensor &a, const Int8Tensor &b);

/** @} */

/**
 * @name Plan-driven sparse difference execution
 *
 * Tensor conveniences over the plan kernels: the software Encoding
 * Unit (quant/encoder.h) classifies a difference operand into a panel
 * plan (tensor/diff_gemm.h) and these entry points execute it, skipping
 * zero values and reading 4-bit lane panels from packed nibbles. The
 * engines' batched bodies (core/diff_linear.h) drive the kernels::
 * batch entry points directly; these run one item through the same
 * body (diffGemmBatch) for tests and benches. All are
 * bitwise identical to the dense matmul*DiffInt16 kernels at any
 * thread count; docs/diff_exec.md has the full story.
 * @{
 */

/** prev + D * B for the plan's operand D:[m,k] and B:[k,n]. */
Int32Tensor matmulDiffPlan(const DiffGemmPlan &plan, const Int8Tensor &b,
                           const Int32Tensor *prev = nullptr);

/** prev + D * B^T for B:[n,k] (weight-stationary convention). */
Int32Tensor matmulTransposedDiffPlan(const DiffGemmPlan &plan,
                                     const Int8Tensor &b,
                                     const Int32Tensor *prev = nullptr);

/**
 * Transposed copy of an int8 matrix. Weight-stationary engines cache
 * the transposed weight once so every diff step runs the plan against
 * contiguous B rows without per-call packing.
 */
Int8Tensor transposeInt8(const Int8Tensor &m);

/** prev[m,n] + delta[n,m]^T. */
Int32Tensor addTransposedInt32(const Int32Tensor &prev,
                               const Int32Tensor &delta);

/** @} */

/**
 * Scalar reference kernels.
 *
 * The original clarity-first triple loops. The blocked kernels in
 * tensor/kernels.h are parity-tested against these (bitwise for the
 * integer kernels, tight epsilon for float), and bench_kernels
 * measures its speedups relative to them. Not used on any hot path.
 */
namespace naive {

FloatTensor matmul(const FloatTensor &a, const FloatTensor &b);
FloatTensor matmulTransposed(const FloatTensor &a, const FloatTensor &b);
FloatTensor conv2d(const FloatTensor &input, const FloatTensor &weight,
                   const FloatTensor *bias, const Conv2dParams &params);
FloatTensor fullyConnected(const FloatTensor &input,
                           const FloatTensor &weight,
                           const FloatTensor *bias);
FloatTensor silu(const FloatTensor &x);
FloatTensor gelu(const FloatTensor &x);
FloatTensor softmaxRows(const FloatTensor &x);
FloatTensor groupNorm(const FloatTensor &x, int64_t groups,
                      float eps = 1e-5f);
FloatTensor layerNorm(const FloatTensor &x, float eps = 1e-5f);
Int32Tensor matmulInt8(const Int8Tensor &a, const Int8Tensor &b);
Int32Tensor matmulTransposedInt8(const Int8Tensor &a, const Int8Tensor &b);
Int32Tensor conv2dInt8(const Int8Tensor &input, const Int8Tensor &weight,
                       const Conv2dParams &params);
Int32Tensor fullyConnectedInt8(const Int8Tensor &input,
                               const Int8Tensor &weight);
Int32Tensor matmulDiffInt16(const Int16Tensor &a, const Int8Tensor &b);
Int32Tensor matmulTransposedDiffInt16(const Int16Tensor &a,
                                      const Int8Tensor &b);
Int32Tensor conv2dDiffInt16(const Int16Tensor &input,
                            const Int8Tensor &weight,
                            const Conv2dParams &params);
Int32Tensor fullyConnectedDiffInt16(const Int16Tensor &input,
                                    const Int8Tensor &weight);

} // namespace naive

} // namespace ditto

#endif // DITTO_TENSOR_OPS_H
