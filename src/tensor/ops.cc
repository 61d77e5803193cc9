/**
 * @file
 * Public kernel entry points and the scalar naive:: references.
 *
 * The public functions forward to the blocked, parallel kernels in
 * tensor/kernels.h so every caller (diff engines, attention, MiniUnet,
 * traces, benches) gets the fast substrate with zero call-site churn.
 * The clarity-first triple loops remain below as ditto::naive, the
 * ground truth the fast kernels are parity-tested against.
 */
#include "tensor/ops.h"

#include <cmath>

#include "common/logging.h"
#include "tensor/kernels.h"

namespace ditto {

namespace {

/** Shared im2col-free convolution loop, templated over element types. */
template <typename In, typename W, typename Out>
Tensor<Out>
convLoop(const Tensor<In> &input, const Tensor<W> &weight,
         const Tensor<float> *bias, const Conv2dParams &p)
{
    DITTO_ASSERT(input.shape().rank() == 4, "conv input must be NCHW");
    DITTO_ASSERT(weight.shape().rank() == 4, "conv weight must be OIHW");
    const int64_t n = input.shape()[0];
    const int64_t cin = input.shape()[1];
    const int64_t h = input.shape()[2];
    const int64_t w = input.shape()[3];
    DITTO_ASSERT(cin == p.inChannels, "conv input channels mismatch");
    DITTO_ASSERT(weight.shape()[0] == p.outChannels &&
                 weight.shape()[1] == p.inChannels &&
                 weight.shape()[2] == p.kernel &&
                 weight.shape()[3] == p.kernel,
                 "conv weight shape mismatch");
    const int64_t oh = p.outExtent(h);
    const int64_t ow = p.outExtent(w);
    DITTO_ASSERT(oh > 0 && ow > 0, "conv output would be empty");

    Tensor<Out> out(Shape{n, p.outChannels, oh, ow});
    for (int64_t b = 0; b < n; ++b) {
        for (int64_t oc = 0; oc < p.outChannels; ++oc) {
            for (int64_t oy = 0; oy < oh; ++oy) {
                for (int64_t ox = 0; ox < ow; ++ox) {
                    Out acc = bias
                        ? static_cast<Out>(bias->at(oc)) : Out{0};
                    for (int64_t ic = 0; ic < cin; ++ic) {
                        for (int64_t ky = 0; ky < p.kernel; ++ky) {
                            const int64_t iy =
                                oy * p.stride + ky - p.padding;
                            if (iy < 0 || iy >= h)
                                continue;
                            for (int64_t kx = 0; kx < p.kernel; ++kx) {
                                const int64_t ix =
                                    ox * p.stride + kx - p.padding;
                                if (ix < 0 || ix >= w)
                                    continue;
                                acc += static_cast<Out>(
                                           input.at(b, ic, iy, ix)) *
                                       static_cast<Out>(
                                           weight.at(oc, ic, ky, kx));
                            }
                        }
                    }
                    out.at(b, oc, oy, ox) = acc;
                }
            }
        }
    }
    return out;
}

/** Shared matmul loop: C[m,n] = A[m,k] * B[k,n]. */
template <typename A, typename B, typename Out>
Tensor<Out>
matmulLoop(const Tensor<A> &a, const Tensor<B> &b)
{
    DITTO_ASSERT(a.shape().rank() == 2 && b.shape().rank() == 2,
                 "matmul operands must be matrices");
    const int64_t m = a.shape()[0];
    const int64_t k = a.shape()[1];
    const int64_t n = b.shape()[1];
    DITTO_ASSERT(b.shape()[0] == k, "matmul inner dimensions mismatch");
    Tensor<Out> c(Shape{m, n});
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
            Out acc{0};
            for (int64_t x = 0; x < k; ++x)
                acc += static_cast<Out>(a.at(i, x)) *
                       static_cast<Out>(b.at(x, j));
            c.at(i, j) = acc;
        }
    }
    return c;
}

/** Shared transposed matmul loop: C[m,n] = A[m,k] * B[n,k]^T. */
template <typename A, typename B, typename Out>
Tensor<Out>
matmulTransposedLoop(const Tensor<A> &a, const Tensor<B> &b)
{
    DITTO_ASSERT(a.shape().rank() == 2 && b.shape().rank() == 2,
                 "matmul operands must be matrices");
    const int64_t m = a.shape()[0];
    const int64_t k = a.shape()[1];
    const int64_t n = b.shape()[0];
    DITTO_ASSERT(b.shape()[1] == k, "matmul inner dimensions mismatch");
    Tensor<Out> c(Shape{m, n});
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
            Out acc{0};
            for (int64_t x = 0; x < k; ++x)
                acc += static_cast<Out>(a.at(i, x)) *
                       static_cast<Out>(b.at(j, x));
            c.at(i, j) = acc;
        }
    }
    return c;
}

} // namespace

//
// Public entry points: blocked, parallel fast paths.
//

FloatTensor
matmul(const FloatTensor &a, const FloatTensor &b)
{
    return kernels::gemm(a, b, /*transpose_b=*/false);
}

FloatTensor
matmulTransposed(const FloatTensor &a, const FloatTensor &b)
{
    return kernels::gemm(a, b, /*transpose_b=*/true);
}

FloatTensor
conv2d(const FloatTensor &input, const FloatTensor &weight,
       const FloatTensor *bias, const Conv2dParams &params)
{
    return kernels::conv2d(input, weight, bias, params);
}

FloatTensor
fullyConnected(const FloatTensor &input, const FloatTensor &weight,
               const FloatTensor *bias)
{
    return kernels::gemm(input, weight, /*transpose_b=*/true, bias);
}

FloatTensor
add(const FloatTensor &a, const FloatTensor &b)
{
    return kernels::add(a, b);
}

FloatTensor
subtract(const FloatTensor &a, const FloatTensor &b)
{
    return kernels::subtract(a, b);
}

FloatTensor
multiply(const FloatTensor &a, const FloatTensor &b)
{
    return kernels::multiply(a, b);
}

FloatTensor
affine(const FloatTensor &x, float scale, float shift)
{
    return kernels::affine(x, scale, shift);
}

FloatTensor
silu(const FloatTensor &x)
{
    return kernels::silu(x);
}

FloatTensor
gelu(const FloatTensor &x)
{
    return kernels::gelu(x);
}

FloatTensor
softmaxRows(const FloatTensor &x)
{
    return kernels::softmaxRows(x);
}

FloatTensor
groupNorm(const FloatTensor &x, int64_t groups, float eps)
{
    return kernels::groupNorm(x, groups, eps);
}

FloatTensor
layerNorm(const FloatTensor &x, float eps)
{
    return kernels::layerNorm(x, eps);
}

Int32Tensor
matmulInt8(const Int8Tensor &a, const Int8Tensor &b)
{
    return kernels::gemmInt8(a, b, /*transpose_b=*/false);
}

Int32Tensor
matmulTransposedInt8(const Int8Tensor &a, const Int8Tensor &b)
{
    return kernels::gemmInt8(a, b, /*transpose_b=*/true);
}

Int32Tensor
conv2dInt8(const Int8Tensor &input, const Int8Tensor &weight,
           const Conv2dParams &params)
{
    return kernels::conv2dInt8(input, weight, params);
}

Int32Tensor
fullyConnectedInt8(const Int8Tensor &input, const Int8Tensor &weight)
{
    return kernels::gemmInt8(input, weight, /*transpose_b=*/true);
}

Int32Tensor
matmulDiffInt16(const Int16Tensor &a, const Int8Tensor &b)
{
    return kernels::gemmDiffInt16(a, b, /*transpose_b=*/false);
}

Int32Tensor
matmulTransposedDiffInt16(const Int16Tensor &a, const Int8Tensor &b)
{
    return kernels::gemmDiffInt16(a, b, /*transpose_b=*/true);
}

Int32Tensor
conv2dDiffInt16(const Int16Tensor &input, const Int8Tensor &weight,
                const Conv2dParams &params)
{
    return kernels::conv2dDiffInt16(input, weight, params);
}

Int32Tensor
fullyConnectedDiffInt16(const Int16Tensor &input, const Int8Tensor &weight)
{
    return kernels::gemmDiffInt16(input, weight, /*transpose_b=*/true);
}

Int32Tensor
addInt32(const Int32Tensor &a, const Int32Tensor &b)
{
    return kernels::addInt32(a, b);
}

Int16Tensor
subtractInt8(const Int8Tensor &a, const Int8Tensor &b)
{
    return kernels::subtractInt8(a, b);
}

Int32Tensor
matmulDiffPlan(const DiffGemmPlan &plan, const Int8Tensor &b,
               const Int32Tensor *prev)
{
    DITTO_ASSERT(b.shape().rank() == 2 && b.shape()[0] == plan.cols,
                 "matmulDiffPlan operand shape mismatch");
    return kernels::diffGemm(plan, b.data().data(), b.shape()[1],
                             /*transpose_b=*/false, prev);
}

Int32Tensor
matmulTransposedDiffPlan(const DiffGemmPlan &plan, const Int8Tensor &b,
                         const Int32Tensor *prev)
{
    DITTO_ASSERT(b.shape().rank() == 2 && b.shape()[1] == plan.cols,
                 "matmulTransposedDiffPlan operand shape mismatch");
    return kernels::diffGemm(plan, b.data().data(), b.shape()[0],
                             /*transpose_b=*/true, prev);
}

Int8Tensor
transposeInt8(const Int8Tensor &m)
{
    return kernels::transposeInt8(m);
}

Int32Tensor
addTransposedInt32(const Int32Tensor &prev, const Int32Tensor &delta)
{
    return kernels::addTransposedInt32(prev, delta);
}

//
// Scalar reference kernels.
//

namespace naive {

FloatTensor
matmul(const FloatTensor &a, const FloatTensor &b)
{
    return matmulLoop<float, float, float>(a, b);
}

FloatTensor
matmulTransposed(const FloatTensor &a, const FloatTensor &b)
{
    return matmulTransposedLoop<float, float, float>(a, b);
}

FloatTensor
conv2d(const FloatTensor &input, const FloatTensor &weight,
       const FloatTensor *bias, const Conv2dParams &params)
{
    return convLoop<float, float, float>(input, weight, bias, params);
}

FloatTensor
fullyConnected(const FloatTensor &input, const FloatTensor &weight,
               const FloatTensor *bias)
{
    FloatTensor out = matmulTransposedLoop<float, float, float>(input,
                                                                weight);
    if (bias) {
        DITTO_ASSERT(bias->numel() == weight.shape()[0],
                     "fc bias size mismatch");
        for (int64_t r = 0; r < out.shape()[0]; ++r)
            for (int64_t c = 0; c < out.shape()[1]; ++c)
                out.at(r, c) += bias->at(c);
    }
    return out;
}

FloatTensor
silu(const FloatTensor &x)
{
    FloatTensor out(x.shape());
    auto sx = x.data();
    auto so = out.data();
    for (size_t i = 0; i < sx.size(); ++i)
        so[i] = sx[i] / (1.0f + std::exp(-sx[i]));
    return out;
}

FloatTensor
gelu(const FloatTensor &x)
{
    // tanh approximation: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))
    constexpr float kC = 0.7978845608028654f; // sqrt(2/pi)
    FloatTensor out(x.shape());
    auto sx = x.data();
    auto so = out.data();
    for (size_t i = 0; i < sx.size(); ++i) {
        const float v = sx[i];
        so[i] = 0.5f * v *
                (1.0f + std::tanh(kC * (v + 0.044715f * v * v * v)));
    }
    return out;
}

FloatTensor
softmaxRows(const FloatTensor &x)
{
    DITTO_ASSERT(x.shape().rank() == 2, "softmaxRows expects a matrix");
    const int64_t n = x.shape()[0];
    const int64_t d = x.shape()[1];
    FloatTensor out(x.shape());
    for (int64_t r = 0; r < n; ++r) {
        float mx = x.at(r, 0);
        for (int64_t c = 1; c < d; ++c)
            mx = std::max(mx, x.at(r, c));
        float sum = 0.0f;
        for (int64_t c = 0; c < d; ++c) {
            const float e = std::exp(x.at(r, c) - mx);
            out.at(r, c) = e;
            sum += e;
        }
        for (int64_t c = 0; c < d; ++c)
            out.at(r, c) /= sum;
    }
    return out;
}

FloatTensor
groupNorm(const FloatTensor &x, int64_t groups, float eps)
{
    DITTO_ASSERT(x.shape().rank() == 4, "groupNorm expects NCHW");
    const int64_t n = x.shape()[0];
    const int64_t c = x.shape()[1];
    const int64_t h = x.shape()[2];
    const int64_t w = x.shape()[3];
    DITTO_ASSERT(groups > 0 && c % groups == 0,
                 "groups must divide channel count");
    const int64_t gsz = c / groups;
    FloatTensor out(x.shape());
    for (int64_t b = 0; b < n; ++b) {
        for (int64_t g = 0; g < groups; ++g) {
            double mean = 0.0;
            const int64_t count = gsz * h * w;
            for (int64_t ci = g * gsz; ci < (g + 1) * gsz; ++ci)
                for (int64_t y = 0; y < h; ++y)
                    for (int64_t xw = 0; xw < w; ++xw)
                        mean += x.at(b, ci, y, xw);
            mean /= static_cast<double>(count);
            double var = 0.0;
            for (int64_t ci = g * gsz; ci < (g + 1) * gsz; ++ci) {
                for (int64_t y = 0; y < h; ++y) {
                    for (int64_t xw = 0; xw < w; ++xw) {
                        const double d = x.at(b, ci, y, xw) - mean;
                        var += d * d;
                    }
                }
            }
            var /= static_cast<double>(count);
            const float inv =
                1.0f / std::sqrt(static_cast<float>(var) + eps);
            for (int64_t ci = g * gsz; ci < (g + 1) * gsz; ++ci)
                for (int64_t y = 0; y < h; ++y)
                    for (int64_t xw = 0; xw < w; ++xw)
                        out.at(b, ci, y, xw) =
                            (x.at(b, ci, y, xw) -
                             static_cast<float>(mean)) * inv;
        }
    }
    return out;
}

FloatTensor
layerNorm(const FloatTensor &x, float eps)
{
    DITTO_ASSERT(x.shape().rank() == 2, "layerNorm expects a matrix");
    const int64_t n = x.shape()[0];
    const int64_t d = x.shape()[1];
    FloatTensor out(x.shape());
    for (int64_t r = 0; r < n; ++r) {
        double mean = 0.0;
        for (int64_t c = 0; c < d; ++c)
            mean += x.at(r, c);
        mean /= static_cast<double>(d);
        double var = 0.0;
        for (int64_t c = 0; c < d; ++c) {
            const double dv = x.at(r, c) - mean;
            var += dv * dv;
        }
        var /= static_cast<double>(d);
        const float inv = 1.0f / std::sqrt(static_cast<float>(var) + eps);
        for (int64_t c = 0; c < d; ++c)
            out.at(r, c) =
                (x.at(r, c) - static_cast<float>(mean)) * inv;
    }
    return out;
}

Int32Tensor
matmulInt8(const Int8Tensor &a, const Int8Tensor &b)
{
    return matmulLoop<int8_t, int8_t, int32_t>(a, b);
}

Int32Tensor
matmulTransposedInt8(const Int8Tensor &a, const Int8Tensor &b)
{
    return matmulTransposedLoop<int8_t, int8_t, int32_t>(a, b);
}

Int32Tensor
conv2dInt8(const Int8Tensor &input, const Int8Tensor &weight,
           const Conv2dParams &params)
{
    return convLoop<int8_t, int8_t, int32_t>(input, weight, nullptr,
                                             params);
}

Int32Tensor
fullyConnectedInt8(const Int8Tensor &input, const Int8Tensor &weight)
{
    return matmulTransposedLoop<int8_t, int8_t, int32_t>(input, weight);
}

Int32Tensor
matmulDiffInt16(const Int16Tensor &a, const Int8Tensor &b)
{
    return matmulLoop<int16_t, int8_t, int32_t>(a, b);
}

Int32Tensor
matmulTransposedDiffInt16(const Int16Tensor &a, const Int8Tensor &b)
{
    return matmulTransposedLoop<int16_t, int8_t, int32_t>(a, b);
}

Int32Tensor
conv2dDiffInt16(const Int16Tensor &input, const Int8Tensor &weight,
                const Conv2dParams &params)
{
    return convLoop<int16_t, int8_t, int32_t>(input, weight, nullptr,
                                              params);
}

Int32Tensor
fullyConnectedDiffInt16(const Int16Tensor &input, const Int8Tensor &weight)
{
    return matmulTransposedLoop<int16_t, int8_t, int32_t>(input, weight);
}

} // namespace naive

} // namespace ditto
