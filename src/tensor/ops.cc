/**
 * @file
 * The Tensor-returning ops and the scalar naive:: references.
 *
 * Each public op checks its operand shapes, allocates its result and
 * makes one call into the raw-buffer kernels of tensor/kernels.h and
 * tensor/diff_gemm.h, the same bodies the compiled executors and the
 * difference engines call. The clarity-first triple loops remain below
 * as ditto::naive, the ground truth the fast kernels are parity-tested
 * against; they share each op's shape checks.
 */
#include "tensor/ops.h"

#include <cmath>

#include "common/logging.h"
#include "tensor/kernels.h"

namespace ditto {

namespace {

/** Extents of C[m,n] = A[m,k] * op(B): B:[k,n], or B^T for B:[n,k]. */
struct GemmDims
{
    int64_t m, k, n;
};

template <typename A, typename B>
GemmDims
gemmDims(const Tensor<A> &a, const Tensor<B> &b, bool trans_b)
{
    DITTO_ASSERT(a.shape().rank() == 2 && b.shape().rank() == 2,
                 "matmul operands must be matrices");
    const GemmDims d{a.shape()[0], a.shape()[1],
                     b.shape()[trans_b ? 0 : 1]};
    DITTO_ASSERT(b.shape()[trans_b ? 1 : 0] == d.k,
                 "matmul inner dimensions mismatch");
    return d;
}

/** Checks conv operands and the optional bias [O]; the output shape. */
template <typename In, typename W>
Shape
convOutShape(const Tensor<In> &input, const Tensor<W> &weight,
             const FloatTensor *bias, const Conv2dParams &p)
{
    DITTO_ASSERT(input.shape().rank() == 4, "conv input must be NCHW");
    DITTO_ASSERT(weight.shape().rank() == 4, "conv weight must be OIHW");
    DITTO_ASSERT(input.shape()[1] == p.inChannels,
                 "conv input channels mismatch");
    DITTO_ASSERT(weight.shape()[0] == p.outChannels &&
                 weight.shape()[1] == p.inChannels &&
                 weight.shape()[2] == p.kernel &&
                 weight.shape()[3] == p.kernel,
                 "conv weight shape mismatch");
    DITTO_ASSERT(!bias || bias->numel() == p.outChannels,
                 "conv bias size mismatch");
    const int64_t oh = p.outExtent(input.shape()[2]);
    const int64_t ow = p.outExtent(input.shape()[3]);
    DITTO_ASSERT(oh > 0 && ow > 0, "conv output would be empty");
    return Shape{input.shape()[0], p.outChannels, oh, ow};
}

/**
 * out[o, c, i] += bias[c] over out viewed as [outer, bias.numel(),
 * inner]: the fully-connected bias (inner 1) and the conv bias per
 * output channel (inner OH*OW), added to the finished product.
 */
void
addBias(FloatTensor &out, const FloatTensor &bias, int64_t inner)
{
    const int64_t ch = bias.numel();
    const int64_t outer = out.numel() / (ch * inner);
    float *o = out.data().data();
    for (int64_t i = 0; i < outer; ++i)
        for (int64_t c = 0; c < ch; ++c, o += inner)
            for (int64_t x = 0; x < inner; ++x)
                o[x] += bias.at(c);
}

/** y + b for the fully-connected output y:[n, out] and bias b:[out]. */
FloatTensor
withFcBias(FloatTensor out, const FloatTensor *bias)
{
    if (bias) {
        DITTO_ASSERT(bias->numel() == out.shape()[1],
                     "fc bias size mismatch");
        addBias(out, *bias, 1);
    }
    return out;
}

/** C = A * op(B) through a raw accumulating GEMM into a zeroed C. */
template <typename A, typename B, typename C>
Tensor<C>
gemmShim(const Tensor<A> &a, const Tensor<B> &b, bool trans_b,
         void (*raw)(const A *, int64_t, int64_t, const B *, int64_t, bool,
                     C *))
{
    const GemmDims d = gemmDims(a, b, trans_b);
    Tensor<C> c(Shape{d.m, d.n});
    raw(a.data().data(), d.m, d.k, b.data().data(), d.n, trans_b,
        c.data().data());
    return c;
}

/** A convolution through a raw conv2d*Into kernel. */
template <typename In, typename W, typename Out>
Tensor<Out>
convShim(const Tensor<In> &input, const Tensor<W> &weight,
         const FloatTensor *bias, const Conv2dParams &p,
         void (*raw)(const In *, int64_t, int64_t, int64_t, const Tensor<W> &,
                     const Conv2dParams &, Out *))
{
    Tensor<Out> out(convOutShape(input, weight, bias, p));
    raw(input.data().data(), input.shape()[0], input.shape()[2],
        input.shape()[3], weight, p, out.data().data());
    return out;
}

/** An elementwise binary op through a raw kernel; shapes must match. */
template <typename T, typename Out>
Tensor<Out>
binaryShim(const Tensor<T> &a, const Tensor<T> &b,
           void (*raw)(const T *, const T *, int64_t, Out *))
{
    DITTO_ASSERT(a.shape() == b.shape(), "elementwise shape mismatch");
    Tensor<Out> out(a.shape());
    raw(a.data().data(), b.data().data(), a.numel(), out.data().data());
    return out;
}

/** Shared im2col-free convolution loop, templated over element types. */
template <typename In, typename W, typename Out>
Tensor<Out>
convLoop(const Tensor<In> &input, const Tensor<W> &weight,
         const Tensor<float> *bias, const Conv2dParams &p)
{
    Tensor<Out> out(convOutShape(input, weight, bias, p));
    const int64_t n = input.shape()[0];
    const int64_t cin = input.shape()[1];
    const int64_t h = input.shape()[2];
    const int64_t w = input.shape()[3];
    const int64_t oh = out.shape()[2];
    const int64_t ow = out.shape()[3];
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

/** Shared matmul loop: C[m,n] = A[m,k] * op(B). */
template <typename A, typename B, typename Out>
Tensor<Out>
matmulLoop(const Tensor<A> &a, const Tensor<B> &b, bool trans_b)
{
    const GemmDims d = gemmDims(a, b, trans_b);
    Tensor<Out> c(Shape{d.m, d.n});
    for (int64_t i = 0; i < d.m; ++i) {
        for (int64_t j = 0; j < d.n; ++j) {
            Out acc{0};
            for (int64_t x = 0; x < d.k; ++x)
                acc += static_cast<Out>(a.at(i, x)) *
                       static_cast<Out>(trans_b ? b.at(j, x) : b.at(x, j));
            c.at(i, j) = acc;
        }
    }
    return c;
}

} // namespace

//
// Public entry points: shape checks over the raw kernels.
//

FloatTensor
matmul(const FloatTensor &a, const FloatTensor &b)
{
    return gemmShim(a, b, /*trans_b=*/false, kernels::gemmInto);
}

FloatTensor
matmulTransposed(const FloatTensor &a, const FloatTensor &b)
{
    return gemmShim(a, b, /*trans_b=*/true, kernels::gemmInto);
}

FloatTensor
conv2d(const FloatTensor &input, const FloatTensor &weight,
       const FloatTensor *bias, const Conv2dParams &params)
{
    FloatTensor out =
        convShim(input, weight, bias, params, kernels::conv2dInto);
    if (bias)
        addBias(out, *bias, out.shape()[2] * out.shape()[3]);
    return out;
}

FloatTensor
fullyConnected(const FloatTensor &input, const FloatTensor &weight,
               const FloatTensor *bias)
{
    return withFcBias(matmulTransposed(input, weight), bias);
}

FloatTensor
add(const FloatTensor &a, const FloatTensor &b)
{
    return binaryShim(a, b, kernels::addInto);
}

FloatTensor
affine(const FloatTensor &x, float scale, float shift)
{
    FloatTensor out(x.shape());
    kernels::affineInto(x.data().data(), x.numel(), scale, shift,
                        out.data().data());
    return out;
}

FloatTensor
silu(const FloatTensor &x)
{
    FloatTensor out(x.shape());
    kernels::siluInto(x.data().data(), x.numel(), out.data().data());
    return out;
}

FloatTensor
gelu(const FloatTensor &x)
{
    FloatTensor out(x.shape());
    kernels::geluInto(x.data().data(), x.numel(), out.data().data());
    return out;
}

FloatTensor
softmaxRows(const FloatTensor &x)
{
    DITTO_ASSERT(x.shape().rank() == 2, "softmaxRows expects a matrix");
    FloatTensor out(x.shape());
    kernels::softmaxRowsInto(x.data().data(), x.shape()[0], x.shape()[1],
                             out.data().data());
    return out;
}

FloatTensor
groupNorm(const FloatTensor &x, int64_t groups, float eps)
{
    const Shape &s = x.shape();
    DITTO_ASSERT(s.rank() == 4, "groupNorm expects NCHW");
    DITTO_ASSERT(groups > 0 && s[1] % groups == 0,
                 "groups must divide channel count");
    FloatTensor out(s);
    kernels::groupNormInto(x.data().data(), s[0], s[1], s[2] * s[3], groups,
                           eps, out.data().data());
    return out;
}

FloatTensor
layerNorm(const FloatTensor &x, float eps)
{
    DITTO_ASSERT(x.shape().rank() == 2, "layerNorm expects a matrix");
    FloatTensor out(x.shape());
    kernels::layerNormInto(x.data().data(), x.shape()[0], x.shape()[1], eps,
                           out.data().data());
    return out;
}

Int32Tensor
matmulInt8(const Int8Tensor &a, const Int8Tensor &b)
{
    return gemmShim(a, b, /*trans_b=*/false, kernels::gemmInt8Into);
}

Int32Tensor
matmulTransposedInt8(const Int8Tensor &a, const Int8Tensor &b)
{
    return gemmShim(a, b, /*trans_b=*/true, kernels::gemmInt8Into);
}

Int32Tensor
conv2dInt8(const Int8Tensor &input, const Int8Tensor &weight,
           const Conv2dParams &params)
{
    return convShim(input, weight, nullptr, params, kernels::conv2dInt8Into);
}

Int32Tensor
fullyConnectedInt8(const Int8Tensor &input, const Int8Tensor &weight)
{
    return matmulTransposedInt8(input, weight);
}

Int32Tensor
matmulDiffInt16(const Int16Tensor &a, const Int8Tensor &b)
{
    return gemmShim(a, b, /*trans_b=*/false, kernels::gemmDiffInt16Into);
}

Int32Tensor
matmulTransposedDiffInt16(const Int16Tensor &a, const Int8Tensor &b)
{
    return gemmShim(a, b, /*trans_b=*/true, kernels::gemmDiffInt16Into);
}

Int32Tensor
conv2dDiffInt16(const Int16Tensor &input, const Int8Tensor &weight,
                const Conv2dParams &params)
{
    return convShim(input, weight, nullptr, params,
                    kernels::conv2dDiffInt16Into);
}

Int32Tensor
fullyConnectedDiffInt16(const Int16Tensor &input, const Int8Tensor &weight)
{
    return matmulTransposedDiffInt16(input, weight);
}

Int32Tensor
addInt32(const Int32Tensor &a, const Int32Tensor &b)
{
    return binaryShim(a, b, kernels::addInt32Into);
}

Int16Tensor
subtractInt8(const Int8Tensor &a, const Int8Tensor &b)
{
    return binaryShim(a, b, kernels::subtractInt8Into);
}

Int32Tensor
matmulDiffPlan(const DiffGemmPlan &plan, const Int8Tensor &b,
               const Int32Tensor *prev)
{
    DITTO_ASSERT(b.shape().rank() == 2 && b.shape()[0] == plan.cols,
                 "matmulDiffPlan operand shape mismatch");
    const int64_t n = b.shape()[1];
    Int32Tensor out = prev ? *prev : Int32Tensor(Shape{plan.rows, n});
    DITTO_ASSERT(out.shape() == Shape({plan.rows, n}),
                 "matmulDiffPlan previous-output shape mismatch");
    const kernels::DiffGemmBatchItem item{&plan, b.data().data(),
                                          out.data().data()};
    kernels::diffGemmBatch({&item, 1}, n);
    return out;
}

Int32Tensor
matmulTransposedDiffPlan(const DiffGemmPlan &plan, const Int8Tensor &b,
                         const Int32Tensor *prev)
{
    DITTO_ASSERT(b.shape().rank() == 2 && b.shape()[1] == plan.cols,
                 "matmulTransposedDiffPlan operand shape mismatch");
    return matmulDiffPlan(plan, transposeInt8(b), prev);
}

Int8Tensor
transposeInt8(const Int8Tensor &m)
{
    DITTO_ASSERT(m.shape().rank() == 2, "transposeInt8 expects a matrix");
    const int64_t rows = m.shape()[0];
    const int64_t cols = m.shape()[1];
    Int8Tensor out(Shape{cols, rows});
    kernels::transposeInt8Into(m.data().data(), rows, cols,
                               out.data().data());
    return out;
}

Int32Tensor
addTransposedInt32(const Int32Tensor &prev, const Int32Tensor &delta)
{
    DITTO_ASSERT(prev.shape().rank() == 2 && delta.shape().rank() == 2,
                 "addTransposedInt32 expects matrices");
    const int64_t m = prev.shape()[0];
    const int64_t n = prev.shape()[1];
    DITTO_ASSERT(delta.shape() == Shape({n, m}),
                 "addTransposedInt32 operand shape mismatch");
    Int32Tensor out = prev;
    kernels::addTransposedInt32InPlace(out.data().data(),
                                       delta.data().data(), m, n);
    return out;
}

//
// Scalar reference kernels.
//

namespace naive {

FloatTensor
matmul(const FloatTensor &a, const FloatTensor &b)
{
    return matmulLoop<float, float, float>(a, b, false);
}

FloatTensor
matmulTransposed(const FloatTensor &a, const FloatTensor &b)
{
    return matmulLoop<float, float, float>(a, b, true);
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
    return withFcBias(naive::matmulTransposed(input, weight), bias);
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
    return matmulLoop<int8_t, int8_t, int32_t>(a, b, false);
}

Int32Tensor
matmulTransposedInt8(const Int8Tensor &a, const Int8Tensor &b)
{
    return matmulLoop<int8_t, int8_t, int32_t>(a, b, true);
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
    return naive::matmulTransposedInt8(input, weight);
}

Int32Tensor
matmulDiffInt16(const Int16Tensor &a, const Int8Tensor &b)
{
    return matmulLoop<int16_t, int8_t, int32_t>(a, b, false);
}

Int32Tensor
matmulTransposedDiffInt16(const Int16Tensor &a, const Int8Tensor &b)
{
    return matmulLoop<int16_t, int8_t, int32_t>(a, b, true);
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
    return naive::matmulTransposedDiffInt16(input, weight);
}

} // namespace naive

} // namespace ditto
