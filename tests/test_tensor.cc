/**
 * @file
 * Unit tests for src/tensor: shapes, tensors and the reference kernels.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace ditto {
namespace {

TEST(Shape, RankAndDims)
{
    Shape s{2, 3, 4};
    EXPECT_EQ(s.rank(), 3);
    EXPECT_EQ(s[0], 2);
    EXPECT_EQ(s[1], 3);
    EXPECT_EQ(s[2], 4);
    EXPECT_EQ(s.numel(), 24);
}

TEST(Shape, EmptyShapeHasZeroElements)
{
    Shape s;
    EXPECT_EQ(s.rank(), 0);
    EXPECT_EQ(s.numel(), 0);
}

TEST(Shape, Equality)
{
    EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
    EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
    EXPECT_NE(Shape({2, 3}), Shape({2, 3, 1}));
}

TEST(Shape, ToString)
{
    EXPECT_EQ(Shape({2, 3}).toString(), "[2, 3]");
}

TEST(Tensor, FillAndAccess)
{
    FloatTensor t(Shape{2, 3}, 1.5f);
    EXPECT_FLOAT_EQ(t.at(1, 2), 1.5f);
    t.at(0, 1) = 2.0f;
    EXPECT_FLOAT_EQ(t.at(0, 1), 2.0f);
    EXPECT_FLOAT_EQ(t.at(1), 2.0f); // flat index 1 aliases (0, 1)
    EXPECT_FLOAT_EQ(t.at(3), 1.5f); // flat index 3 aliases (1, 0)
}

TEST(Tensor, FourDimAccessorRowMajor)
{
    Int32Tensor t(Shape{1, 2, 3, 4});
    t.at(0, 1, 2, 3) = 42;
    EXPECT_EQ(t.at(1 * 3 * 4 + 2 * 4 + 3), 42);
}

TEST(Tensor, EqualityIncludesShape)
{
    FloatTensor a(Shape{2, 2}, 1.0f);
    FloatTensor b(Shape{4}, 1.0f);
    EXPECT_FALSE(a == b);
    FloatTensor c(Shape{2, 2}, 1.0f);
    EXPECT_TRUE(a == c);
}

TEST(Tensor, FillNormalProducesVariedValues)
{
    Rng rng(1);
    FloatTensor t(Shape{1000});
    t.fillNormal(rng, 0.0, 1.0);
    double sum = 0.0;
    for (float v : t.data())
        sum += v;
    EXPECT_NEAR(sum / 1000.0, 0.0, 0.15);
}

TEST(Tensor, FillUniformIntInRange)
{
    Rng rng(2);
    Int8Tensor t(Shape{1000});
    t.fillUniformInt(rng, -5, 5);
    for (int8_t v : t.data()) {
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Ops, MatmulHandComputed)
{
    FloatTensor a(Shape{2, 3});
    FloatTensor b(Shape{3, 2});
    for (int64_t i = 0; i < 6; ++i) {
        a.at(i) = static_cast<float>(i + 1);     // 1..6
        b.at(i) = static_cast<float>(6 - i);     // 6..1
    }
    const FloatTensor c = matmul(a, b);
    // a = [[1,2,3],[4,5,6]], b = [[6,5],[4,3],[2,1]]
    EXPECT_FLOAT_EQ(c.at(0, 0), 1 * 6 + 2 * 4 + 3 * 2);
    EXPECT_FLOAT_EQ(c.at(0, 1), 1 * 5 + 2 * 3 + 3 * 1);
    EXPECT_FLOAT_EQ(c.at(1, 0), 4 * 6 + 5 * 4 + 6 * 2);
    EXPECT_FLOAT_EQ(c.at(1, 1), 4 * 5 + 5 * 3 + 6 * 1);
}

TEST(Ops, MatmulTransposedMatchesMatmul)
{
    Rng rng(3);
    FloatTensor a(Shape{4, 5});
    FloatTensor b(Shape{5, 6});
    a.fillNormal(rng);
    b.fillNormal(rng);
    FloatTensor bt(Shape{6, 5});
    for (int64_t i = 0; i < 5; ++i)
        for (int64_t j = 0; j < 6; ++j)
            bt.at(j, i) = b.at(i, j);
    const FloatTensor c1 = matmul(a, b);
    const FloatTensor c2 = matmulTransposed(a, bt);
    for (int64_t i = 0; i < c1.numel(); ++i)
        EXPECT_NEAR(c1.at(i), c2.at(i), 1e-4f);
}

TEST(Ops, ConvIdentityKernelPreservesInput)
{
    Rng rng(4);
    FloatTensor x(Shape{1, 2, 5, 5});
    x.fillNormal(rng);
    FloatTensor w(Shape{2, 2, 1, 1}, 0.0f);
    w.at(0, 0, 0, 0) = 1.0f;
    w.at(1, 1, 0, 0) = 1.0f;
    const Conv2dParams p{2, 2, 1, 1, 0};
    const FloatTensor y = conv2d(x, w, nullptr, p);
    EXPECT_EQ(y.shape(), x.shape());
    for (int64_t i = 0; i < x.numel(); ++i)
        EXPECT_FLOAT_EQ(y.at(i), x.at(i));
}

TEST(Ops, ConvAveragingKernel)
{
    FloatTensor x(Shape{1, 1, 3, 3}, 1.0f);
    FloatTensor w(Shape{1, 1, 3, 3}, 1.0f);
    const Conv2dParams p{1, 1, 3, 1, 1};
    const FloatTensor y = conv2d(x, w, nullptr, p);
    // Centre pixel sees all 9 ones; corners see 4.
    EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 9.0f);
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 4.0f);
}

TEST(Ops, ConvStrideHalvesExtent)
{
    FloatTensor x(Shape{1, 1, 8, 8}, 1.0f);
    FloatTensor w(Shape{1, 1, 3, 3}, 1.0f);
    const Conv2dParams p{1, 1, 3, 2, 1};
    const FloatTensor y = conv2d(x, w, nullptr, p);
    EXPECT_EQ(y.shape(), Shape({1, 1, 4, 4}));
}

TEST(Ops, ConvBiasApplied)
{
    FloatTensor x(Shape{1, 1, 2, 2}, 0.0f);
    FloatTensor w(Shape{1, 1, 1, 1}, 1.0f);
    FloatTensor bias(Shape{1}, 2.5f);
    const Conv2dParams p{1, 1, 1, 1, 0};
    const FloatTensor y = conv2d(x, w, &bias, p);
    for (int64_t i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(y.at(i), 2.5f);
}

TEST(Ops, FullyConnectedWithBias)
{
    FloatTensor x(Shape{1, 3});
    x.at(0, 0) = 1.0f;
    x.at(0, 1) = 2.0f;
    x.at(0, 2) = 3.0f;
    FloatTensor w(Shape{2, 3}, 1.0f);
    FloatTensor bias(Shape{2});
    bias.at(0) = 10.0f;
    bias.at(1) = -10.0f;
    const FloatTensor y = fullyConnected(x, w, &bias);
    EXPECT_FLOAT_EQ(y.at(0, 0), 16.0f);
    EXPECT_FLOAT_EQ(y.at(0, 1), -4.0f);
}

TEST(Ops, ElementwiseAddSubMul)
{
    FloatTensor a(Shape{4}, 3.0f);
    FloatTensor b(Shape{4}, 2.0f);
    EXPECT_FLOAT_EQ(add(a, b).at(0), 5.0f);
}

TEST(Ops, AffineScaleShift)
{
    FloatTensor a(Shape{2}, 2.0f);
    const FloatTensor y = affine(a, 3.0f, 1.0f);
    EXPECT_FLOAT_EQ(y.at(0), 7.0f);
}

TEST(Ops, SiluKnownValues)
{
    FloatTensor x(Shape{3});
    x.at(0) = 0.0f;
    x.at(1) = 10.0f;
    x.at(2) = -10.0f;
    const FloatTensor y = silu(x);
    EXPECT_FLOAT_EQ(y.at(0), 0.0f);
    EXPECT_NEAR(y.at(1), 10.0f, 1e-3f);
    EXPECT_NEAR(y.at(2), 0.0f, 1e-3f);
}

TEST(Ops, GeluKnownValues)
{
    FloatTensor x(Shape{2});
    x.at(0) = 0.0f;
    x.at(1) = 3.0f;
    const FloatTensor y = gelu(x);
    EXPECT_FLOAT_EQ(y.at(0), 0.0f);
    EXPECT_NEAR(y.at(1), 2.996f, 1e-2f);
}

TEST(Ops, SoftmaxRowsSumToOne)
{
    Rng rng(5);
    FloatTensor x(Shape{4, 7});
    x.fillNormal(rng, 0.0, 3.0);
    const FloatTensor y = softmaxRows(x);
    for (int64_t r = 0; r < 4; ++r) {
        float sum = 0.0f;
        for (int64_t c = 0; c < 7; ++c) {
            EXPECT_GT(y.at(r, c), 0.0f);
            sum += y.at(r, c);
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
}

TEST(Ops, SoftmaxNumericallyStableOnLargeInputs)
{
    FloatTensor x(Shape{1, 3});
    x.at(0, 0) = 1000.0f;
    x.at(0, 1) = 1001.0f;
    x.at(0, 2) = 999.0f;
    const FloatTensor y = softmaxRows(x);
    EXPECT_FALSE(std::isnan(y.at(0, 0)));
    EXPECT_GT(y.at(0, 1), y.at(0, 0));
}

TEST(Ops, GroupNormZeroMeanUnitVarPerGroup)
{
    Rng rng(6);
    FloatTensor x(Shape{1, 4, 4, 4});
    x.fillNormal(rng, 3.0, 2.0);
    const FloatTensor y = groupNorm(x, 2);
    for (int g = 0; g < 2; ++g) {
        double mean = 0.0;
        double var = 0.0;
        for (int64_t c = g * 2; c < (g + 1) * 2; ++c)
            for (int64_t i = 0; i < 4; ++i)
                for (int64_t j = 0; j < 4; ++j)
                    mean += y.at(0, c, i, j);
        mean /= 32.0;
        for (int64_t c = g * 2; c < (g + 1) * 2; ++c)
            for (int64_t i = 0; i < 4; ++i)
                for (int64_t j = 0; j < 4; ++j)
                    var += (y.at(0, c, i, j) - mean) *
                           (y.at(0, c, i, j) - mean);
        var /= 32.0;
        EXPECT_NEAR(mean, 0.0, 1e-5);
        EXPECT_NEAR(var, 1.0, 1e-3);
    }
}

TEST(Ops, LayerNormZeroMeanPerRow)
{
    Rng rng(7);
    FloatTensor x(Shape{3, 16});
    x.fillNormal(rng, -1.0, 4.0);
    const FloatTensor y = layerNorm(x);
    for (int64_t r = 0; r < 3; ++r) {
        double mean = 0.0;
        for (int64_t c = 0; c < 16; ++c)
            mean += y.at(r, c);
        EXPECT_NEAR(mean / 16.0, 0.0, 1e-5);
    }
}

TEST(Ops, IntMatmulMatchesFloatOnSmallIntegers)
{
    Rng rng(8);
    Int8Tensor a(Shape{3, 4});
    Int8Tensor b(Shape{4, 5});
    a.fillUniformInt(rng, -10, 10);
    b.fillUniformInt(rng, -10, 10);
    const Int32Tensor c = matmulInt8(a, b);
    for (int64_t i = 0; i < 3; ++i) {
        for (int64_t j = 0; j < 5; ++j) {
            int32_t acc = 0;
            for (int64_t k = 0; k < 4; ++k)
                acc += static_cast<int32_t>(a.at(i, k)) * b.at(k, j);
            EXPECT_EQ(c.at(i, j), acc);
        }
    }
}

TEST(Ops, IntConvMatchesManual)
{
    Int8Tensor x(Shape{1, 1, 2, 2});
    x.at(0) = 1;
    x.at(1) = 2;
    x.at(2) = 3;
    x.at(3) = 4;
    Int8Tensor w(Shape{1, 1, 2, 2});
    w.at(0) = 1;
    w.at(1) = 1;
    w.at(2) = 1;
    w.at(3) = 1;
    const Conv2dParams p{1, 1, 2, 1, 0};
    const Int32Tensor y = conv2dInt8(x, w, p);
    EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
    EXPECT_EQ(y.at(0), 10);
}

TEST(Ops, SubtractInt8WidensWithoutOverflow)
{
    Int8Tensor a(Shape{2});
    Int8Tensor b(Shape{2});
    a.at(0) = 127;
    b.at(0) = -127;
    a.at(1) = -127;
    b.at(1) = 127;
    const Int16Tensor d = subtractInt8(a, b);
    EXPECT_EQ(d.at(0), 254);
    EXPECT_EQ(d.at(1), -254);
}

TEST(Ops, DiffInt16KernelsMatchInt8OnSmallValues)
{
    Rng rng(9);
    Int8Tensor a8(Shape{3, 4});
    Int8Tensor b(Shape{5, 4});
    a8.fillUniformInt(rng, -50, 50);
    b.fillUniformInt(rng, -50, 50);
    Int16Tensor a16(Shape{3, 4});
    for (int64_t i = 0; i < a8.numel(); ++i)
        a16.at(i) = a8.at(i);
    const Int32Tensor c8 = matmulTransposedInt8(a8, b);
    const Int32Tensor c16 = matmulTransposedDiffInt16(a16, b);
    EXPECT_TRUE(c8 == c16);
}

TEST(Ops, AddInt32Elementwise)
{
    Int32Tensor a(Shape{3}, 5);
    Int32Tensor b(Shape{3}, -2);
    const Int32Tensor c = addInt32(a, b);
    for (int64_t i = 0; i < 3; ++i)
        EXPECT_EQ(c.at(i), 3);
}

} // namespace
} // namespace ditto
