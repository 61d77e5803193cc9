/**
 * @file
 * Dense typed tensor with owned storage.
 */
#ifndef DITTO_TENSOR_TENSOR_H
#define DITTO_TENSOR_TENSOR_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "tensor/shape.h"

namespace ditto {

/**
 * Dense row-major tensor owning its storage.
 *
 * Deliberately minimal: the functional Ditto pipeline only needs typed
 * dense storage, element access, and a few fills. All heavy math lives in
 * the free kernels of tensor/ops.h so each kernel can be tested in
 * isolation.
 */
template <typename T>
class Tensor
{
  public:
    Tensor() = default;

    explicit Tensor(const Shape &shape)
        : shape_(shape), data_(static_cast<size_t>(shape.numel()), T{})
    {}

    Tensor(const Shape &shape, T fill_value)
        : shape_(shape),
          data_(static_cast<size_t>(shape.numel()), fill_value)
    {}

    const Shape &shape() const { return shape_; }
    int64_t numel() const { return shape_.numel(); }

    std::span<T> data() { return std::span<T>(data_); }
    std::span<const T> data() const { return std::span<const T>(data_); }

    T &
    at(int64_t i)
    {
        DITTO_ASSERT(i >= 0 && i < numel(), "flat index out of range");
        return data_[static_cast<size_t>(i)];
    }

    const T &
    at(int64_t i) const
    {
        DITTO_ASSERT(i >= 0 && i < numel(), "flat index out of range");
        return data_[static_cast<size_t>(i)];
    }

    /** 2-D accessor for (rows, cols) matrices. */
    T &
    at(int64_t r, int64_t c)
    {
        DITTO_ASSERT(shape_.rank() == 2, "2-D accessor on non-matrix");
        return data_[static_cast<size_t>(r * shape_.dim(1) + c)];
    }

    const T &
    at(int64_t r, int64_t c) const
    {
        DITTO_ASSERT(shape_.rank() == 2, "2-D accessor on non-matrix");
        return data_[static_cast<size_t>(r * shape_.dim(1) + c)];
    }

    /** 4-D accessor for NCHW feature maps. */
    T &
    at(int64_t n, int64_t c, int64_t h, int64_t w)
    {
        DITTO_ASSERT(shape_.rank() == 4, "4-D accessor on non-NCHW tensor");
        return data_[static_cast<size_t>(
            ((n * shape_.dim(1) + c) * shape_.dim(2) + h) * shape_.dim(3) +
            w)];
    }

    const T &
    at(int64_t n, int64_t c, int64_t h, int64_t w) const
    {
        DITTO_ASSERT(shape_.rank() == 4, "4-D accessor on non-NCHW tensor");
        return data_[static_cast<size_t>(
            ((n * shape_.dim(1) + c) * shape_.dim(2) + h) * shape_.dim(3) +
            w)];
    }

    /**
     * Reshape to `shape`, keeping the storage: no allocation when the
     * new element count fits what the tensor has held before (the
     * workspace and double-buffered state slots are resized this way
     * every step). Elements carried over keep their values; new ones
     * are zero.
     */
    void
    resize(const Shape &shape)
    {
        const auto n = static_cast<size_t>(shape.numel());
        if (n > data_.capacity())
            data_.reserve(n); // exact: no geometric over-allocation
        shape_ = shape;
        data_.resize(n);
    }

    void
    fill(T value)
    {
        for (auto &v : data_)
            v = value;
    }

    /** Fill with iid normal draws (floating-point tensors only). */
    void
    fillNormal(Rng &rng, double mean = 0.0, double stddev = 1.0)
    {
        static_assert(std::is_floating_point_v<T>,
                      "fillNormal requires a floating-point tensor");
        for (auto &v : data_)
            v = static_cast<T>(rng.normal(mean, stddev));
    }

    /** Fill with iid uniform integer draws in [lo, hi] (integer tensors). */
    void
    fillUniformInt(Rng &rng, int64_t lo, int64_t hi)
    {
        static_assert(std::is_integral_v<T>,
                      "fillUniformInt requires an integer tensor");
        DITTO_ASSERT(hi >= lo, "bad uniform range");
        for (auto &v : data_) {
            v = static_cast<T>(
                lo + static_cast<int64_t>(
                         rng.uniformInt(static_cast<uint64_t>(hi - lo + 1))));
        }
    }

    bool
    operator==(const Tensor &other) const
    {
        return shape_ == other.shape_ && data_ == other.data_;
    }

  private:
    Shape shape_;
    std::vector<T> data_;
};

using FloatTensor = Tensor<float>;
using Int8Tensor = Tensor<int8_t>;
using Int16Tensor = Tensor<int16_t>;
using Int32Tensor = Tensor<int32_t>;

} // namespace ditto

#endif // DITTO_TENSOR_TENSOR_H
