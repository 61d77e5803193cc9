/**
 * @file
 * Stacked-slab tensor edits.
 *
 * The serving layer stores a batch of requests' tensors stacked along
 * dimension 0: slab i of a tensor holding `batch` slabs is rows
 * [i * d0/batch, (i+1) * d0/batch). These helpers grow/shrink such
 * stacks when requests join or leave; the image stack
 * (serve/batch_rollout.cc) and every CompiledModel::BatchDittoState
 * slot (runtime/compiled.cc) edit their slabs through this one
 * implementation, so slab layout can never diverge between them.
 */
#ifndef DITTO_TENSOR_SLAB_H
#define DITTO_TENSOR_SLAB_H

#include <algorithm>
#include <cstdint>

#include "common/logging.h"
#include "tensor/tensor.h"

namespace ditto {
namespace slab {

/** Shape with dimension 0 replaced. */
inline Shape
withDim0(const Shape &s, int64_t d0)
{
    switch (s.rank()) {
      case 1:
        return Shape{d0};
      case 2:
        return Shape{d0, s[1]};
      case 3:
        return Shape{d0, s[1], s[2]};
      case 4:
        return Shape{d0, s[1], s[2], s[3]};
    }
    DITTO_PANIC("unsupported rank");
}

/**
 * Copy of a stack of `batch` slabs with `count` zero slabs appended in
 * one reallocation. The new slabs belong to fresh (unprimed)
 * requests, so they are always written before they are read.
 */
template <typename T>
Tensor<T>
appended(const Tensor<T> &t, int64_t batch, int64_t count = 1)
{
    const int64_t d0 = t.shape()[0];
    DITTO_ASSERT(batch > 0 && count > 0 && d0 % batch == 0,
                 "stacked tensor dim 0 not slab-aligned");
    Tensor<T> grown(withDim0(t.shape(), d0 / batch * (batch + count)));
    std::copy(t.data().begin(), t.data().end(), grown.data().begin());
    return grown;
}

/** Copy of a stack of `batch` slabs with slab `i` removed. */
template <typename T>
Tensor<T>
removed(const Tensor<T> &t, int64_t batch, int64_t i)
{
    const int64_t d0 = t.shape()[0];
    DITTO_ASSERT(batch > 1 && d0 % batch == 0,
                 "stacked tensor dim 0 not slab-aligned");
    DITTO_ASSERT(i >= 0 && i < batch, "slab index out of range");
    const int64_t n = t.numel() / batch;
    Tensor<T> shrunk(withDim0(t.shape(), d0 / batch * (batch - 1)));
    std::copy(t.data().begin(), t.data().begin() + i * n,
              shrunk.data().begin());
    std::copy(t.data().begin() + (i + 1) * n, t.data().end(),
              shrunk.data().begin() + i * n);
    return shrunk;
}

} // namespace slab
} // namespace ditto

#endif // DITTO_TENSOR_SLAB_H
