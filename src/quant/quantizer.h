/**
 * @file
 * Quantization support for the Ditto reproduction.
 *
 * The paper evaluates Ditto on A8W8 models quantized either with
 * Q-Diffusion-style calibrated scales (UNet models) or simple dynamic
 * quantization (diffusion transformers). Both reduce to symmetric
 * uniform quantization with a per-tensor scale; what differs is how the
 * scale is chosen. This module provides:
 *
 *  - QuantParams / quantize / dequantize primitives,
 *  - dynamic per-tensor scale selection (max-abs),
 *  - static calibration over a set of sample tensors,
 *  - time-step-clustered calibration (the Q-Diffusion / TDQ idea of
 *    grouping time steps with similar activation ranges and assigning a
 *    scale per cluster).
 */
#ifndef DITTO_QUANT_QUANTIZER_H
#define DITTO_QUANT_QUANTIZER_H

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace ditto {

/** Symmetric uniform quantization parameters for one tensor. */
struct QuantParams
{
    float scale = 1.0f;  //!< real value represented by one integer step
    int bits = 8;        //!< signed two's-complement bit-width

    /** Largest representable code, e.g. 127 for 8 bits. */
    int64_t
    maxCode() const
    {
        return (int64_t{1} << (bits - 1)) - 1;
    }

    /** Smallest representable code, e.g. -127 (symmetric, not -128). */
    int64_t minCode() const { return -maxCode(); }
};

/** Quantize a float tensor to int8 codes with the given parameters. */
Int8Tensor quantize(const FloatTensor &x, const QuantParams &params);

/** Dequantize int8 codes back to floats. */
FloatTensor dequantize(const Int8Tensor &q, const QuantParams &params);

/** Dequantize int32 accumulator values with a combined scale. */
FloatTensor dequantizeAccum(const Int32Tensor &acc, float combined_scale);

/** quantize() of `n` floats into caller-owned codes. */
void quantizeInto(const float *x, int64_t n, const QuantParams &params,
                  int8_t *out);

/** dequantizeAccum() of `n` accumulators into caller-owned floats. */
void dequantizeAccumInto(const int32_t *acc, int64_t n,
                         float combined_scale, float *out);

/**
 * Choose a symmetric dynamic scale from the max-abs of the tensor.
 *
 * This is the "simple dynamic quantization" the paper applies to DiT and
 * Latte: scale = maxabs / maxCode, re-derived per tensor at run time.
 */
QuantParams chooseDynamicScale(const FloatTensor &x, int bits = 8);

/**
 * Choose a static scale from calibration samples (max of max-abs).
 *
 * Models what an offline Q-Diffusion calibration pass produces when all
 * time steps share one scale; used to demonstrate why static scales fail
 * for drifting activation ranges.
 */
QuantParams chooseStaticScale(const std::vector<FloatTensor> &samples,
                              int bits = 8);

/**
 * Time-step-clustered calibration (Q-Diffusion / TDQ style).
 *
 * Groups time steps into `clusters` contiguous clusters by value range
 * (1-D k-means on log-range with contiguity constraint relaxed to plain
 * k-means; ranges drift monotonically in practice so clusters come out
 * contiguous) and assigns one scale per cluster.
 */
class TimestepClusteredQuantizer
{
  public:
    /**
     * Calibrate from per-step max-abs statistics.
     *
     * @param per_step_maxabs max-abs of the activation at each time step.
     * @param clusters number of scale clusters.
     * @param bits quantization bit-width.
     */
    TimestepClusteredQuantizer(const std::vector<float> &per_step_maxabs,
                               int clusters, int bits = 8);

    /** Quantization parameters to use at time step `step`. */
    const QuantParams &paramsForStep(int step) const;

    /** Cluster index assigned to `step`. */
    int clusterOfStep(int step) const;

    int numClusters() const { return static_cast<int>(scales_.size()); }
    int numSteps() const { return static_cast<int>(assignment_.size()); }

  private:
    std::vector<QuantParams> scales_;  //!< one per cluster
    std::vector<int> assignment_;      //!< step -> cluster
};

/**
 * Worst-case quantization error of representing `samples` with `params`
 * (max over elements of |x - dequant(quant(x))|). Used in tests to show
 * clustered scales dominate a single static scale on drifting ranges.
 */
float maxQuantError(const FloatTensor &x, const QuantParams &params);

} // namespace ditto

#endif // DITTO_QUANT_QUANTIZER_H
