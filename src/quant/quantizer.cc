/**
 * @file
 * Quantizer implementation.
 */
#include "quant/quantizer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace ditto {

void
quantizeInto(const float *x, int64_t n, const QuantParams &params,
             int8_t *out)
{
    DITTO_ASSERT(params.scale > 0.0f, "quantization scale must be positive");
    DITTO_ASSERT(params.bits >= 2 && params.bits <= 8,
                 "int8 storage supports 2..8 bit codes");
    const float inv = 1.0f / params.scale;
    const auto lo = static_cast<float>(params.minCode());
    const auto hi = static_cast<float>(params.maxCode());
    for (int64_t i = 0; i < n; ++i) {
        const float code = std::nearbyint(x[i] * inv);
        out[i] = static_cast<int8_t>(std::clamp(code, lo, hi));
    }
}

Int8Tensor
quantize(const FloatTensor &x, const QuantParams &params)
{
    Int8Tensor out(x.shape());
    quantizeInto(x.data().data(), x.numel(), params, out.data().data());
    return out;
}

FloatTensor
dequantize(const Int8Tensor &q, const QuantParams &params)
{
    FloatTensor out(q.shape());
    auto sq = q.data();
    auto so = out.data();
    for (size_t i = 0; i < sq.size(); ++i)
        so[i] = static_cast<float>(sq[i]) * params.scale;
    return out;
}

void
dequantizeAccumInto(const int32_t *acc, int64_t n, float combined_scale,
                    float *out)
{
    for (int64_t i = 0; i < n; ++i)
        out[i] = static_cast<float>(acc[i]) * combined_scale;
}

FloatTensor
dequantizeAccum(const Int32Tensor &acc, float combined_scale)
{
    FloatTensor out(acc.shape());
    dequantizeAccumInto(acc.data().data(), acc.numel(), combined_scale,
                        out.data().data());
    return out;
}

QuantParams
chooseDynamicScale(const FloatTensor &x, int bits)
{
    float maxabs = 0.0f;
    for (float v : x.data())
        maxabs = std::max(maxabs, std::fabs(v));
    QuantParams p;
    p.bits = bits;
    // An all-zero tensor quantizes exactly with any scale; pick 1.
    p.scale = maxabs > 0.0f
        ? maxabs / static_cast<float>(p.maxCode()) : 1.0f;
    return p;
}

QuantParams
chooseStaticScale(const std::vector<FloatTensor> &samples, int bits)
{
    DITTO_ASSERT(!samples.empty(), "static calibration needs samples");
    float maxabs = 0.0f;
    for (const auto &t : samples)
        for (float v : t.data())
            maxabs = std::max(maxabs, std::fabs(v));
    QuantParams p;
    p.bits = bits;
    p.scale = maxabs > 0.0f
        ? maxabs / static_cast<float>(p.maxCode()) : 1.0f;
    return p;
}

TimestepClusteredQuantizer::TimestepClusteredQuantizer(
    const std::vector<float> &per_step_maxabs, int clusters, int bits)
{
    const int steps = static_cast<int>(per_step_maxabs.size());
    DITTO_ASSERT(steps > 0, "clustered calibration needs steps");
    DITTO_ASSERT(clusters > 0, "need at least one cluster");
    clusters = std::min(clusters, steps);

    // 1-D k-means on log(maxabs). Initialise centroids at quantiles.
    std::vector<double> logs(steps);
    for (int i = 0; i < steps; ++i) {
        DITTO_ASSERT(per_step_maxabs[i] >= 0.0f, "negative max-abs");
        logs[i] = std::log(
            std::max(per_step_maxabs[i], 1e-12f));
    }
    std::vector<double> sorted = logs;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> centroids(clusters);
    for (int c = 0; c < clusters; ++c) {
        const int idx = static_cast<int>(
            (static_cast<double>(c) + 0.5) * steps / clusters);
        centroids[c] = sorted[std::min(idx, steps - 1)];
    }

    assignment_.assign(steps, 0);
    for (int iter = 0; iter < 50; ++iter) {
        bool changed = false;
        for (int i = 0; i < steps; ++i) {
            int best = 0;
            double best_d = std::numeric_limits<double>::max();
            for (int c = 0; c < clusters; ++c) {
                const double d = std::fabs(logs[i] - centroids[c]);
                if (d < best_d) {
                    best_d = d;
                    best = c;
                }
            }
            if (assignment_[i] != best) {
                assignment_[i] = best;
                changed = true;
            }
        }
        std::vector<double> sum(clusters, 0.0);
        std::vector<int> cnt(clusters, 0);
        for (int i = 0; i < steps; ++i) {
            sum[assignment_[i]] += logs[i];
            ++cnt[assignment_[i]];
        }
        for (int c = 0; c < clusters; ++c)
            if (cnt[c] > 0)
                centroids[c] = sum[c] / cnt[c];
        if (!changed)
            break;
    }

    // One scale per cluster, covering the worst step in that cluster.
    scales_.assign(clusters, QuantParams{});
    std::vector<float> cluster_max(clusters, 0.0f);
    for (int i = 0; i < steps; ++i)
        cluster_max[assignment_[i]] =
            std::max(cluster_max[assignment_[i]], per_step_maxabs[i]);
    for (int c = 0; c < clusters; ++c) {
        scales_[c].bits = bits;
        scales_[c].scale = cluster_max[c] > 0.0f
            ? cluster_max[c] / static_cast<float>(scales_[c].maxCode())
            : 1.0f;
    }
}

const QuantParams &
TimestepClusteredQuantizer::paramsForStep(int step) const
{
    DITTO_ASSERT(step >= 0 && step < numSteps(), "step out of range");
    return scales_[assignment_[step]];
}

int
TimestepClusteredQuantizer::clusterOfStep(int step) const
{
    DITTO_ASSERT(step >= 0 && step < numSteps(), "step out of range");
    return assignment_[step];
}

float
maxQuantError(const FloatTensor &x, const QuantParams &params)
{
    const Int8Tensor q = quantize(x, params);
    float err = 0.0f;
    auto sx = x.data();
    auto sq = q.data();
    for (size_t i = 0; i < sx.size(); ++i) {
        const float back = static_cast<float>(sq[i]) * params.scale;
        err = std::max(err, std::fabs(sx[i] - back));
    }
    return err;
}

} // namespace ditto
