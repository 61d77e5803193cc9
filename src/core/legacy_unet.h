/**
 * @file
 * The hand-wired MiniUnet: the graph runtime's parity reference.
 *
 * This is the original manually-routed implementation of the MiniUnet
 * slice — every layer explicitly wired through the single-request entry
 * points of its DiffConvEngine / DiffFcEngine or of the attention
 * difference functions, with its own calibration. Cross attention's
 * constant-context products run on DiffFcEngines, with K' and V'^T as
 * the weights. The MiniUnet itself is the miniUnetSpec preset compiled
 * by runtime/compiled.h; this implementation is deliberately retained
 * as an *independent* reference (the same role ditto::naive plays for
 * the fast kernels): the golden parity suite in tests/test_runtime.cc
 * asserts the compiled preset reproduces it bit for bit in every mode,
 * batch size and thread count. It has one executor — a batch of
 * compiled slabs is checked against one hand-wired rollout per slab —
 * so a layer added to the preset is written here once; the suite fails
 * loudly on any divergence.
 */
#ifndef DITTO_CORE_LEGACY_UNET_H
#define DITTO_CORE_LEGACY_UNET_H

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/attention_diff.h"
#include "core/diff_linear.h"
#include "core/run_mode.h"
#include "quant/quantizer.h"
#include "runtime/presets.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace ditto {

/**
 * Hand-wired functional denoising model with FP32, quantized and
 * Ditto execution (parity reference for the compiled MiniUnet).
 */
class HandWiredMiniUnet
{
  public:
    explicit HandWiredMiniUnet(MiniUnetConfig cfg);

    const MiniUnetConfig &config() const { return cfg_; }

    /**
     * Run the full reverse diffusion from the model's own seeded noise
     * tensor. Identical seeds produce identical trajectories across
     * modes up to the mode's arithmetic.
     */
    RolloutResult rollout(RunMode mode) const;

    /**
     * Run the reverse diffusion from a caller-provided noise.
     * @param steps step count; 0 uses the configured cfg().steps. The
     *        activation scales always come from the configured-count
     *        calibration, exactly as when the serving layer runs a
     *        request for fewer or more steps than the model default.
     */
    RolloutResult rollout(RunMode mode, const FloatTensor &noise,
                          int steps = 0) const;

    /**
     * Deterministic per-request initial noise, shaped like the model's
     * input: the serving layer derives each request's trajectory from
     * its seed alone, so a request's result is a pure function of
     * (model config, seed, steps) — never of batch composition.
     */
    FloatTensor requestNoise(uint64_t seed) const;

    /**
     * One denoising-model evaluation (predicted noise).
     *
     * @param state Ditto per-layer state threaded across steps; pass the
     *        same object for consecutive steps. Required (and used) only
     *        for RunMode::QuantDitto.
     */
    struct DittoState;
    FloatTensor forward(const FloatTensor &x, RunMode mode,
                        DittoState *state, OpCounts *counts) const;

    /** Per-layer state for difference processing across steps. */
    struct DittoState
    {
        std::vector<Int8Tensor> prevIn;   //!< previous input codes
        std::vector<Int32Tensor> prevOut; //!< previous int32 outputs
        bool primed = false;
    };

  private:
    MiniUnetConfig cfg_;

    // FP32 weights.
    FloatTensor wConvIn_, wRes1_, wRes2_;
    FloatTensor wAttnQ_, wAttnK_, wAttnV_, wAttnProj_;
    FloatTensor wCrossQ_, wCrossK_, wCrossV_, wCrossOut_;
    FloatTensor wConvOut_;
    FloatTensor context_;

    // Quantized weights and scales.
    struct QuantWeight
    {
        Int8Tensor codes;
        float scale = 1.0f;
    };
    QuantWeight qConvIn_, qRes1_, qRes2_;
    QuantWeight qAttnQ_, qAttnK_, qAttnV_, qAttnProj_;
    QuantWeight qCrossQ_, qCrossOut_, qConvOut_;
    QuantWeight qCrossKConst_, qCrossVConst_; //!< projected context

    // Persistent difference engines (weight-stationary layers), built
    // once at construction instead of per forward step. optional<> only
    // because the engines are constructed after quantization.
    std::optional<DiffConvEngine> eConvIn_, eRes1_, eRes2_;
    std::optional<DiffConvEngine> eAttnQ_, eAttnK_, eAttnV_, eAttnProj_;
    std::optional<DiffConvEngine> eConvOut_;
    std::optional<DiffFcEngine> eCrossQ_, eCrossOut_;
    std::optional<DiffFcEngine> eCrossQk_; //!< K' as the weight
    std::optional<DiffFcEngine> eCrossPv_; //!< V'^T as the weight

    /** Static activation scales per quantization point. */
    std::vector<float> actScale_;

    /** Calibration hook observing quantization points (FP32 pass). */
    mutable std::function<void(int, const FloatTensor &)> observer_;

    FloatTensor noiseInit_;

    void calibrateActScales();
    FloatTensor forwardFp32(const FloatTensor &x) const;
    FloatTensor forwardQuant(const FloatTensor &x, bool use_ditto,
                             DittoState *state, OpCounts *counts) const;
};

} // namespace ditto

#endif // DITTO_CORE_LEGACY_UNET_H
