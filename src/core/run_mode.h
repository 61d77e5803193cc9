/**
 * @file
 * Execution mode and rollout result types shared by every executable
 * model surface (the graph runtime's CompiledModel, the hand-wired
 * parity reference and the serving layer).
 */
#ifndef DITTO_CORE_RUN_MODE_H
#define DITTO_CORE_RUN_MODE_H

#include <cstdint>
#include <vector>

#include "core/diff_linear.h"
#include "stats/fidelity.h"
#include "tensor/tensor.h"

namespace ditto {

/** Execution mode of a denoising rollout. */
enum class RunMode
{
    Fp32,
    QuantDirect,
    QuantDitto,
    /**
     * Approximate cross-step block reuse (docs/approx_reuse.md): like
     * QuantDitto, but blocks whose Defo probe reports a sufficiently
     * stable temporal difference are skipped and their cached previous
     * output replayed. The only mode that trades bits for speed; the
     * three modes above stay bitwise identical to each other's exact
     * semantics.
     */
    ApproxDitto,
};

/** Result of a full reverse-diffusion rollout. */
struct RolloutResult
{
    FloatTensor finalImage;
    /** Multiplier-lane tallies accumulated over all Ditto diff steps. */
    OpCounts dittoOps;
    /** MACs executed per step (for relative-BOPs reporting). */
    int64_t totalMacsPerStep = 0;

    /**
     * ApproxDitto only: per-program-node skip counts over the whole
     * rollout, index-aligned with CompiledModel::nodeReports(). Empty
     * in the exact modes.
     */
    std::vector<int64_t> nodeSkips;

    /**
     * Filled by rolloutWithFidelity(): fidelity of the evolving image
     * against a lockstep exact (QuantDitto) rollout after each step,
     * plus the end-to-end comparison of the final images.
     */
    std::vector<FidelityStats> stepFidelity;
    FidelityStats fidelity;
    bool hasFidelity = false;
};

} // namespace ditto

#endif // DITTO_CORE_RUN_MODE_H
