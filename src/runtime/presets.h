/**
 * @file
 * Preset ModelSpecs: the models the graph runtime ships ready to
 * compile.
 *
 *  - miniUnetSpec: the historic MiniUnet slice, node for node and
 *    weight draw for weight draw — compiled execution is bitwise
 *    identical to the legacy hand-wired implementation
 *    (core/legacy_unet.h), the golden parity suite's subject.
 *  - deepUnetSpec: a deeper multi-scale UNet (downsample, bottleneck
 *    attention, upsample, skip concat) — the workload shape the
 *    encoder/decoder UNets of Table I have and the hand-wired model
 *    could not express. Its fuse -> mix convolution pair is a direct
 *    compute-to-compute edge the dependency analysis bypasses.
 *  - ditBlockSpec: a DiT-style transformer block (patch embed,
 *    LayerNorm, self attention, GeLU MLP, unembed) — the
 *    transformer-family workload (DiT/Latte in Table I; the targets of
 *    Δ-DiT and BlockDance).
 *  - mhsaBlockSpec: the multi-head variant — per-head q/k/v
 *    projections and attention, per-head output projections combined
 *    by a head-sum Add (algebraically identical to concat-then-project
 *    since W [concat_h o_h] = sum_h W_h o_h). Both the head-sum and
 *    the final residual are token-domain junctions the compiler folds
 *    into multi-producer requant-deltas.
 *  - ditAdaLnSpec: the adaLN-conditioned DiT block — LayerNorms
 *    followed by per-model constant scale/shift modulation and gated
 *    residual branches (Affine nodes standing in for the conditioning
 *    MLP output at a fixed timestep embedding). The gate Affine sits
 *    between compute and the residual Add, so the analysis verdict
 *    stays diff-transparent but the software junction fold declines it
 *    — the reference case for telling junction-blocking from Defo
 *    reversion in the --verdicts dump.
 *
 * All presets run end to end through CompiledModel and the serving
 * layer; QuantDitto is bitwise identical to QuantDirect on every one
 * (the distributive identity is exact in the integer domain).
 */
#ifndef DITTO_RUNTIME_PRESETS_H
#define DITTO_RUNTIME_PRESETS_H

#include <cstdint>

#include "runtime/spec.h"

namespace ditto {

/** MiniUnet configuration (the historic hand-wired model's knobs). */
struct MiniUnetConfig
{
    int64_t channels = 8;    //!< working channel width
    int64_t resolution = 8;  //!< spatial extent
    int64_t inChannels = 3;  //!< input/output channels
    int64_t ctxTokens = 4;   //!< cross-attention context length
    int64_t ctxDim = 8;      //!< cross-attention context width
    int steps = 6;           //!< reverse-diffusion steps
    uint64_t seed = 42;      //!< weight/init RNG seed
};

/** The MiniUnet slice as a spec (legacy-bitwise when compiled). */
ModelSpec miniUnetSpec(const MiniUnetConfig &cfg);

/** Deep multi-scale UNet configuration. */
struct DeepUnetConfig
{
    int64_t baseChannels = 16; //!< level-0 width (doubles at level 1)
    int64_t resolution = 16;   //!< input extent (must be even)
    int64_t inChannels = 3;
    int steps = 8;
    uint64_t seed = 77;
};

/** Two-level UNet: down / bottleneck attention / up / skip concat. */
ModelSpec deepUnetSpec(const DeepUnetConfig &cfg);

/** DiT-style transformer block configuration. */
struct DitBlockConfig
{
    int64_t embedDim = 24;  //!< token embedding width
    int64_t resolution = 8; //!< input extent (tokens = resolution^2)
    int64_t inChannels = 4; //!< latent channels
    int64_t mlpRatio = 2;   //!< MLP hidden width multiplier
    int steps = 8;
    uint64_t seed = 99;
};

/** Patch embed + LayerNorm self-attention block + GeLU MLP + unembed. */
ModelSpec ditBlockSpec(const DitBlockConfig &cfg);

/** Multi-head self-attention block configuration. */
struct MhsaBlockConfig
{
    int64_t embedDim = 24;  //!< token embedding width
    int64_t heads = 2;      //!< attention heads (must divide embedDim)
    int64_t resolution = 8; //!< input extent (tokens = resolution^2)
    int64_t inChannels = 4; //!< latent channels
    int64_t mlpRatio = 2;   //!< MLP hidden width multiplier
    int steps = 8;
    uint64_t seed = 1234;
};

/** Multi-head DiT-style block with head-sum and residual junctions. */
ModelSpec mhsaBlockSpec(const MhsaBlockConfig &cfg);

/** adaLN-conditioned DiT block configuration. */
struct DitAdaLnConfig
{
    int64_t embedDim = 24;
    int64_t resolution = 8;
    int64_t inChannels = 4;
    int64_t mlpRatio = 2;
    float scale1 = 1.3f;  //!< adaLN scale after ln1
    float shift1 = 0.2f;  //!< adaLN shift after ln1
    float gate1 = 0.7f;   //!< attention-branch residual gate
    float scale2 = 0.9f;  //!< adaLN scale after ln2
    float shift2 = -0.1f; //!< adaLN shift after ln2
    float gate2 = 0.8f;   //!< MLP-branch residual gate
    int steps = 8;
    uint64_t seed = 4321;
};

/** DiT block with adaLN scale/shift modulation and gated residuals. */
ModelSpec ditAdaLnSpec(const DitAdaLnConfig &cfg);

} // namespace ditto

#endif // DITTO_RUNTIME_PRESETS_H
