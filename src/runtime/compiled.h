/**
 * @file
 * CompiledModel: a ModelSpec compiled into a runnable Ditto program.
 *
 * compile() lowers a spec to the layer IR (ModelSpec::toGraph), runs
 * Defo's static dependency analysis (ModelGraph::analyzeDependencies,
 * paper Section IV-B) and builds a topologically-ordered program of
 * engine nodes: every weight-stationary layer owns a persistent
 * DiffConvEngine or DiffFcEngine (cross attention's constant K'/V'
 * are weights), dynamic attention layers route through the two-term
 * difference expansion (attentionBatchInto), and the per-node
 * dependency verdict decides how each dynamic operand's difference
 * arrives (Node::Operand):
 *
 *  - diffCalcNeeded == false and the operand arrives from a single
 *    compute producer through reshape-only wire: the node stores *no*
 *    previous-input codes. Its producer requantizes its own resident
 *    accumulator pair into the consumer's code domain and hands the
 *    code difference over (DiffOperand::diff) — the software
 *    realization of "the producer's output is already a difference".
 *  - diffCalcNeeded == false and the operand arrives through a
 *    junction subtree (Add / Concat, optionally one Upsample2x /
 *    AvgPool2x hop) of compute producers: the node owns a
 *    JunctionPlan. At run time the plan folds the producers' resident
 *    accumulator pairs straight into consumer-scale codes plus a code
 *    difference (the multi-producer requant-delta primitives in
 *    quant/encoder.h) — the junction itself never materializes float
 *    values and the consumer still stores no previous-input codes.
 *  - dynamic-attention operands arriving from a compute producer
 *    through reshape-only wire are handed over the same way, per
 *    operand: the attention node quantizes nothing from float for
 *    that operand and stores no previous codes for it (the expansion's
 *    previous operand is reconstructed exactly as codes - diff).
 *  - a node materializes its float output only when some executed
 *    consumer actually reads it (the f-liveness pass): producers whose
 *    every consumer takes the difference skip summation, and junction
 *    subtrees that are fully plan-covered never execute at all.
 *    OpCounts::diffCalcElems / summationElems record exactly the work
 *    that was and wasn't done, which is what the dependency-skip and
 *    junction tests assert on.
 *
 * All transformations are bitwise-exact: the requantized (combined)
 * difference equals the subtraction of the codes the consumer would
 * have stored, element for element, so compiled execution of the
 * MiniUnet preset reproduces the legacy hand-wired model bit for bit
 * in every mode (the golden parity suite in tests/test_runtime.cc),
 * and every spec runs bit-identical with useDependencyAnalysis on and
 * off. See docs/graph_runtime.md for the scale-alignment algebra.
 *
 * The compiled surface mirrors the historic MiniUnet API: forward /
 * forwardBatch / rollout / rolloutBatch / requestNoise, so the serving
 * layer (src/serve/) drives any compiled spec. There is one quantized
 * executor, and it is batched: a single request runs as a batch of
 * one (DittoState is a one-slab BatchDittoState, forward() is
 * forwardBatch on it), and one step loop (runSteps) carries rollouts
 * and the serving engine alike. Every compute node — conv, fc, cross
 * or dynamic attention — runs one branch of that executor, driven by
 * its operand records: build each operand's DiffOperand, decide the
 * ApproxDitto skips once across all operands, freeze the skipped
 * slabs, run the node's engine and flip the operands' code slots.
 * Activation scales are calibrated by an FP32 rollout at every
 * compile().
 *
 * Both executors run allocation-free in steady state: compile() also
 * derives a buffer plan from the nodes' output shapes — every transient
 * of a pass gets a lifetime and a byte range of a per-slab arena, and
 * buffers whose lifetimes do not overlap share bytes — and every pass
 * lays that plan into a Workspace (runtime/workspace.h). The Ditto
 * state flips instead of moving: engines accumulate into the
 * previous-output slots in place, and stored codes and emission caches
 * are double-buffered (prevIn / nextIn, swapped after each node).
 */
#ifndef DITTO_RUNTIME_COMPILED_H
#define DITTO_RUNTIME_COMPILED_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/diff_linear.h"
#include "core/run_mode.h"
#include "quant/quantizer.h"
#include "runtime/spec.h"
#include "tensor/tensor.h"

namespace ditto {

class Workspace;

/** Compilation options. */
struct CompileOptions
{
    /**
     * Honor the static dependency analysis (diff-calc bypass and
     * summation skip). Off compiles every boundary as a full-value
     * boundary — the naive algorithm the paper's Fig. 8 compares
     * against; results are bitwise identical either way.
     */
    bool useDependencyAnalysis = true;

    /** Engine policy: Auto (Defo reversion) or ForceDiff (tests). */
    DiffPolicy policy = DiffPolicy::Auto;
};

/** A ModelSpec compiled into an executable engine program. */
class CompiledModel
{
  public:
    /**
     * Per-layer state for a *batch* of concurrent Ditto requests:
     * every slot holds the requests' tensors stacked along the batch
     * (NCHW) or row (token-matrix) dimension, one primed flag per
     * slab. Slab b of every slot always belongs to the same request;
     * the serving layer edits the batch with appendSlabs / removeSlab
     * / resetSlab as requests join or finish (see src/serve/).
     */
    struct BatchDittoState
    {
        std::vector<Int8Tensor> prevIn;
        std::vector<Int32Tensor> prevOut;
        std::vector<uint8_t> primed;

        /**
         * The second half of the double-buffered code slots: a pass
         * writes each node's new codes (stored operands, junction
         * folds, payload emissions) into nextIn and then swaps the
         * slot with prevIn, so the previous step's codes are never
         * copied. Between passes nextIn holds the step before last —
         * scratch that is never extracted, serialized or counted in
         * payloadBytes(); slab edits leave it to be re-sized by the
         * next pass.
         */
        std::vector<Int8Tensor> nextIn;

        /**
         * Per-slab ApproxDitto enable: slab b may only be skipped when
         * approx[b] is set (the serving layer batches exact and approx
         * requests together; exact slabs keep the bitwise guarantee).
         * Maintained slab-parallel to `primed`.
         */
        std::vector<uint8_t> approx;

        /**
         * ApproxDitto bookkeeping in [slab][node] layout (stride =
         * node count), lazily sized by the first approx pass: per-slab
         * consecutive-skip runs and total skip counts.
         */
        std::vector<int32_t> consec;
        std::vector<int64_t> skips;

        int64_t batch() const
        {
            return static_cast<int64_t>(primed.size());
        }

        /** Append one unprimed slab (a request joining the batch). */
        void appendSlab() { appendSlabs(1); }

        /** Append `count` unprimed slabs in one reallocation. */
        void appendSlabs(int64_t count);

        /** Remove slab `i`; later slabs shift down. */
        void removeSlab(int64_t i);

        /**
         * Hand slab `i` to a new request in place: clears its primed
         * and approx flags and zeroes its consecutive-skip counters —
         * stale approx reuse state from the previous occupant must not
         * leak into the new request's skip decisions. The stale
         * tensors themselves are never read while unprimed (the
         * continuous-batching fast path).
         */
        void resetSlab(int64_t i);

        /**
         * Everything one slab contributes to the batch state, in
         * standalone (batch-of-one) shapes — the park/resume transport
         * for ApproxDitto requests, whose reuse caches and skip
         * counters must survive preemption bitwise (src/serve/).
         */
        struct SlabState
        {
            std::vector<Int8Tensor> prevIn;
            std::vector<Int32Tensor> prevOut;
            uint8_t primed = 0;
            uint8_t approx = 0;
            std::vector<int32_t> consec;
            std::vector<int64_t> skips;

            /**
             * Opaque shared owner of whatever this state was built
             * from — e.g. an inter-request reuse-cache entry
             * (src/serve/reuse_cache.h). installSlab copies the
             * tensors byte for byte but parks this reference
             * slab-parallel in `backRefs`, so the source object stays
             * alive for exactly as long as some slab claims descent
             * from it. Null for states extracted from a batch.
             */
            std::shared_ptr<const void> backRef;

            /**
             * Heap footprint of the tensors and counters, in bytes.
             * The one accounting number shared by the reuse cache's
             * byte budget (src/serve/reuse_cache.cc) and the shard
             * codec's wire-size estimate (src/shard/slab_codec.cc) —
             * budgets mean the same thing for resident and relocated
             * slabs.
             */
            int64_t payloadBytes() const;
        };

        /**
         * Slab-parallel back-references to the external objects the
         * slabs were installed from (SlabState::backRef). resetSlab,
         * removeSlab and every slot-recycle path built on them MUST
         * drop the slab's reference: a cache entry evicted elsewhere
         * must never be kept alive by — or alias — a live slot's
         * buffers (tests/test_reuse.cc BackRef suite).
         */
        std::vector<std::shared_ptr<const void>> backRefs;

        /**
         * Copy slab `i` out into standalone shapes. The copy owns its
         * buffers outright, so the returned state carries no backRef.
         */
        SlabState extractSlab(int64_t i) const;

        /**
         * Install `s` into slab `i` (which must exist), materializing
         * any still-empty slot tensors as zero-filled stacks. Adopts
         * `s.backRef` into `backRefs[i]`.
         */
        void installSlab(int64_t i, const SlabState &s);
    };

    /**
     * Per-layer state of a single request: a batch of one. forward()
     * gives an empty state its slab; a state holding more slabs is
     * rejected.
     */
    using DittoState = BatchDittoState;

    const ModelSpec &spec() const { return spec_; }
    const ModelGraph &graph() const { return graph_; }

    /** Dependency verdicts per graph layer (compile-time analysis). */
    const std::vector<LayerDependency> &dependencies() const
    {
        return deps_;
    }

    /**
     * Operands that consume their producer's difference directly:
     * weight-stationary single-producer hand-overs, junction-plan
     * folds, and per-operand dynamic-attention hand-overs (an
     * attention node with both operands handed over counts twice).
     */
    int numDiffBypassNodes() const { return numBypass_; }
    /** Nodes that never materialize a float output in quant modes. */
    int numSumSkipNodes() const { return numSumSkip_; }

    /** One row of the per-node compiled-wiring report. */
    struct NodeReport
    {
        std::string name;
        RtOp op;
        int layer = -1;       //!< graph layer id (-1: reshape wire)
        bool compute = false;
        bool diffBypass = false;  //!< operand 0 handed over / folded
        bool diffBypass2 = false; //!< attention operand 1 handed over
        bool junction = false;    //!< operand built by a JunctionPlan
        bool sumSkip = false;     //!< float output never materialized
        bool emitsPayload = false;
        bool deadStructural = false; //!< plan-covered, never executes
        /**
         * Per-slab output elements of a compute node (0 otherwise):
         * the elements one ApproxDitto skip of this node replays, so
         * sum(nodeSkips[i] * outElems[i]) == OpCounts::reusedElems.
         */
        int64_t outElems = 0;
    };

    /**
     * Per-node compiled wiring, in program order — what the dependency
     * verdicts actually turned into in software. graph_models
     * --verdicts prints this next to the per-layer analysis so a layer
     * that reverted at run time (Defo) is distinguishable from one the
     * compiler could not wire through a junction.
     */
    std::vector<NodeReport> nodeReports() const;

    const Shape &inputShape() const { return spec_.inputShape; }
    int defaultSteps() const { return spec_.steps; }

    /**
     * Slot counts of the compiled difference program's DittoState
     * (previous-input code slots / previous-output slots).
     */
    int numStateInSlots() const { return numInSlots_; }
    int numStateOutSlots() const { return numOutSlots_; }

    /**
     * Whether a request's portable state — its image after
     * `steps_done` steps and, when it has one, its extracted slab
     * `state` — can join a batch of this model. It can when:
     *  - any image present has inputShape(), and a state or any
     *    progress comes with an image;
     *  - a state holds one tensor per code and output slot, each of
     *    exactly this model's single-slab shape for that slot;
     *  - its consecutive-skip and skip counters are both empty or
     *    both hold one entry per node.
     * Otherwise false, with the reason in `*why`. A state this accepts
     * installs and executes within the batch's buffers. The shard
     * worker runs it on every migrated-in slab (src/shard/worker.h),
     * so a hostile slab is answered at the wire, and BatchEngine
     * asserts it on every join.
     */
    bool acceptsSlab(const FloatTensor &image, int steps_done,
                     const BatchDittoState::SlabState *state,
                     std::string *why) const;

    /** MACs of one denoising step (all steady-state compute layers). */
    int64_t macsPerStep() const { return macsPerStep_; }

    /**
     * One denoising-model evaluation (predicted noise), x shaped
     * inputShape(): forwardBatch on a batch of one. `state` is
     * required (and used) only for the Ditto modes; pass the same
     * object for consecutive steps.
     */
    FloatTensor forward(const FloatTensor &x, RunMode mode,
                        DittoState *state, OpCounts *counts) const;

    /**
     * One evaluation for a stacked batch of requests: x is
     * [B, C, H, W] and every request's slab is computed with exactly
     * the arithmetic of forward() on its own tensors — batched results
     * are bitwise identical to per-request rollouts at any thread
     * count and batch size.
     *
     * @param state required for RunMode::QuantDitto; its batch() must
     *        equal x's batch dimension.
     * @param counts per-request tallies (array of B, or null).
     */
    FloatTensor forwardBatch(const FloatTensor &x, RunMode mode,
                             BatchDittoState *state,
                             OpCounts *counts) const;

    /** Full reverse diffusion from the model's own seeded noise. */
    RolloutResult rollout(RunMode mode) const;

    /**
     * Reverse diffusion from caller-provided noise (shape-checked
     * loudly). @param steps 0 uses defaultSteps().
     */
    RolloutResult rollout(RunMode mode, const FloatTensor &noise,
                          int steps = 0) const;

    /**
     * Per-step rollout checkpoint hook: invoked after each step's
     * image update with the number of completed steps (1-based), the
     * current image and the resident difference state. Because the
     * update rule carries no timestep embedding, (x, state) after k
     * steps is a pure function of (model, noise, mode, k) — never of
     * the total step count — which is exactly what makes a checkpoint
     * a reusable prefix for any longer request with the same identity
     * (docs/reuse_cache.md). The state reference is only valid inside
     * the call.
     */
    using StepObserver = std::function<void(
        int stepsDone, const FloatTensor &x, const DittoState &state)>;

    /** rollout() with a checkpoint observer on every step boundary. */
    RolloutResult rollout(RunMode mode, const FloatTensor &noise,
                          int steps, const StepObserver &obs) const;

    /**
     * The denoising loop shared by the rollouts and the serving engine
     * (src/serve/batch_rollout.cc): `steps` times, evaluate the model
     * on the stacked images `x` (forwardBatch's arithmetic, with the
     * predicted noise left in the workspace) and apply the update rule
     * x += -0.15 * eps in place. For the Ditto modes `state` holds one
     * slab per image; `obs`, when set, sees every step boundary.
     */
    void runSteps(FloatTensor *x, RunMode mode, BatchDittoState *state,
                  OpCounts *counts, int steps,
                  const StepObserver &obs = StepObserver()) const;

    /**
     * runSteps on a caller-held workspace (BatchEngine keeps one for
     * its whole life); the overload above checks one out per call.
     * Once the workspace and state have seen the batch's shape, a step
     * allocates nothing.
     */
    void runSteps(FloatTensor *x, RunMode mode, BatchDittoState *state,
                  OpCounts *counts, int steps, const StepObserver &obs,
                  Workspace &ws) const;

    /**
     * Run N full reverse diffusions as one batch; results are bitwise
     * identical to rollout(mode, noises[i]) for every i.
     */
    std::vector<RolloutResult>
    rolloutBatch(RunMode mode, std::span<const FloatTensor> noises) const;

    /**
     * Like rollout(), but additionally runs an exact (QuantDitto)
     * reference rollout and fills the result's fidelity
     * fields (per-step + end-to-end PSNR and cosine — see
     * docs/approx_reuse.md). Roughly doubles the work; the returned
     * finalImage is bitwise identical to rollout(mode, ...)'s.
     */
    RolloutResult rolloutWithFidelity(RunMode mode) const;
    RolloutResult rolloutWithFidelity(RunMode mode,
                                      const FloatTensor &noise,
                                      int steps = 0) const;

    /** The ApproxDitto skip threshold / consecutive-skip cap. */
    double approxSkipThresh() const { return approxThresh_; }
    int approxMaxConsec() const { return approxCap_; }

    /**
     * Set the RunMode::ApproxDitto skip policy; a compiled model
     * starts at threshold 0.5 and cap 3 (docs/approx_reuse.md). A
     * block is skipped when the activity fraction of its Defo probe,
     * (0.5*low4 + full8)/total, is at or below `thresh` (0 skips only
     * bitwise-identical steps, so ApproxDitto == QuantDitto), at most
     * `max_consec` steps in a row. Calibration is policy-independent,
     * so benches sweep the threshold without recompiling. Clamps to
     * [0, 1] and >= 1.
     */
    void setApproxPolicy(double thresh, int max_consec);

    /**
     * Deterministic per-request initial noise: a request's trajectory
     * is a pure function of (spec, seed, steps), never of batch
     * composition.
     */
    FloatTensor requestNoise(uint64_t seed) const;

    /**
     * Content digest of the calibrated activation scales (the exact
     * float bit patterns). Two CompiledModels with equal spec hash
     * *and* equal calibration digest execute bitwise identically, so
     * the pair is the model-identity component of the inter-request
     * reuse-cache key (src/serve/prefix_key.h) — a recalibration
     * invalidates cached prefixes by simply never matching them.
     */
    uint64_t calibrationDigest() const { return calibDigest_; }

  private:
    friend CompiledModel compile(const ModelSpec &spec,
                                 const CompileOptions &opts);

    /**
     * One stitched region of a junction operand fold: a left-
     * associated Add chain of compute producers, optionally behind one
     * spatial transform, emitted at a fixed per-slab offset of the
     * consumer's operand (Concat stacks regions).
     */
    struct JunctionRegion
    {
        enum class Transform
        {
            Identity,
            Upsample2x,
            AvgPool2x,
        };
        Transform transform = Transform::Identity;
        std::vector<int> sources; //!< producer node ids, sum order
        int64_t c = 0, h = 0, w = 0; //!< source-map geometry (NCHW)
        int64_t srcElems = 0;  //!< per-slab source elements
        int64_t outElems = 0;  //!< per-slab emitted elements
        int64_t outOffset = 0; //!< per-slab offset into the operand
    };

    /** A consumer operand assembled from multiple producers' state. */
    struct JunctionPlan
    {
        std::vector<JunctionRegion> regions;
        int64_t slabElems = 0; //!< per-slab operand elements
    };

    /**
     * The three executors a buffer plan serves: the FP32 pass, the
     * stateless QuantDirect pass and the Ditto passes (QuantDitto and
     * ApproxDitto, whose accumulators and stored codes live in the
     * state instead). Each gets its own plan over the same arena.
     */
    enum Plan
    {
        kPlanFp32 = 0,
        kPlanDirect = 1,
        kPlanDitto = 2,
        kNumPlans = 3,
    };

    /**
     * Per-slab arena offsets of one node's transients in one plan (-1:
     * not planned there); a batch of B slabs scales every offset by B.
     */
    struct NodeBufs
    {
        int64_t f = -1;     //!< float output
        int64_t codes = -1; //!< int8 payload codes
        int64_t d16 = -1;   //!< int16 payload difference
        int64_t acc = -1;   //!< int32 accumulator (QuantDirect)
        int64_t op[2] = {-1, -1}; //!< operand codes (QuantDirect)
        int64_t opD16 = -1; //!< junction fold difference
        int64_t delta = -1; //!< conv / attention diff deltas
    };

    /**
     * How one dynamic operand of a compute node gets its temporal
     * difference: stored (quantized from its float input into code
     * slot `slot`, whose other half holds the previous step's codes),
     * handed over (its single compute producer `producer` requantizes
     * its accumulator pair into this operand's codes and difference)
     * or folded (the node's JunctionPlan folds its producers'
     * accumulators into codes and a difference, caching the codes in
     * `slot`).
     */
    struct Operand
    {
        int slot = -1;       //!< code slot: stored codes or fold cache
        int producer = -1;   //!< hand-over producer node id
        bool folded = false; //!< built by the node's JunctionPlan

        /** Quantized here and subtracted against its stored codes. */
        bool stored() const { return producer < 0 && !folded; }
    };

    /** One compiled node: spec + engines + state/dependency wiring. */
    struct Node
    {
        NodeSpec spec;
        std::optional<DiffConvEngine> conv;
        //! Fc, CrossScores (K' as the weight), CrossOutput (V'^T)
        std::optional<DiffFcEngine> fc;
        float wScale = 1.0f;  //!< weight / K' / V' quantization scale
        FloatTensor wF;       //!< FP32 weight (FP32 path)
        FloatTensor constF;   //!< FP32 K'/V' constant (cross nodes)
        Operand in[2];        //!< dynamic operands (attention: two)
        int outSlot = -1;     //!< previous-output (accumulator) slot
        bool emitPayload = false; //!< requantizes its accumulator pair
                                  //!< for a hand-over consumer
        int emitScale = -1;   //!< the consumer's quantization point
        bool fLive = true;    //!< quant modes materialize float output
        bool skipExec = false; //!< plan-covered structural node
        std::optional<JunctionPlan> junction; //!< operand 0's fold
        int emitSlot = -1; //!< code cache of the emitted payload: the
                           //!< previous step's emission, subtracted to
                           //!< form the hand-over delta without a
                           //!< float recomputation
        int layer = -1;    //!< graph layer id (dependency verdict)
        NodeBufs bufs[kNumPlans]; //!< arena offsets per plan
    };

    /** FP32 observer: quantization point, values, element count. */
    using Fp32Observer = std::function<void(int, const float *, int64_t)>;

    CompiledModel() = default;

    void validateSingle(const FloatTensor &x, const char *what) const;
    /** Loud check that x stacks model inputs ([B, C, H, W]). */
    void validateStack(const FloatTensor &x, const char *what) const;
    void calibrate();
    float combinedScale(const Node &nd) const;

    /** Build the buffer plan (arena offsets) once the wiring is final. */
    void planBuffers();

    /**
     * Evaluate a junction plan: fold the source nodes' current
     * accumulators (`vals[src].acc`) into consumer-scale codes (+
     * per-slab code deltas against `prevCodes`, the fold's previous
     * emission, for primed slabs) through the encoder's multi-producer
     * requant-delta primitives. `primed` is per-slab (bsz entries, or
     * null for an all-unprimed pass, in which case `d16` is not
     * written).
     */
    void runJunction(const Node &nd, Workspace &ws,
                     const int8_t *prevCodes, const uint8_t *primed,
                     int64_t bsz, int8_t *codes, int16_t *d16) const;

    /**
     * Execute one vector / structural / reshape node (everything the
     * engines don't own) on the pass's value table. Every op here is
     * batch-general (stacked NCHW and row-stacked token matrices are
     * handled identically, a single request being a batch of one), and
     * reshapes carry the bypass payload.
     */
    void runStructural(const Node &nd, Workspace &ws, std::byte *arena,
                       int64_t bsz, Plan plan) const;

    /**
     * The FP32 program on one slab at `x`, laid into `ws`'s arena;
     * returns the output view. `obs` sees every quantization point's
     * operand (calibration).
     */
    const float *forwardFp32(const float *x, Workspace &ws,
                             const Fp32Observer *obs) const;

    /**
     * The quantized executor on `bsz` stacked images at `x`; returns
     * the output (predicted noise) view in `ws`'s arena. A null
     * `state` is QuantDirect; with a state it runs the Ditto passes,
     * `approx` enabling ApproxDitto skips.
     */
    const float *forwardQuant(const float *x, int64_t bsz, bool approx,
                              BatchDittoState *state, OpCounts *counts,
                              Workspace &ws) const;

    /**
     * One evaluation of any mode for the `bsz` stacked images at `x`:
     * the predicted noise, valid until the workspace's next pass.
     */
    const float *evaluate(const float *x, int64_t bsz, RunMode mode,
                          BatchDittoState *state, OpCounts *counts,
                          Workspace &ws) const;

    /**
     * Shared epilogue of the executor's compute nodes: payload emission
     * (written into the emission slot's other half and flipped in Ditto
     * mode), f-liveness-gated float materialization (with its per-slab
     * summation tally) and the accumulator's publication for junction
     * consumers. `state` is null in QuantDirect.
     */
    void nodeEpilogue(const Node &nd, Workspace &ws, std::byte *arena,
                      const int32_t *acc, BatchDittoState *state,
                      const uint8_t *primed, bool any_primed, int64_t bsz,
                      OpCounts *counts) const;

    ModelSpec spec_;
    CompileOptions opts_;
    ModelGraph graph_{""};
    std::vector<LayerDependency> deps_;
    std::vector<Node> nodes_;
    std::vector<float> actScale_;
    FloatTensor noiseInit_;
    int numInSlots_ = 0;
    int numOutSlots_ = 0;
    int numBypass_ = 0;
    int numSumSkip_ = 0;
    int64_t macsPerStep_ = 0;
    double approxThresh_ = 0.5;
    int approxCap_ = 3;
    uint64_t calibDigest_ = 0;
    int64_t arenaSlabBytes_ = 0;
    std::vector<Shape> inSlotShape_;  //!< single-slab code slot shapes
    std::vector<Shape> outSlotShape_; //!< single-slab output slot shapes
};

/**
 * Compile a ModelSpec into a runnable program: draw the weight
 * program, lower to the layer IR, run the dependency analysis, build
 * the engines and calibrate activation scales with an FP32 rollout.
 */
CompiledModel compile(const ModelSpec &spec,
                      const CompileOptions &opts = {});

} // namespace ditto

#endif // DITTO_RUNTIME_COMPILED_H
