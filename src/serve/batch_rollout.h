/**
 * @file
 * BatchEngine: the execution core of the denoising server.
 *
 * One engine owns one in-flight batch: the stacked image tensor, the
 * stacked Ditto state (CompiledModel::BatchDittoState) and one slot
 * record per request. The engine serves any CompiledModel — the
 * MiniUnet preset, the deep UNet, the DiT block or a custom spec.
 * Requests join between steps (continuous batching), run however many
 * steps they individually asked for, and retire as they finish — so
 * slabs at different timesteps share every forwardBatch call. Each
 * slab's arithmetic is exactly the single-request rollout's, which
 * keeps results bitwise independent of batch composition;
 * tests/test_serve.cc asserts this under mixed step counts, modes and
 * thread counts.
 *
 * A request enters a batch one way: as a Parked. A fresh request is a
 * cold one (step 0, its starting noise, no state); a preempted,
 * migrated or reuse-cache warm-started request carries its image,
 * step counters and, when it has one, its difference slab. join()
 * appends a burst of them and joinInto() hands a vacated slab over in
 * place; both write the slab through one private body.
 */
#ifndef DITTO_SERVE_BATCH_ROLLOUT_H
#define DITTO_SERVE_BATCH_ROLLOUT_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "runtime/compiled.h"
#include "serve/request.h"

namespace ditto {

/** A batch of concurrent denoising requests advancing in lock-step. */
class BatchEngine
{
  public:
    /** A request that finished all its steps, ready to hand back. */
    struct Finished
    {
        uint64_t id = 0;
        FloatTensor image;
        OpCounts ops;
        int steps = 0;
    };

    BatchEngine(const CompiledModel &model, int64_t max_batch);
    ~BatchEngine();
    BatchEngine(BatchEngine &&) noexcept;

    int64_t active() const
    {
        return static_cast<int64_t>(slots_.size());
    }
    bool empty() const { return slots_.empty(); }

    /**
     * A request's portable state, and the one way into a batch. A
     * fresh request is a cold Parked (cold()). Because QuantDitto
     * difference execution is bitwise identical to direct execution,
     * the partial image plus the step counters are *all* the state an
     * exact-mode rollout needs to move between engines: the resumed
     * slab joins unprimed, its next step runs direct, and every later
     * step re-primes — bit-for-bit the uninterrupted trajectory
     * (tests/test_serve.cc PreemptResume suite). Note the OpCounts do
     * change: a resumed step that would have run as a sparse diff runs
     * direct instead, so lane tallies reflect the actual execution.
     */
    struct Parked
    {
        uint64_t id = 0;
        FloatTensor image; //!< [1, C, H, W] partial denoising state
        OpCounts ops;
        int stepsDone = 0;
        int stepsTotal = 0;
        bool ditto = true;
        /**
         * ApproxDitto requests additionally carry their full reuse
         * state (cached codes, cached outputs, consecutive-skip
         * counters). Unlike the exact modes, an approx slab cannot
         * simply resume unprimed: the skip decisions depend on the
         * cached previous step, so dropping the state would change
         * which blocks skip — and therefore the bits. park() captures
         * it, join()/joinInto() reinstall it, and the resumed
         * trajectory is bitwise the uninterrupted one
         * (tests/test_serve.cc ApproxServe suite).
         */
        bool approx = false;
        bool hasState = false;
        CompiledModel::BatchDittoState::SlabState state;

        /**
         * `req` before its first step: its id, step budget and mode
         * flags at step 0, with no state and no image — the shape a
         * queued request migrates in. Only the quantized modes
         * (QuantDirect, QuantDitto, ApproxDitto) are served batched.
         */
        static Parked unstarted(const CompiledModel &model, uint64_t id,
                                const DenoiseRequest &req);

        /** unstarted() with its starting image, requestNoise(req.seed). */
        static Parked cold(const CompiledModel &model, uint64_t id,
                           const DenoiseRequest &req);
    };

    /**
     * Append a burst of requests with one reallocation of the image
     * stack and of every stacked state tensor. Each one joins at its
     * own progress: a cold slab's first step runs direct, a parked
     * one resumes bitwise where it stopped. Every entry must carry an
     * image and pass CompiledModel::acceptsSlab; the burst must fit
     * the remaining capacity.
     */
    void join(std::span<const Parked> burst);

    /**
     * Hand slot `i` to `p` in place — the continuous-batching fast
     * path. The slot's previous occupant must be gone (finished and
     * extracted, cancelled or timed out): its image, state, flags,
     * skip counters and back-reference are all overwritten or reset,
     * so nothing of it reaches `p`.
     */
    void joinInto(int64_t i, const Parked &p);

    /**
     * Advance every active request by one denoising step. Runs on the
     * engine's own workspace (created by the first step, kept for the
     * engine's life), so a step over an unchanged batch allocates
     * nothing.
     */
    void step();

    /**
     * Slots whose request has completed all its steps, in descending
     * slot order (safe to extract, remove or joinInto while
     * iterating).
     */
    std::vector<int64_t> finishedSlots() const;

    /** Copy slot `i`'s result out (the slot stays in the batch). */
    Finished extract(int64_t i) const;

    /** Remove slot `i` wholesale (no request takes it over). */
    void removeSlot(int64_t i);

    /**
     * Evict slot `i` between steps (any progress, finished or not)
     * and return its portable state. The server parks preempted
     * requests and joins them again later — on this engine or any
     * other engine over the same model.
     */
    Parked park(int64_t i);

    /**
     * Copy slot `i`'s portable state out *without* evicting it — the
     * reuse-cache checkpoint path (src/serve/reuse_cache.h). Unlike
     * park(), the slot keeps running, `ops` is left zeroed (the work
     * already done belongs to the executing request, not to whoever
     * installs the copy), and the Ditto slab state travels for *all*
     * stateful modes — a warm QuantDitto start installs a primed slab
     * and continues difference execution immediately, which is the
     * whole speedup — while QuantDirect (stateless by construction)
     * carries the image only. The copy owns its buffers and carries no
     * backRef.
     */
    Parked snapshot(int64_t i) const;

    /** Ticket occupying slot `i`. */
    uint64_t
    slotId(int64_t i) const
    {
        return slots_[static_cast<size_t>(i)].id;
    }

    /** Steps slot `i` has completed so far. */
    int
    slotStepsDone(int64_t i) const
    {
        return slots_[static_cast<size_t>(i)].stepsDone;
    }

    /** True when slot `i` has completed all its steps. */
    bool
    slotFinished(int64_t i) const
    {
        const Slot &s = slots_[static_cast<size_t>(i)];
        return s.stepsDone >= s.stepsTotal;
    }

    /**
     * Convenience for non-server callers: extract and remove every
     * finished request. Remaining requests keep running.
     */
    std::vector<Finished> retire();

  private:
    /** Write `p` into slab `i`, which exists: image, state, slot. */
    void install(int64_t i, const Parked &p);

    struct Slot
    {
        uint64_t id = 0;
        int stepsDone = 0;
        int stepsTotal = 0;
        bool ditto = true;  //!< false: QuantDirect (never primes)
        bool approx = false; //!< RunMode::ApproxDitto (block reuse on)
        OpCounts ops;
    };

    const CompiledModel &model_;
    const int64_t maxBatch_;
    FloatTensor x_; //!< stacked [active, inChannels, res, res]
    CompiledModel::BatchDittoState state_;
    std::vector<Slot> slots_;
    std::vector<OpCounts> stepCounts_; //!< per-step scratch
    std::unique_ptr<Workspace> ws_;    //!< created by the first step
};

} // namespace ditto

#endif // DITTO_SERVE_BATCH_ROLLOUT_H
