/**
 * @file
 * Workspace: the transient memory of compiled forward passes.
 *
 * compile() turns every model's program order and f-liveness into
 * buffer plans (CompiledModel's per-node arena offsets): each
 * transient of a pass — value-table floats, int8 codes, int16
 * differences, int32 accumulators, diff deltas — gets a lifetime and a
 * byte range in a per-slab arena, and buffers whose lifetimes do not
 * overlap share bytes. A Workspace is the memory those plans are laid
 * into. It holds nothing model-specific: one workspace serves every
 * model its holder runs, and it grows on first use to the largest plan
 * it has served, never shrinking. Alongside the arena it keeps the
 * engines' per-call scratch (EngineScratch: Encoding-Unit plans), the
 * executor's small per-pass tables and rollout()'s reusable
 * single-slab state, so a steady-state step allocates nothing.
 *
 * Ownership: BatchEngine keeps one workspace for its whole life. Every
 * other pass checks one out for its duration with a WorkspaceLease:
 * the calling thread's slot first, then a small process-wide free
 * list, and a new workspace only when both are empty — so a rollout
 * started inside a StepObserver (whose outer rollout holds the
 * thread's workspace) still gets its own. See docs/graph_runtime.md
 * ("Buffer plan").
 */
#ifndef DITTO_RUNTIME_WORKSPACE_H
#define DITTO_RUNTIME_WORKSPACE_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/diff_linear.h"
#include "runtime/compiled.h"

namespace ditto {

class Workspace
{
  public:
    Workspace() = default;
    Workspace(const Workspace &) = delete;
    Workspace &operator=(const Workspace &) = delete;

    /**
     * The arena, grown to at least `bytes` and 64-byte aligned.
     * Contents are unspecified: every planned buffer is written before
     * it is read, and kernels that accumulate zero their own output.
     */
    std::byte *arena(int64_t bytes);

    /** Engine per-call scratch, handed from node to node. */
    EngineScratch &engine() { return engine_; }

    /** rollout()'s state, reused across rollouts of any model. */
    CompiledModel::DittoState &rolloutState() { return rolloutState_; }

    /**
     * Per-pass executor tables (value views, skip flags, scratch
     * tallies, a junction region's fold sources); sized by the pass,
     * capacity kept across passes.
     */
    struct Tables
    {
        /** One node's outputs in a pass: views into arena or state. */
        struct Value
        {
            float *f = nullptr;         //!< full values
            int8_t *codes = nullptr;    //!< consumer-scale payload codes
            int16_t *d16 = nullptr;     //!< payload code difference
            const int32_t *acc = nullptr; //!< accumulator (junction source)
        };
        std::vector<Value> values;
        std::vector<uint8_t> skip;
        std::vector<OpCounts> tally;
        std::vector<RequantSource> sources;
    };
    Tables &tables() { return tables_; }
    const Tables &tables() const { return tables_; }

    /**
     * Give the rollout state the slot geometry of a model: exactly
     * `in` int8 and `out` int32 slots (extractSlab and observers see
     * the model's real slot counts). Each slot is resized in place,
     * so a model's repeated rollouts reuse its buffers.
     */
    void fitRolloutState(const std::vector<Shape> &in_shapes,
                         const std::vector<Shape> &out_shapes);

  private:
    struct ArenaFree
    {
        void operator()(std::byte *p) const;
    };

    std::unique_ptr<std::byte, ArenaFree> arena_;
    int64_t arenaBytes_ = 0;
    EngineScratch engine_;
    Tables tables_;
    CompiledModel::DittoState rolloutState_;
};

/**
 * A workspace checked out for one forward pass or rollout and returned
 * on destruction (see the file comment for the order of sources).
 */
class WorkspaceLease
{
  public:
    WorkspaceLease();
    ~WorkspaceLease();
    WorkspaceLease(const WorkspaceLease &) = delete;
    WorkspaceLease &operator=(const WorkspaceLease &) = delete;

    Workspace &operator*() { return *ws_; }
    Workspace *operator->() { return ws_.get(); }

  private:
    std::unique_ptr<Workspace> ws_;
};

} // namespace ditto

#endif // DITTO_RUNTIME_WORKSPACE_H
