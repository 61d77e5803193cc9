/**
 * @file
 * BatchEngine implementation.
 */
#include "serve/batch_rollout.h"

#include <algorithm>

#include "common/logging.h"
#include "runtime/workspace.h"
#include "tensor/slab.h"

namespace ditto {

namespace {

/** Remove slab `i` from a stacked NCHW tensor (empty when last). */
FloatTensor
removeImageSlab(const FloatTensor &x, int64_t i)
{
    const int64_t n = x.shape()[0];
    return n == 1 ? FloatTensor() : slab::removed(x, n, i);
}

/** Copy slab `i` out of a stacked NCHW tensor as a [1,C,H,W] map. */
FloatTensor
extractImageSlab(const FloatTensor &x, int64_t i)
{
    FloatTensor out(Shape{1, x.shape()[1], x.shape()[2], x.shape()[3]});
    const int64_t slab = out.numel();
    std::copy(x.data().begin() + i * slab,
              x.data().begin() + (i + 1) * slab, out.data().begin());
    return out;
}

} // namespace

BatchEngine::BatchEngine(const CompiledModel &model, int64_t max_batch)
    : model_(model), maxBatch_(max_batch)
{
    DITTO_ASSERT(max_batch >= 1, "batch engine needs capacity >= 1");
}

BatchEngine::~BatchEngine() = default;
BatchEngine::BatchEngine(BatchEngine &&) noexcept = default;

void
BatchEngine::admit(uint64_t id, const DenoiseRequest &req)
{
    admitBatch(std::span<const uint64_t>(&id, 1),
               std::span<const DenoiseRequest>(&req, 1));
}

void
BatchEngine::admitBatch(std::span<const uint64_t> ids,
                        std::span<const DenoiseRequest> reqs)
{
    const int64_t k = static_cast<int64_t>(ids.size());
    DITTO_ASSERT(k == static_cast<int64_t>(reqs.size()),
                 "admitBatch id/request count mismatch");
    if (k == 0)
        return;
    DITTO_ASSERT(active() + k <= maxBatch_,
                 "admitBatch exceeds engine capacity");
    for (const DenoiseRequest &req : reqs)
        DITTO_ASSERT(req.mode == RunMode::QuantDitto ||
                     req.mode == RunMode::QuantDirect ||
                     req.mode == RunMode::ApproxDitto,
                     "only quantized modes are served batched");
    const int64_t n0 = active();
    // One grow for the image stack and one per state tensor, then
    // fill the new slabs in place.
    const FloatTensor first = model_.requestNoise(reqs[0].seed);
    if (n0 > 0) {
        x_ = slab::appended(x_, n0, k);
    } else {
        x_ = FloatTensor(slab::withDim0(first.shape(), k));
    }
    const int64_t slab_elems = first.numel();
    state_.appendSlabs(k); // joins unprimed: first step runs direct
    for (int64_t j = 0; j < k; ++j) {
        const FloatTensor noise =
            j == 0 ? first : model_.requestNoise(reqs[j].seed);
        std::copy(noise.data().begin(), noise.data().end(),
                  x_.data().begin() + (n0 + j) * slab_elems);
        Slot slot;
        slot.id = ids[j];
        slot.stepsTotal =
            reqs[j].steps > 0 ? reqs[j].steps : model_.defaultSteps();
        slot.ditto = reqs[j].mode != RunMode::QuantDirect;
        slot.approx = reqs[j].mode == RunMode::ApproxDitto;
        state_.approx[static_cast<size_t>(n0 + j)] = slot.approx;
        slots_.push_back(slot);
    }
}

void
BatchEngine::step()
{
    DITTO_ASSERT(!empty(), "step on an empty batch engine");
    stepCounts_.assign(slots_.size(), OpCounts{});
    // The per-slab approx flags gate reuse, so running the batch in
    // ApproxDitto mode when any slot asked for it leaves the exact
    // slots' arithmetic untouched (their flags stay 0).
    bool any_approx = false;
    for (const Slot &s : slots_)
        any_approx = any_approx || s.approx;
    if (!ws_)
        ws_ = std::make_unique<Workspace>();
    model_.runSteps(&x_,
                    any_approx ? RunMode::ApproxDitto : RunMode::QuantDitto,
                    &state_, stepCounts_.data(), 1,
                    CompiledModel::StepObserver(), *ws_);
    for (size_t i = 0; i < slots_.size(); ++i) {
        slots_[i].ops.merge(stepCounts_[i]);
        ++slots_[i].stepsDone;
        // QuantDirect slabs never prime: every step stays direct,
        // exactly like sequential QuantDirect execution.
        if (!slots_[i].ditto)
            state_.primed[i] = 0;
    }
}

std::vector<int64_t>
BatchEngine::finishedSlots() const
{
    std::vector<int64_t> done;
    for (int64_t i = active() - 1; i >= 0; --i) {
        const Slot &slot = slots_[static_cast<size_t>(i)];
        if (slot.stepsDone >= slot.stepsTotal)
            done.push_back(i);
    }
    return done;
}

BatchEngine::Finished
BatchEngine::extract(int64_t i) const
{
    const Slot &slot = slots_[static_cast<size_t>(i)];
    DITTO_ASSERT(slot.stepsDone >= slot.stepsTotal,
                 "extract on an unfinished slot");
    Finished f;
    f.id = slot.id;
    f.image = extractImageSlab(x_, i);
    f.ops = slot.ops;
    f.steps = slot.stepsDone;
    return f;
}

void
BatchEngine::replaceSlot(int64_t i, uint64_t id, const DenoiseRequest &req)
{
    DITTO_ASSERT(req.mode == RunMode::QuantDitto ||
                 req.mode == RunMode::QuantDirect ||
                 req.mode == RunMode::ApproxDitto,
                 "only quantized modes are served batched");
    Slot &slot = slots_[static_cast<size_t>(i)];
    DITTO_ASSERT(slot.stepsDone >= slot.stepsTotal,
                 "replacing an unfinished slot");
    slot.id = id;
    slot.stepsDone = 0;
    slot.stepsTotal = req.steps > 0 ? req.steps : model_.defaultSteps();
    slot.ditto = req.mode != RunMode::QuantDirect;
    slot.approx = req.mode == RunMode::ApproxDitto;
    slot.ops = OpCounts{};
    const FloatTensor noise = model_.requestNoise(req.seed);
    std::copy(noise.data().begin(), noise.data().end(),
              x_.data().begin() + i * noise.numel());
    // resetSlab also clears the approx flag and the consecutive-skip
    // counters left by the slot's previous occupant.
    state_.resetSlab(i);
    state_.approx[static_cast<size_t>(i)] = slot.approx;
}

void
BatchEngine::removeSlot(int64_t i)
{
    x_ = removeImageSlab(x_, i);
    state_.removeSlab(i);
    slots_.erase(slots_.begin() + i);
}

BatchEngine::Parked
BatchEngine::park(int64_t i)
{
    const Slot &slot = slots_[static_cast<size_t>(i)];
    Parked p;
    p.id = slot.id;
    p.image = extractImageSlab(x_, i);
    p.ops = slot.ops;
    p.stepsDone = slot.stepsDone;
    p.stepsTotal = slot.stepsTotal;
    p.ditto = slot.ditto;
    p.approx = slot.approx;
    if (slot.approx) {
        // Exact modes resume unprimed bit-for-bit; approx reuse does
        // not, so the slab's cached codes/outputs and skip counters
        // travel with the request.
        p.state = state_.extractSlab(i);
        p.hasState = true;
    }
    removeSlot(i);
    return p;
}

BatchEngine::Parked
BatchEngine::snapshot(int64_t i) const
{
    const Slot &slot = slots_[static_cast<size_t>(i)];
    Parked p;
    p.id = slot.id;
    p.image = extractImageSlab(x_, i);
    p.stepsDone = slot.stepsDone;
    p.stepsTotal = slot.stepsTotal;
    p.ditto = slot.ditto;
    p.approx = slot.approx;
    if (slot.ditto && slot.stepsDone > 0) {
        p.state = state_.extractSlab(i);
        p.hasState = true;
    }
    return p;
}

void
BatchEngine::admitParked(const Parked &p)
{
    DITTO_ASSERT(!full(), "admitParked on a full engine");
    const int64_t n0 = active();
    if (n0 > 0) {
        x_ = slab::appended(x_, n0, 1);
    } else {
        x_ = FloatTensor(slab::withDim0(p.image.shape(), 1));
    }
    std::copy(p.image.data().begin(), p.image.data().end(),
              x_.data().begin() + n0 * p.image.numel());
    state_.appendSlabs(1); // unprimed: the resumed step runs direct
    if (p.hasState)
        state_.installSlab(n0, p.state);
    else
        state_.approx[static_cast<size_t>(n0)] = p.approx;
    Slot slot;
    slot.id = p.id;
    slot.stepsDone = p.stepsDone;
    slot.stepsTotal = p.stepsTotal;
    slot.ditto = p.ditto;
    slot.approx = p.approx;
    slot.ops = p.ops;
    slots_.push_back(slot);
}

void
BatchEngine::replaceSlotParked(int64_t i, const Parked &p)
{
    Slot &slot = slots_[static_cast<size_t>(i)];
    DITTO_ASSERT(slot.stepsDone >= slot.stepsTotal,
                 "replacing an unfinished slot");
    slot.id = p.id;
    slot.stepsDone = p.stepsDone;
    slot.stepsTotal = p.stepsTotal;
    slot.ditto = p.ditto;
    slot.approx = p.approx;
    slot.ops = p.ops;
    std::copy(p.image.data().begin(), p.image.data().end(),
              x_.data().begin() + i * p.image.numel());
    state_.resetSlab(i); // stale state is never read while unprimed
    if (p.hasState)
        state_.installSlab(i, p.state);
    else
        state_.approx[static_cast<size_t>(i)] = p.approx;
}

std::vector<BatchEngine::Finished>
BatchEngine::retire()
{
    std::vector<Finished> done;
    for (int64_t i : finishedSlots()) {
        done.push_back(extract(i));
        removeSlot(i);
    }
    // finishedSlots is descending; hand back in slot order.
    std::reverse(done.begin(), done.end());
    return done;
}

} // namespace ditto
