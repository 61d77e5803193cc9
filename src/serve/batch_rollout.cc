/**
 * @file
 * BatchEngine implementation.
 */
#include "serve/batch_rollout.h"

#include <algorithm>
#include <string>

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

BatchEngine::Parked
BatchEngine::Parked::unstarted(const CompiledModel &model, uint64_t id,
                               const DenoiseRequest &req)
{
    DITTO_ASSERT(req.mode == RunMode::QuantDitto ||
                 req.mode == RunMode::QuantDirect ||
                 req.mode == RunMode::ApproxDitto,
                 "only quantized modes are served batched");
    Parked p;
    p.id = id;
    p.stepsTotal = req.steps > 0 ? req.steps : model.defaultSteps();
    p.ditto = req.mode != RunMode::QuantDirect;
    p.approx = req.mode == RunMode::ApproxDitto;
    return p;
}

BatchEngine::Parked
BatchEngine::Parked::cold(const CompiledModel &model, uint64_t id,
                          const DenoiseRequest &req)
{
    Parked p = unstarted(model, id, req);
    p.image = model.requestNoise(req.seed);
    return p;
}

void
BatchEngine::join(std::span<const Parked> burst)
{
    const int64_t k = static_cast<int64_t>(burst.size());
    if (k == 0)
        return;
    DITTO_ASSERT(active() + k <= maxBatch_, "join exceeds engine capacity");
    // One grow for the image stack and one per state tensor, then
    // fill the new slabs in place.
    const int64_t n0 = active();
    x_ = n0 > 0 ? slab::appended(x_, n0, k)
                : FloatTensor(slab::withDim0(model_.inputShape(), k));
    state_.appendSlabs(k);
    slots_.resize(slots_.size() + burst.size());
    for (int64_t j = 0; j < k; ++j)
        install(n0 + j, burst[static_cast<size_t>(j)]);
}

void
BatchEngine::joinInto(int64_t i, const Parked &p)
{
    DITTO_ASSERT(i >= 0 && i < active(), "joinInto slot out of range");
    install(i, p);
}

void
BatchEngine::install(int64_t i, const Parked &p)
{
    DITTO_ASSERT(p.image.numel() > 0,
                 "request " << p.id << " joins without an image");
    std::string why;
    DITTO_ASSERT(model_.acceptsSlab(p.image, p.stepsDone,
                                    p.hasState ? &p.state : nullptr, &why),
                 "request " << p.id << " cannot join: " << why);
    std::copy(p.image.data().begin(), p.image.data().end(),
              x_.data().begin() + i * p.image.numel());
    // Unprimed, approx flag, skip counters and back-reference cleared:
    // nothing of the slab's previous occupant survives, and its stale
    // tensors are never read while unprimed.
    state_.resetSlab(i);
    if (p.hasState)
        state_.installSlab(i, p.state);
    else
        state_.approx[static_cast<size_t>(i)] = p.approx;
    slots_[static_cast<size_t>(i)] =
        Slot{p.id, p.stepsDone, p.stepsTotal, p.ditto, p.approx, p.ops};
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
    if (slot.approx && state_.primed[static_cast<size_t>(i)]) {
        // Exact modes resume unprimed bit-for-bit; approx reuse does
        // not, so the slab's cached codes/outputs and skip counters
        // travel with the request (an unprimed slab has none yet).
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
    if (state_.primed[static_cast<size_t>(i)]) {
        p.state = state_.extractSlab(i);
        p.hasState = true;
    }
    return p;
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
