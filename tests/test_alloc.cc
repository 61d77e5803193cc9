/**
 * @file
 * Steady-state allocation tests: a forward pass lays every transient
 * into its workspace's arena (the compile-time buffer plan) and the
 * Ditto state flips in place, so once a workspace and a state have
 * seen a shape, stepping that shape again makes no heap allocation.
 *
 * This binary replaces the global operator new family with a counting
 * one and runs on a one-thread pool (worker threads would only add
 * their own first-use scratch). Every preset x mode is checked after
 * one warm-up pass of the same shape:
 *  - runSteps on a test-owned state of batch 1 and 4, slabs reset;
 *  - a batch-1 rollout(): at most its returned finalImage and, for
 *    ApproxDitto, its nodeSkips;
 *  - BatchEngine::step on an unchanged mixed-mode batch of 4;
 *  - BatchEngine::join of 1 and of 3 parked requests into a primed
 *    engine: the same count, one growth per burst.
 *
 * The counter also sums the bytes asked for, which bounds what a
 * hostile slab can make the shard codec allocate before it is refused.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/parallel.h"
#include "runtime/compiled.h"
#include "runtime/presets.h"
#include "serve/batch_rollout.h"
#include "shard/slab_codec.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_allocs{0};
std::atomic<int64_t> g_bytes{0};

void *
countedAlloc(std::size_t n, std::size_t align)
{
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocs.fetch_add(1, std::memory_order_relaxed);
        g_bytes.fetch_add(static_cast<int64_t>(n),
                          std::memory_order_relaxed);
    }
    if (n == 0)
        n = 1;
    void *p = nullptr;
    if (align <= alignof(std::max_align_t)) {
        p = std::malloc(n);
    } else {
        n = (n + align - 1) / align * align;
        p = std::aligned_alloc(align, n);
    }
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n, 0);
}

void *
operator new[](std::size_t n)
{
    return countedAlloc(n, 0);
}

void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}

void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n, 0);
    } catch (...) {
        return nullptr;
    }
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n, 0);
    } catch (...) {
        return nullptr;
    }
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace ditto {
namespace {

/**
 * Heap allocations made while alive: read their number with count()
 * or their requested bytes with bytes().
 */
class AllocCounter
{
  public:
    AllocCounter()
    {
        g_allocs.store(0);
        g_bytes.store(0);
        g_counting.store(true);
    }
    ~AllocCounter() { g_counting.store(false); }

    int64_t
    count()
    {
        g_counting.store(false);
        return g_allocs.load();
    }

    int64_t
    bytes()
    {
        g_counting.store(false);
        return g_bytes.load();
    }
};

constexpr int kPresets = 5;
const char *kPresetNames[kPresets] = {"mini_unet", "deep_unet", "dit_block",
                                      "mhsa_block", "dit_adaln"};

/** The benchmark's preset shapes at 16x16, with short rollouts. */
ModelSpec
presetSpec(int preset)
{
    constexpr int kSteps = 4;
    switch (preset) {
      case 0: {
        MiniUnetConfig c;
        c.channels = 32;
        c.resolution = 16;
        c.steps = kSteps;
        return miniUnetSpec(c);
      }
      case 1: {
        DeepUnetConfig c;
        c.baseChannels = 16;
        c.resolution = 16;
        c.steps = kSteps;
        return deepUnetSpec(c);
      }
      case 2: {
        DitBlockConfig c;
        c.embedDim = 32;
        c.resolution = 16;
        c.steps = kSteps;
        return ditBlockSpec(c);
      }
      case 3: {
        MhsaBlockConfig c;
        c.embedDim = 32;
        c.heads = 2;
        c.resolution = 16;
        c.steps = kSteps;
        return mhsaBlockSpec(c);
      }
      default: {
        DitAdaLnConfig c;
        c.embedDim = 32;
        c.resolution = 16;
        c.steps = kSteps;
        return ditAdaLnSpec(c);
      }
    }
}

/** Compiled presets, shared by every test (ApproxDitto skips at 0.5). */
const CompiledModel &
model(int preset)
{
    static std::unique_ptr<CompiledModel> models[kPresets];
    if (!models[preset]) {
        models[preset] =
            std::make_unique<CompiledModel>(compile(presetSpec(preset)));
    }
    return *models[preset];
}

const RunMode kModes[] = {RunMode::Fp32, RunMode::QuantDirect,
                          RunMode::QuantDitto, RunMode::ApproxDitto};

/** Stacked request noise for `bsz` requests. */
FloatTensor
stackedNoise(const CompiledModel &m, int64_t bsz)
{
    const Shape &one = m.inputShape();
    FloatTensor x(Shape{bsz, one[1], one[2], one[3]});
    for (int64_t b = 0; b < bsz; ++b) {
        const FloatTensor n = m.requestNoise(static_cast<uint64_t>(7 + b));
        std::copy(n.data().begin(), n.data().end(),
                  x.data().begin() + b * n.numel());
    }
    return x;
}

class SteadyState : public ::testing::TestWithParam<std::tuple<int, int>>
{
  protected:
    void SetUp() override { setThreadCount(1); }

    int preset() const { return std::get<0>(GetParam()); }
    RunMode mode() const { return kModes[std::get<1>(GetParam())]; }
};

TEST_P(SteadyState, RunStepsAllocatesNothing)
{
    const CompiledModel &m = model(preset());
    for (int64_t bsz : {1, 4}) {
        const FloatTensor noise = stackedNoise(m, bsz);
        FloatTensor x = noise;
        CompiledModel::BatchDittoState state;
        state.appendSlabs(bsz);
        std::vector<OpCounts> counts(static_cast<size_t>(bsz));
        auto reset = [&] {
            std::copy(noise.data().begin(), noise.data().end(),
                      x.data().begin());
            for (int64_t s = 0; s < bsz; ++s) {
                state.resetSlab(s);
                state.approx[static_cast<size_t>(s)] =
                    mode() == RunMode::ApproxDitto;
                counts[static_cast<size_t>(s)] = OpCounts{};
            }
        };
        reset();
        m.runSteps(&x, mode(), &state, counts.data(), m.defaultSteps());
        const FloatTensor warm = x;
        reset();
        AllocCounter c;
        m.runSteps(&x, mode(), &state, counts.data(), m.defaultSteps());
        EXPECT_EQ(c.count(), 0)
            << kPresetNames[preset()] << " batch " << bsz;
        EXPECT_EQ(x, warm) << "a reused state must replay bitwise";
    }
}

TEST_P(SteadyState, RolloutAllocatesOnlyItsResult)
{
    const CompiledModel &m = model(preset());
    const RolloutResult warm = m.rollout(mode());
    AllocCounter c;
    const RolloutResult r = m.rollout(mode());
    const int64_t n = c.count();
    EXPECT_LE(n, mode() == RunMode::ApproxDitto ? 2 : 1)
        << kPresetNames[preset()];
    EXPECT_EQ(r.finalImage, warm.finalImage);
    EXPECT_EQ(r.nodeSkips, warm.nodeSkips);
}

std::string
steadyStateName(const ::testing::TestParamInfo<std::tuple<int, int>> &info)
{
    static const char *modes[] = {"Fp32", "QuantDirect", "QuantDitto",
                                  "ApproxDitto"};
    return std::string(kPresetNames[std::get<0>(info.param)]) + "_" +
           modes[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(Presets, SteadyState,
                         ::testing::Combine(::testing::Range(0, kPresets),
                                            ::testing::Range(0, 4)),
                         steadyStateName);

class EngineSteadyState : public ::testing::TestWithParam<int>
{
  protected:
    void SetUp() override { setThreadCount(1); }
};

TEST_P(EngineSteadyState, MixedBatchStepAllocatesNothing)
{
    const CompiledModel &m = model(GetParam());
    BatchEngine engine(m, 4);
    const RunMode modes[] = {RunMode::QuantDitto, RunMode::QuantDirect,
                             RunMode::ApproxDitto, RunMode::QuantDitto};
    std::vector<BatchEngine::Parked> burst;
    for (int i = 0; i < 4; ++i) {
        DenoiseRequest req;
        req.seed = static_cast<uint64_t>(11 + i);
        req.mode = modes[i];
        req.steps = 1000; // never finishes during the test
        burst.push_back(
            BatchEngine::Parked::cold(m, static_cast<uint64_t>(i), req));
    }
    engine.join(burst);
    // Warm-up: the first step runs every slab direct, the next ones
    // prime both halves of every double-buffered slot.
    for (int t = 0; t < 3; ++t)
        engine.step();
    AllocCounter c;
    for (int t = 0; t < 4; ++t)
        engine.step();
    EXPECT_EQ(c.count(), 0) << kPresetNames[GetParam()];
}

/**
 * One join() grows the image stack and every stacked state tensor
 * once, whatever the burst size: joining three parked ApproxDitto
 * requests (each with its full slab state) into a primed one-slab
 * engine allocates exactly as often as joining one.
 */
TEST_P(EngineSteadyState, JoinAllocatesOncePerBurst)
{
    const CompiledModel &m = model(GetParam());
    // Three parked requests with live reuse state.
    BatchEngine source(m, 3);
    std::vector<BatchEngine::Parked> parked;
    for (int i = 0; i < 3; ++i) {
        DenoiseRequest req;
        req.seed = static_cast<uint64_t>(21 + i);
        req.mode = RunMode::ApproxDitto;
        req.steps = 1000;
        parked.push_back(
            BatchEngine::Parked::cold(m, static_cast<uint64_t>(i), req));
    }
    source.join(parked);
    source.step();
    source.step();
    parked.clear();
    for (int64_t i = 2; i >= 0; --i)
        parked.push_back(source.park(i));

    int64_t allocs[2] = {0, 0};
    for (int run = 0; run < 2; ++run) {
        BatchEngine engine(m, 4);
        DenoiseRequest req;
        req.seed = 31;
        req.steps = 1000;
        const BatchEngine::Parked first =
            BatchEngine::Parked::cold(m, 100, req);
        engine.join({&first, 1});
        engine.step();
        engine.step(); // primed: every state tensor holds one slab
        const size_t k = run == 0 ? 1 : 3;
        AllocCounter c;
        engine.join(std::span<const BatchEngine::Parked>(parked).first(k));
        allocs[run] = c.count();
    }
    EXPECT_EQ(allocs[0], allocs[1])
        << kPresetNames[GetParam()] << ": joining 1 vs 3 parked requests";
}

INSTANTIATE_TEST_SUITE_P(Presets, EngineSteadyState,
                         ::testing::Range(0, kPresets),
                         [](const ::testing::TestParamInfo<int> &info) {
                             return std::string(kPresetNames[info.param]);
                         });

/**
 * A rollout started inside a StepObserver runs while the outer one
 * holds the thread's workspace: it checks out its own and both stay
 * bitwise equal to standalone rollouts.
 */
TEST(WorkspaceCheckout, NestedRolloutGetsItsOwnWorkspace)
{
    setThreadCount(1);
    const CompiledModel &m = model(0);
    const RolloutResult ref = m.rollout(RunMode::QuantDitto);
    std::vector<FloatTensor> inner;
    const RolloutResult outer = m.rollout(
        RunMode::QuantDitto, m.requestNoise(0), 0,
        [&](int, const FloatTensor &, const CompiledModel::DittoState &) {
            inner.push_back(m.rollout(RunMode::QuantDitto).finalImage);
        });
    ASSERT_EQ(inner.size(), static_cast<size_t>(m.defaultSteps()));
    for (const FloatTensor &t : inner)
        EXPECT_EQ(t, ref.finalImage);
    EXPECT_EQ(outer.finalImage,
              m.rollout(RunMode::QuantDitto, m.requestNoise(0)).finalImage);
}

/**
 * A slab's declared slot count buys no memory its bytes cannot back: a
 * checksummed 92-byte slab declaring 2^20 previous-output slots, and
 * the same slab declaring 2^20 previous-input slots, carry none, and
 * decoding either one to its refusal allocates under 4 KiB.
 */
TEST(SlabCodec, UnbackedSlotCountAllocatesUnder4KiB)
{
    for (bool in_prev_out : {true, false}) {
        SCOPED_TRACE(in_prev_out ? "prevOut" : "prevIn");
        ByteWriter w;
        w.u32(0x424C5344u); // "DSLB"
        w.u16(shard::kSlabCodecVersion);
        w.u16(1u << 2); // hasState
        w.u64(7);
        w.i32(1); // stepsDone
        w.i32(5); // stepsTotal
        for (int i = 0; i < 6; ++i)
            w.i64(0); // OpCounts
        w.u8(1);      // f32 image
        w.u8(0);      // rank 0: empty
        w.u8(1);      // primed
        w.u8(0);      // approx
        if (in_prev_out)
            w.u32(0); // no prevIn slots
        w.u32(1u << 20);
        w.u64(fnv1a(w.data().data(), w.size()));
        const std::vector<uint8_t> slab = w.take();
        ASSERT_EQ(slab.size(), in_prev_out ? 92u : 88u);

        BatchEngine::Parked out;
        std::string why;
        why.reserve(64);
        AllocCounter c;
        const bool ok = shard::decodeParked(slab, &out, &why);
        const int64_t bytes = c.bytes();
        EXPECT_FALSE(ok);
        EXPECT_EQ(why, "truncated tensor header");
        EXPECT_LT(bytes, 4096);
    }
}

} // namespace
} // namespace ditto
