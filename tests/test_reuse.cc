/**
 * @file
 * Tests for the inter-request reuse cache (src/serve/reuse_cache.h):
 * prefix-key identity, cache store/lookup/eviction mechanics, bitwise
 * cold-vs-warm parity across presets, modes, batch shapes and thread
 * counts, cross-model invalidation through a shared cache, the
 * reuse fault points, the BatchDittoState backRef lifecycle, the
 * per-step rollout observer, and the metrics surface.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "runtime/compiled.h"
#include "runtime/presets.h"
#include "serve/faultpoints.h"
#include "serve/prefix_key.h"
#include "serve/reuse_cache.h"
#include "serve/server.h"

namespace ditto {
namespace {

MiniUnetConfig
smallConfig()
{
    MiniUnetConfig cfg;
    cfg.channels = 8;
    cfg.resolution = 8;
    cfg.steps = 5;
    return cfg;
}

/** Shared test model (calibration runs once per process). */
const CompiledModel &
testModel()
{
    static const CompiledModel *m = [] {
        return new CompiledModel(compile(miniUnetSpec(smallConfig())));
    }();
    return *m;
}

void
expectBitwiseEqual(const FloatTensor &a, const FloatTensor &b)
{
    ASSERT_EQ(a.shape(), b.shape());
    EXPECT_TRUE(a == b) << "images are not bitwise identical";
}

ReuseCacheConfig
bigCache(int checkpoint_every = 2)
{
    ReuseCacheConfig rc;
    rc.capBytes = 64ll << 20;
    rc.checkpointEvery = checkpoint_every;
    return rc;
}

ServerConfig
serverConfig(int64_t max_batch = 4, int workers = 1)
{
    ServerConfig cfg;
    cfg.maxBatch = max_batch;
    cfg.maxWaitMicros = 500;
    cfg.workers = workers;
    cfg.reuse = bigCache();
    return cfg;
}

DenoiseRequest
identityRequest(uint64_t seed, uint64_t conditioning, RunMode mode,
                int steps)
{
    DenoiseRequest req;
    req.seed = seed;
    req.conditioning = conditioning;
    req.mode = mode;
    req.steps = steps;
    return req;
}

/** Restore a pristine fault registry however a test exits. */
struct FaultGuard
{
    ~FaultGuard() { faults::reset(); }
};

TEST(PrefixKeyTest, IdentityAndPolicySensitivity)
{
    const CompiledModel &m = testModel();
    const PrefixBase a =
        makePrefixBase(m, 7, 11, RunMode::QuantDitto);
    EXPECT_EQ(a, makePrefixBase(m, 7, 11, RunMode::QuantDitto));
    EXPECT_EQ(a.hash(),
              makePrefixBase(m, 7, 11, RunMode::QuantDitto).hash());

    // Any component change breaks identity: seed, conditioning, mode.
    EXPECT_FALSE(a == makePrefixBase(m, 8, 11, RunMode::QuantDitto));
    EXPECT_FALSE(a == makePrefixBase(m, 7, 12, RunMode::QuantDitto));
    EXPECT_FALSE(a == makePrefixBase(m, 7, 11, RunMode::QuantDirect));

    // A different model (different weights -> different spec hash)
    // never shares identity.
    MiniUnetConfig other = smallConfig();
    other.seed = 4242;
    const CompiledModel m2 = compile(miniUnetSpec(other));
    EXPECT_FALSE(a == makePrefixBase(m2, 7, 11, RunMode::QuantDitto));

    // ApproxDitto folds the resolved skip policy into the digest; the
    // exact modes ignore it.
    CompiledModel m3 = compile(miniUnetSpec(smallConfig()));
    const PrefixBase approx_a =
        makePrefixBase(m3, 7, 11, RunMode::ApproxDitto);
    const PrefixBase exact_a =
        makePrefixBase(m3, 7, 11, RunMode::QuantDitto);
    m3.setApproxPolicy(0.25, 2);
    EXPECT_FALSE(approx_a ==
                 makePrefixBase(m3, 7, 11, RunMode::ApproxDitto));
    EXPECT_EQ(exact_a, makePrefixBase(m3, 7, 11, RunMode::QuantDitto));

    // PrefixKey pins the depth.
    const PrefixKey k2{a, 2}, k4{a, 4};
    EXPECT_FALSE(k2 == k4);
    EXPECT_NE(k2.hash(), k4.hash());
}

TEST(ReuseCacheTest, LookupReturnsDeepestPrefix)
{
    ReuseCache cache(bigCache());
    const PrefixBase base{1, 2, 3, RunMode::QuantDitto};
    const FloatTensor img(Shape{1, 2, 4, 4});
    CompiledModel::BatchDittoState::SlabState state;
    cache.store(PrefixKey{base, 2}, img, state, false);
    cache.store(PrefixKey{base, 4}, img, state, false);

    ReuseCache::EntryPtr e = cache.lookup(base, 5);
    ASSERT_TRUE(e);
    EXPECT_EQ(e->key.steps, 4);
    e = cache.lookup(base, 3);
    ASSERT_TRUE(e);
    EXPECT_EQ(e->key.steps, 2);
    EXPECT_FALSE(cache.lookup(base, 1));

    PrefixBase other = base;
    other.seed = 99;
    EXPECT_FALSE(cache.lookup(other, 5));

    const ReuseCacheStats st = cache.stats();
    EXPECT_EQ(st.stores, 2u);
    EXPECT_EQ(st.entries, 2u);
    EXPECT_EQ(st.hits, 2u);
    EXPECT_EQ(st.misses, 2u);
    EXPECT_DOUBLE_EQ(st.hitRate(), 0.5);

    // Re-storing a resident key refreshes instead of duplicating.
    cache.store(PrefixKey{base, 4}, img, state, false);
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().stores, 2u);

    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().bytes, 0u);
    EXPECT_FALSE(cache.lookup(base, 5));
}

TEST(ReuseCacheTest, EvictionUnderBytePressure)
{
    // Each entry is ~256 fixed + 128 floats * 4 = ~768 bytes; cap at
    // ~2 entries worth and store five distinct identities.
    ReuseCacheConfig rc;
    rc.capBytes = 1700;
    rc.checkpointEvery = 1;
    ReuseCache cache(rc);
    const FloatTensor img(Shape{1, 2, 8, 8});
    CompiledModel::BatchDittoState::SlabState state;
    for (uint64_t s = 0; s < 5; ++s)
        cache.store(PrefixKey{PrefixBase{1, s, 0, RunMode::QuantDitto},
                              2},
                    img, state, false);
    const ReuseCacheStats st = cache.stats();
    EXPECT_GT(st.evictions, 0u);
    EXPECT_LE(st.bytes, static_cast<uint64_t>(rc.capBytes));
    EXPECT_EQ(st.entries + st.evictions, 5u);

    // LRU order: the newest identity survives, the oldest are gone.
    EXPECT_TRUE(
        cache.lookup(PrefixBase{1, 4, 0, RunMode::QuantDitto}, 5));
    EXPECT_FALSE(
        cache.lookup(PrefixBase{1, 0, 0, RunMode::QuantDitto}, 5));

    // An entry alone above the budget is dropped, never pinned.
    ReuseCacheConfig tiny;
    tiny.capBytes = 64;
    ReuseCache small(tiny);
    small.store(PrefixKey{PrefixBase{2, 0, 0, RunMode::QuantDitto}, 2},
                FloatTensor(Shape{1, 2, 8, 8}), state, false);
    EXPECT_EQ(small.stats().entries, 0u);
    EXPECT_EQ(small.stats().evictions, 1u);
}

/** Warm duplicates against one preset spec: bitwise vs cold rollout. */
void
runWarmColdParity(const ModelSpec &spec, RunMode mode, int steps)
{
    const CompiledModel model = compile(spec);
    const uint64_t seed = 31, cond = 77;
    const RolloutResult ref =
        model.rollout(mode, model.requestNoise(seed), steps);

    DenoiseServer server(model, serverConfig());
    // Prime: one cold request leaves checkpoints at steps 2 and 4.
    const DenoiseResult cold = server.wait(
        server.submit(identityRequest(seed, cond, mode, steps)));
    ASSERT_EQ(cold.status, RequestStatus::Done);
    EXPECT_EQ(cold.reusedSteps, 0);
    expectBitwiseEqual(ref.finalImage, cold.image);

    // Three concurrent duplicates share one batch (batch shape 3) and
    // all warm-start from the deepest prefix below their step count.
    std::vector<uint64_t> ids;
    for (int i = 0; i < 3; ++i)
        ids.push_back(
            server.submit(identityRequest(seed, cond, mode, steps)));
    for (uint64_t id : ids) {
        const DenoiseResult warm = server.wait(id);
        ASSERT_EQ(warm.status, RequestStatus::Done);
        EXPECT_EQ(warm.reusedSteps, 4);
        EXPECT_EQ(warm.steps, steps);
        expectBitwiseEqual(ref.finalImage, warm.image);
    }
    const ServeMetrics sm = server.metrics();
    EXPECT_GE(sm.reuseHits, 3u);
    EXPECT_GE(sm.reuseStepsSaved, 12u);
}

TEST(WarmColdParity, MiniUnetExactModes)
{
    for (RunMode mode : {RunMode::QuantDitto, RunMode::QuantDirect})
        runWarmColdParity(miniUnetSpec(smallConfig()), mode, 5);
}

TEST(WarmColdParity, DeepUnetExactModes)
{
    DeepUnetConfig cfg;
    cfg.baseChannels = 8;
    cfg.resolution = 8;
    cfg.steps = 5;
    for (RunMode mode : {RunMode::QuantDitto, RunMode::QuantDirect})
        runWarmColdParity(deepUnetSpec(cfg), mode, 5);
}

TEST(WarmColdParity, TransformerPresets)
{
    DitBlockConfig dit;
    dit.embedDim = 16;
    dit.resolution = 4;
    dit.steps = 5;
    runWarmColdParity(ditBlockSpec(dit), RunMode::QuantDitto, 5);

    MhsaBlockConfig mhsa;
    mhsa.embedDim = 16;
    mhsa.heads = 2;
    mhsa.resolution = 4;
    mhsa.steps = 5;
    runWarmColdParity(mhsaBlockSpec(mhsa), RunMode::QuantDitto, 5);

    DitAdaLnConfig ada;
    ada.embedDim = 16;
    ada.resolution = 4;
    ada.steps = 5;
    runWarmColdParity(ditAdaLnSpec(ada), RunMode::QuantDitto, 5);
}

TEST(WarmColdParity, ThreadCountInvariant)
{
    // The warm trajectory must be bitwise stable across kernel thread
    // counts, like everything else in the runtime.
    setThreadCount(1);
    runWarmColdParity(miniUnetSpec(smallConfig()),
                      RunMode::QuantDitto, 5);
    setThreadCount(3);
    runWarmColdParity(miniUnetSpec(smallConfig()),
                      RunMode::QuantDitto, 5);
    setThreadCount(1);
}

TEST(WarmColdParity, ApproxDittoCarriesSkipState)
{
    // Aggressive skip policy: the warm start must replay the cold
    // trajectory's skip decisions exactly, which requires the cached
    // slab state (codes, outputs, consecutive-skip counters).
    CompiledModel model = compile(miniUnetSpec(smallConfig()));
    model.setApproxPolicy(1.0, 3);
    const uint64_t seed = 57, cond = 3;
    const RolloutResult ref = model.rollout(
        RunMode::ApproxDitto, model.requestNoise(seed), 5);

    DenoiseServer server(model, serverConfig());
    const DenoiseResult cold = server.wait(server.submit(
        identityRequest(seed, cond, RunMode::ApproxDitto, 5)));
    expectBitwiseEqual(ref.finalImage, cold.image);
    const DenoiseResult warm = server.wait(server.submit(
        identityRequest(seed, cond, RunMode::ApproxDitto, 5)));
    ASSERT_EQ(warm.status, RequestStatus::Done);
    EXPECT_EQ(warm.reusedSteps, 4);
    expectBitwiseEqual(ref.finalImage, warm.image);
}

TEST(WarmColdParity, DifferentStepCountsSharePrefixes)
{
    // The step update has no timestep embedding, so a 4-step request's
    // checkpoints warm-start a 6-step request of the same identity.
    const CompiledModel &model = testModel();
    const uint64_t seed = 91, cond = 5;
    DenoiseServer server(model, serverConfig());
    const DenoiseResult a = server.wait(server.submit(
        identityRequest(seed, cond, RunMode::QuantDitto, 4)));
    ASSERT_EQ(a.status, RequestStatus::Done);
    const DenoiseResult b = server.wait(server.submit(
        identityRequest(seed, cond, RunMode::QuantDitto, 6)));
    ASSERT_EQ(b.status, RequestStatus::Done);
    EXPECT_EQ(b.reusedSteps, 4);
    EXPECT_EQ(b.steps, 6);
    const RolloutResult ref = model.rollout(
        RunMode::QuantDitto, model.requestNoise(seed), 6);
    expectBitwiseEqual(ref.finalImage, b.image);
}

TEST(ReuseServer, ConcurrentHitsStayBitwise)
{
    const CompiledModel &model = testModel();
    const uint64_t seed = 121, cond = 9;
    const RolloutResult ref = model.rollout(
        RunMode::QuantDitto, model.requestNoise(seed), 5);
    DenoiseServer server(model, serverConfig(/*max_batch=*/4,
                                             /*workers=*/2));
    const DenoiseResult cold = server.wait(server.submit(
        identityRequest(seed, cond, RunMode::QuantDitto, 5)));
    expectBitwiseEqual(ref.finalImage, cold.image);
    std::vector<uint64_t> ids;
    for (int i = 0; i < 10; ++i)
        ids.push_back(server.submit(
            identityRequest(seed, cond, RunMode::QuantDitto, 5)));
    for (uint64_t id : ids) {
        const DenoiseResult res = server.wait(id);
        ASSERT_EQ(res.status, RequestStatus::Done);
        expectBitwiseEqual(ref.finalImage, res.image);
    }
    EXPECT_GE(server.metrics().reuseHits, 10u);
}

TEST(ReuseServer, SharedCacheNeverCrossesModels)
{
    // Two different models share one cache object; the prefix key's
    // model digest keeps their entries apart — a spec or calibration
    // change can never serve a stale prefix.
    const CompiledModel m1 = compile(miniUnetSpec(smallConfig()));
    MiniUnetConfig other = smallConfig();
    other.seed = 4242;
    const CompiledModel m2 = compile(miniUnetSpec(other));
    auto cache = std::make_shared<ReuseCache>(bigCache());
    const uint64_t seed = 33, cond = 1;

    ServerConfig cfg = serverConfig();
    {
        DenoiseServer s1(m1, cfg, cache);
        const DenoiseResult r = s1.wait(s1.submit(
            identityRequest(seed, cond, RunMode::QuantDitto, 5)));
        ASSERT_EQ(r.status, RequestStatus::Done);
    }
    EXPECT_GT(cache->stats().entries, 0u);
    {
        DenoiseServer s2(m2, cfg, cache);
        const DenoiseResult r = s2.wait(s2.submit(
            identityRequest(seed, cond, RunMode::QuantDitto, 5)));
        ASSERT_EQ(r.status, RequestStatus::Done);
        EXPECT_EQ(r.reusedSteps, 0); // same (seed, cond), other model
        expectBitwiseEqual(
            m2.rollout(RunMode::QuantDitto, m2.requestNoise(seed), 5)
                .finalImage,
            r.image);
    }
    // Explicit invalidation drops residency but keeps the counters.
    const uint64_t stores_before = cache->stats().stores;
    cache->clear();
    EXPECT_EQ(cache->stats().entries, 0u);
    EXPECT_EQ(cache->stats().stores, stores_before);
}

TEST(ReuseFaults, StoreFailureMeansColdMisses)
{
    FaultGuard guard;
    faults::configure("reuse_store:fail:every=1", 0);
    const CompiledModel &model = testModel();
    DenoiseServer server(model, serverConfig());
    const uint64_t seed = 141, cond = 2;
    const RolloutResult ref = model.rollout(
        RunMode::QuantDitto, model.requestNoise(seed), 5);
    for (int i = 0; i < 2; ++i) {
        const DenoiseResult r = server.wait(server.submit(
            identityRequest(seed, cond, RunMode::QuantDitto, 5)));
        ASSERT_EQ(r.status, RequestStatus::Done);
        EXPECT_EQ(r.reusedSteps, 0); // nothing ever stored
        expectBitwiseEqual(ref.finalImage, r.image);
    }
    const ServeMetrics sm = server.metrics();
    EXPECT_EQ(sm.reuseStores, 0u);
    EXPECT_EQ(sm.reuseHits, 0u);
    EXPECT_GT(faults::hitCount(faults::Point::ReuseStore), 0u);
}

TEST(ReuseFaults, InstallFailureForcesColdStart)
{
    FaultGuard guard;
    faults::configure("reuse_install:fail:every=1", 0);
    const CompiledModel &model = testModel();
    DenoiseServer server(model, serverConfig());
    const uint64_t seed = 151, cond = 6;
    const RolloutResult ref = model.rollout(
        RunMode::QuantDitto, model.requestNoise(seed), 5);
    for (int i = 0; i < 2; ++i) {
        const DenoiseResult r = server.wait(server.submit(
            identityRequest(seed, cond, RunMode::QuantDitto, 5)));
        ASSERT_EQ(r.status, RequestStatus::Done);
        EXPECT_EQ(r.reusedSteps, 0); // lookup skipped, stores fine
        expectBitwiseEqual(ref.finalImage, r.image);
    }
    const ServeMetrics sm = server.metrics();
    EXPECT_GT(sm.reuseStores, 0u);
    EXPECT_EQ(sm.reuseHits, 0u);
    EXPECT_GT(faults::hitCount(faults::Point::ReuseInstall), 0u);
}

TEST(BackRefRegression, SlabRecycleDropsBackReference)
{
    // resetSlab / removeSlab must sever whatever shared owner an
    // installed slab was holding (e.g. a reuse-cache entry), or a
    // recycled slot pins evicted entries forever.
    const CompiledModel &model = testModel();
    CompiledModel::BatchDittoState st;
    st.appendSlabs(1);
    FloatTensor x = model.requestNoise(5);
    std::vector<OpCounts> counts(1);
    (void)model.forwardBatch(x, RunMode::QuantDitto, &st,
                             counts.data());

    CompiledModel::BatchDittoState::SlabState slab = st.extractSlab(0);
    EXPECT_EQ(slab.backRef, nullptr); // extracted copies own buffers

    auto owner = std::make_shared<int>(7);
    slab.backRef = owner;
    st.installSlab(0, slab);
    EXPECT_EQ(owner.use_count(), 3); // owner + slab copy + batch state

    st.resetSlab(0);
    EXPECT_EQ(owner.use_count(), 2); // recycle severed the reference

    st.installSlab(0, slab);
    EXPECT_EQ(owner.use_count(), 3);
    st.removeSlab(0);
    EXPECT_EQ(owner.use_count(), 2);

    // Append/remove around an installed slab keeps neighbors intact.
    st.appendSlabs(2);
    st.installSlab(1, slab);
    EXPECT_EQ(owner.use_count(), 3);
    st.removeSlab(0);
    EXPECT_EQ(owner.use_count(), 3); // neighbor's reference moved down
    st.removeSlab(0);
    EXPECT_EQ(owner.use_count(), 2);
}

TEST(ObserverHook, StepObserverSeesEveryStep)
{
    const CompiledModel &model = testModel();
    const FloatTensor noise = model.requestNoise(17);
    std::vector<int> seen;
    FloatTensor last;
    bool primed_after_first = false;
    const RolloutResult r = model.rollout(
        RunMode::QuantDitto, noise, 5,
        [&](int steps_done, const FloatTensor &x,
            const CompiledModel::DittoState &state) {
            seen.push_back(steps_done);
            last = x;
            if (steps_done == 1)
                primed_after_first = state.primed[0] != 0;
        });
    ASSERT_EQ(seen.size(), 5u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(seen[static_cast<size_t>(i)], i + 1);
    EXPECT_TRUE(primed_after_first);
    expectBitwiseEqual(r.finalImage, last);
}

TEST(MetricsSurface, ReuseCountersInJson)
{
    const CompiledModel &model = testModel();
    DenoiseServer server(model, serverConfig());
    const uint64_t seed = 161, cond = 8;
    (void)server.wait(server.submit(
        identityRequest(seed, cond, RunMode::QuantDitto, 5)));
    (void)server.wait(server.submit(
        identityRequest(seed, cond, RunMode::QuantDitto, 5)));
    const ServeMetrics sm = server.metrics();
    EXPECT_GT(sm.reuseHits, 0u);
    EXPECT_GT(sm.reuseStores, 0u);
    EXPECT_GT(sm.reuseStepsSaved, 0u);
    EXPECT_GT(sm.reuseHitRate(), 0.0);
    const std::string json = server.metricsJson();
    EXPECT_NE(json.find("\"reuse\":{\"hits\":"), std::string::npos);
    EXPECT_NE(json.find("\"steps_saved\":"), std::string::npos);
    EXPECT_NE(json.find("\"hit_rate\":"), std::string::npos);

    // Disabled cache: the object is still emitted, all zeros.
    ServerConfig off = serverConfig();
    off.reuse = ReuseCacheConfig{};
    DenoiseServer coldServer(model, off);
    EXPECT_EQ(coldServer.reuseCache(), nullptr);
    const std::string off_json = coldServer.metricsJson();
    EXPECT_NE(off_json.find("\"reuse\":{\"hits\":0,\"misses\":0"),
              std::string::npos);
}

} // namespace
} // namespace ditto
