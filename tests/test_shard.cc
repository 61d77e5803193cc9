/**
 * @file
 * Tests for the scale-out serving tier (src/shard/): the relocatable
 * slab codec (committed golden fixtures per preset x RunMode, bitwise
 * round-trips, corruption/truncation/version-skew rejection), the
 * protocol payload codecs, worker hardening against hostile tickets
 * and mismatched slabs, cross-worker migration parity (migrated
 * results bitwise identical to single-process rollouts across
 * presets, modes and thread counts), prefix-affinity reuse routing,
 * failure detection with cold resubmission, and the merged metrics
 * surface.
 *
 * Golden fixtures live in tests/goldens/slab/ and are regenerated by
 * running this binary with DITTO_WRITE_GOLDENS=1 (they are written
 * into the source tree via DITTO_SOURCE_DIR). The fixtures are
 * host-independent: every tensor byte and counter is overwritten with
 * a deterministic pattern, so only the compiled state *geometry* —
 * which is a pure function of the spec — shapes the bytes.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/env.h"
#include "common/parallel.h"
#include "runtime/compiled.h"
#include "runtime/presets.h"
#include "serve/request.h"
#include "serve/reuse_cache.h"
#include "serve/faultpoints.h"
#include "serve/server.h"
#include "shard/client.h"
#include "shard/protocol.h"
#include "shard/router.h"
#include "shard/slab_codec.h"
#include "shard/worker.h"

namespace ditto {
namespace {

// ---------------------------------------------------------------------------
// Shared fixtures: presets, models, sockets.
// ---------------------------------------------------------------------------

constexpr int kNumPresets = 5;

const char *
presetName(int i)
{
    static const char *names[kNumPresets] = {
        "mini_unet", "deep_unet", "dit_block", "mhsa_block", "dit_adaln"};
    return names[i];
}

ModelSpec
presetSpec(int i)
{
    switch (i) {
      case 0: {
        MiniUnetConfig cfg;
        cfg.channels = 8;
        cfg.resolution = 8;
        cfg.steps = 5;
        return miniUnetSpec(cfg);
      }
      case 1: {
        DeepUnetConfig cfg;
        cfg.resolution = 8;
        cfg.baseChannels = 8;
        cfg.steps = 5;
        return deepUnetSpec(cfg);
      }
      case 2: {
        DitBlockConfig cfg;
        cfg.resolution = 8;
        cfg.embedDim = 16;
        cfg.steps = 5;
        return ditBlockSpec(cfg);
      }
      case 3: {
        MhsaBlockConfig cfg;
        cfg.resolution = 8;
        cfg.embedDim = 16;
        cfg.heads = 2;
        cfg.steps = 5;
        return mhsaBlockSpec(cfg);
      }
      default: {
        DitAdaLnConfig cfg;
        cfg.resolution = 8;
        cfg.embedDim = 16;
        cfg.steps = 5;
        return ditAdaLnSpec(cfg);
      }
    }
}

/**
 * Shared per-preset models (calibration runs once per process). The
 * approx policy is pinned so ApproxDitto actually skips blocks — the
 * migration tests must transport real skip state, not a no-op.
 */
const CompiledModel &
presetModel(int i)
{
    static std::unique_ptr<CompiledModel> models[kNumPresets];
    if (!models[i]) {
        auto m = std::make_unique<CompiledModel>(compile(presetSpec(i)));
        m->setApproxPolicy(0.5, 3);
        models[i] = std::move(m);
    }
    return *models[i];
}

void
expectBitwiseEqual(const FloatTensor &a, const FloatTensor &b)
{
    ASSERT_EQ(a.shape(), b.shape());
    EXPECT_TRUE(a == b) << "images are not bitwise identical";
}

ServerConfig
tierConfig()
{
    ServerConfig cfg;
    cfg.maxBatch = 4;
    cfg.maxWaitMicros = 200;
    cfg.workers = 1;
    cfg.queueCapacity = 256;
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
    req.maxWaitMicros = 0;
    return req;
}

std::string
uniqueSocketPath()
{
    static std::atomic<int> counter{0};
    char buf[96];
    std::snprintf(buf, sizeof buf, "/tmp/ditto_t%d_%d.sock",
                  static_cast<int>(getpid()), counter.fetch_add(1));
    std::remove(buf);
    return buf;
}

/** In-process worker tier: N ShardWorkers over one model + a router. */
struct Tier
{
    std::vector<std::unique_ptr<shard::ShardWorker>> workers;
    shard::ShardRouter router; // declared last: disconnects first

    Tier(const CompiledModel &model, int n, const ServerConfig &cfg,
         shard::RouterConfig rc = shard::RouterConfig::fromEnv())
        : router(rc)
    {
        for (int i = 0; i < n; ++i) {
            workers.push_back(std::make_unique<shard::ShardWorker>(
                model, uniqueSocketPath(), cfg));
            std::string why;
            if (!workers.back()->start(&why))
                ADD_FAILURE() << "worker start: " << why;
            if (!router.addWorker(workers.back()->socketPath(), &why))
                ADD_FAILURE() << "addWorker: " << why;
        }
    }
};

/** First `"key":<digits>` occurrence in a JSON export. */
uint64_t
scrapeU64(const std::string &json, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const size_t at = json.find(needle);
    if (at == std::string::npos)
        return ~uint64_t{0};
    uint64_t v = 0;
    for (size_t i = at + needle.size();
         i < json.size() && json[i] >= '0' && json[i] <= '9'; ++i)
        v = v * 10 + static_cast<uint64_t>(json[i] - '0');
    return v;
}

/** Poll `id` until its result arrives; false on a refusal (lastError). */
bool
pollToEnd(shard::ShardClient &c, uint64_t id, DenoiseResult *out)
{
    for (;;) {
        bool ready = false;
        if (!c.poll(id, &ready, out))
            return false;
        if (ready)
            return true;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

// ---------------------------------------------------------------------------
// Slab-codec fixtures.
// ---------------------------------------------------------------------------

/**
 * A deterministic Parked for (preset, mode): state tensors get their
 * *shapes* from two real forward passes (shapes are a pure function of
 * the compiled program), then every byte — image, codes, outputs,
 * counters — is overwritten with an integer pattern so the encoded
 * fixture is identical on every host regardless of calibration bits.
 */
BatchEngine::Parked
makeFixture(const CompiledModel &m, RunMode mode, uint64_t tag)
{
    BatchEngine::Parked p;
    p.id = 0xD1770000u + tag;
    p.stepsDone = 2;
    p.stepsTotal = m.defaultSteps();
    p.ditto = mode != RunMode::QuantDirect;
    p.approx = mode == RunMode::ApproxDitto;
    p.hasState = mode != RunMode::QuantDirect;
    p.ops.zeroSkipped = 11;
    p.ops.low4 = 22;
    p.ops.full8 = 33;
    p.ops.diffCalcElems = 44;
    p.ops.summationElems = 55;
    p.ops.reusedElems = 66;

    p.image = FloatTensor(m.inputShape());
    {
        auto img = p.image.data();
        for (size_t i = 0; i < img.size(); ++i)
            img[i] = 0.125f * static_cast<float>(
                                  static_cast<int64_t>(i * 37 % 255) - 127);
    }

    if (p.hasState) {
        CompiledModel::DittoState st;
        FloatTensor x = p.image;
        m.forward(x, mode, &st, nullptr);
        m.forward(x, mode, &st, nullptr);

        auto &s = p.state;
        s.prevIn = st.prevIn;
        s.prevOut = st.prevOut;
        s.consec = st.consec;
        s.skips = st.skips;
        s.primed = 1;
        s.approx = p.approx ? 1 : 0;
        for (size_t t = 0; t < s.prevIn.size(); ++t) {
            auto d = s.prevIn[t].data();
            for (size_t i = 0; i < d.size(); ++i)
                d[i] = static_cast<int8_t>(
                    static_cast<int64_t>(t * 7 + i) % 251 - 125);
        }
        for (size_t t = 0; t < s.prevOut.size(); ++t) {
            auto d = s.prevOut[t].data();
            for (size_t i = 0; i < d.size(); ++i)
                d[i] = static_cast<int32_t>(t * 1009 + i * 13) - 4096;
        }
        for (size_t i = 0; i < s.consec.size(); ++i)
            s.consec[i] = static_cast<int32_t>(i % 4);
        for (size_t i = 0; i < s.skips.size(); ++i)
            s.skips[i] = static_cast<int64_t>(i * 3 + 1);
    }
    return p;
}

void
expectParkedEqual(const BatchEngine::Parked &a, const BatchEngine::Parked &b)
{
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.stepsDone, b.stepsDone);
    EXPECT_EQ(a.stepsTotal, b.stepsTotal);
    EXPECT_EQ(a.ditto, b.ditto);
    EXPECT_EQ(a.approx, b.approx);
    EXPECT_EQ(a.hasState, b.hasState);
    EXPECT_EQ(a.ops.zeroSkipped, b.ops.zeroSkipped);
    EXPECT_EQ(a.ops.low4, b.ops.low4);
    EXPECT_EQ(a.ops.full8, b.ops.full8);
    EXPECT_EQ(a.ops.diffCalcElems, b.ops.diffCalcElems);
    EXPECT_EQ(a.ops.summationElems, b.ops.summationElems);
    EXPECT_EQ(a.ops.reusedElems, b.ops.reusedElems);
    EXPECT_TRUE(a.image == b.image);
    EXPECT_EQ(a.state.primed, b.state.primed);
    EXPECT_EQ(a.state.approx, b.state.approx);
    ASSERT_EQ(a.state.prevIn.size(), b.state.prevIn.size());
    for (size_t i = 0; i < a.state.prevIn.size(); ++i)
        EXPECT_TRUE(a.state.prevIn[i] == b.state.prevIn[i]);
    ASSERT_EQ(a.state.prevOut.size(), b.state.prevOut.size());
    for (size_t i = 0; i < a.state.prevOut.size(); ++i)
        EXPECT_TRUE(a.state.prevOut[i] == b.state.prevOut[i]);
    EXPECT_EQ(a.state.consec, b.state.consec);
    EXPECT_EQ(a.state.skips, b.state.skips);
}

const char *
modeTag(RunMode mode)
{
    switch (mode) {
      case RunMode::QuantDirect:
        return "quant_direct";
      case RunMode::QuantDitto:
        return "quant_ditto";
      default:
        return "approx_ditto";
    }
}

std::string
goldenPath(int preset, RunMode mode)
{
    return std::string(DITTO_SOURCE_DIR) + "/tests/goldens/slab/" +
           presetName(preset) + "_" + modeTag(mode) + ".bin";
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        return {};
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(f),
                                std::istreambuf_iterator<char>());
}

/** Recompute and patch the trailing FNV-1a after editing slab bytes. */
void
patchChecksum(std::vector<uint8_t> &bytes)
{
    const uint64_t sum = fnv1a(bytes.data(), bytes.size() - 8);
    for (int i = 0; i < 8; ++i)
        bytes[bytes.size() - 8 + static_cast<size_t>(i)] =
            static_cast<uint8_t>(sum >> (8 * i));
}

constexpr RunMode kModes[3] = {RunMode::QuantDitto, RunMode::QuantDirect,
                               RunMode::ApproxDitto};

// ---------------------------------------------------------------------------
// Slab codec: golden fixtures + round trips.
// ---------------------------------------------------------------------------

TEST(SlabCodec, GoldenFixturesBitwiseStable)
{
    const bool write = env::readFlag("DITTO_WRITE_GOLDENS");
    if (write)
        std::filesystem::create_directories(
            std::string(DITTO_SOURCE_DIR) + "/tests/goldens/slab");

    for (int preset = 0; preset < kNumPresets; ++preset) {
        const CompiledModel &m = presetModel(preset);
        for (RunMode mode : kModes) {
            SCOPED_TRACE(std::string(presetName(preset)) + "/" +
                         modeTag(mode));
            const BatchEngine::Parked fixture = makeFixture(
                m, mode, static_cast<uint64_t>(preset * 16) +
                             static_cast<uint64_t>(mode));
            const std::vector<uint8_t> bytes = shard::encodeParked(fixture);
            const std::string path = goldenPath(preset, mode);

            if (write) {
                std::ofstream f(path, std::ios::binary);
                ASSERT_TRUE(f) << "cannot write " << path;
                f.write(reinterpret_cast<const char *>(bytes.data()),
                        static_cast<std::streamsize>(bytes.size()));
                continue;
            }

            const std::vector<uint8_t> golden = readFile(path);
            ASSERT_FALSE(golden.empty())
                << path
                << " missing — regenerate with DITTO_WRITE_GOLDENS=1";
            EXPECT_EQ(bytes, golden)
                << "encoder output drifted from the committed fixture; "
                   "bump kSlabCodecVersion if the wire format changed";

            // The committed bytes decode to exactly the fixture and
            // re-encode to exactly the committed bytes.
            BatchEngine::Parked decoded;
            std::string why;
            ASSERT_TRUE(shard::decodeParked(golden, &decoded, &why)) << why;
            expectParkedEqual(decoded, fixture);
            EXPECT_EQ(decoded.state.backRef, nullptr);
            EXPECT_EQ(shard::encodeParked(decoded), golden);
            // ... and the model accepts them for a join.
            EXPECT_TRUE(m.acceptsSlab(decoded.image, decoded.stepsDone,
                                      decoded.hasState ? &decoded.state
                                                       : nullptr,
                                      &why))
                << why;
        }
    }
}

TEST(SlabCodec, RoundTripSeversBackRef)
{
    const CompiledModel &m = presetModel(0);
    BatchEngine::Parked p = makeFixture(m, RunMode::ApproxDitto, 99);
    auto pin = std::make_shared<int>(7);
    p.state.backRef = pin;

    const std::vector<uint8_t> bytes = shard::encodeParked(p);
    EXPECT_EQ(pin.use_count(), 2) << "encode must not retain the backRef";

    BatchEngine::Parked out;
    std::string why;
    ASSERT_TRUE(shard::decodeParked(bytes, &out, &why)) << why;
    EXPECT_EQ(out.state.backRef, nullptr);
    // Severing the pin is the only permitted difference.
    out.state.backRef = p.state.backRef;
    expectParkedEqual(out, p);
}

TEST(SlabCodec, ColdSlabWithEmptyImageRoundTrips)
{
    // A never-started migrated request has no partial image yet: the
    // slab carries a rank-0 tensor and no state section.
    BatchEngine::Parked cold;
    cold.id = 42;
    cold.stepsDone = 0;
    cold.stepsTotal = 5;
    cold.ditto = true;
    cold.hasState = false;

    BatchEngine::Parked out;
    std::string why;
    ASSERT_TRUE(shard::decodeParked(shard::encodeParked(cold), &out, &why))
        << why;
    EXPECT_EQ(out.id, 42u);
    EXPECT_EQ(out.image.numel(), 0);
    EXPECT_FALSE(out.hasState);
}

TEST(SlabCodec, TruncationFailsLoudlyWithoutTouchingOut)
{
    const std::vector<uint8_t> bytes =
        shard::encodeParked(makeFixture(presetModel(0),
                                        RunMode::ApproxDitto, 1));
    const size_t cuts[] = {0, 3, 10, 23, bytes.size() / 2, bytes.size() - 1};
    for (size_t cut : cuts) {
        SCOPED_TRACE("cut=" + std::to_string(cut));
        BatchEngine::Parked out;
        out.id = 0xDEAD;
        std::string why;
        EXPECT_FALSE(shard::decodeParked(
            std::span<const uint8_t>(bytes.data(), cut), &out, &why));
        EXPECT_FALSE(why.empty());
        EXPECT_EQ(out.id, 0xDEADu) << "failed decode must not touch *out";
    }
}

TEST(SlabCodec, CorruptionIsCaughtByChecksum)
{
    std::vector<uint8_t> bytes =
        shard::encodeParked(makeFixture(presetModel(0),
                                        RunMode::QuantDitto, 2));
    bytes[bytes.size() / 2] ^= 0x40;
    BatchEngine::Parked out;
    std::string why;
    EXPECT_FALSE(shard::decodeParked(bytes, &out, &why));
    EXPECT_NE(why.find("checksum"), std::string::npos) << why;
}

TEST(SlabCodec, VersionSkewIsRejected)
{
    std::vector<uint8_t> bytes =
        shard::encodeParked(makeFixture(presetModel(0),
                                        RunMode::QuantDitto, 3));
    bytes[4] += 1; // u16 version at offset 4
    patchChecksum(bytes);
    BatchEngine::Parked out;
    std::string why;
    EXPECT_FALSE(shard::decodeParked(bytes, &out, &why));
    EXPECT_NE(why.find("version skew"), std::string::npos) << why;
}

TEST(SlabCodec, BadMagicIsRejected)
{
    std::vector<uint8_t> bytes =
        shard::encodeParked(makeFixture(presetModel(0),
                                        RunMode::QuantDirect, 4));
    bytes[0] ^= 0xFF;
    patchChecksum(bytes);
    BatchEngine::Parked out;
    std::string why;
    EXPECT_FALSE(shard::decodeParked(bytes, &out, &why));
    EXPECT_NE(why.find("magic"), std::string::npos) << why;
}

TEST(SlabCodec, TrailingBytesAreRejected)
{
    std::vector<uint8_t> bytes =
        shard::encodeParked(makeFixture(presetModel(0),
                                        RunMode::QuantDitto, 5));
    bytes.insert(bytes.end() - 8, 0x00);
    patchChecksum(bytes);
    BatchEngine::Parked out;
    std::string why;
    EXPECT_FALSE(shard::decodeParked(bytes, &out, &why));
    EXPECT_NE(why.find("trailing"), std::string::npos) << why;
}

/**
 * A slab body built by hand, through the six OpCounts: every field of
 * the header is explicit so a case can break exactly one of them.
 */
ByteWriter
slabHeader(uint16_t flags, int32_t stepsDone = 1, int32_t stepsTotal = 5)
{
    ByteWriter w;
    w.u32(0x424C5344u); // "DSLB"
    w.u16(shard::kSlabCodecVersion);
    w.u16(flags);
    w.u64(7);
    w.i32(stepsDone);
    w.i32(stepsTotal);
    for (int i = 0; i < 6; ++i)
        w.i64(0);
    return w;
}

/** Append a fresh FNV-1a checksum, as any peer can. */
std::vector<uint8_t>
seal(ByteWriter w)
{
    w.u64(fnv1a(w.data().data(), w.size()));
    return w.take();
}

constexpr uint16_t kHasState = 1u << 2;

/** Decode must refuse `bytes` with exactly `reason`, leaving *out as is. */
void
expectRefused(const std::vector<uint8_t> &bytes, const std::string &reason)
{
    SCOPED_TRACE(reason);
    BatchEngine::Parked out;
    out.id = 0xDEAD;
    out.image = FloatTensor(Shape{2}, 3.0f);
    std::string why;
    EXPECT_FALSE(shard::decodeParked(bytes, &out, &why));
    EXPECT_EQ(why, reason);
    EXPECT_EQ(out.id, 0xDEADu) << "failed decode must not touch *out";
    EXPECT_TRUE(out.image == FloatTensor(Shape{2}, 3.0f));
}

TEST(SlabCodec, ResealedSlabsReachEveryStructuralRefusal)
{
    // The hand-built layout is sound: a stateless slab with an empty
    // image decodes.
    {
        ByteWriter w = slabHeader(0);
        w.u8(1); // f32
        w.u8(0); // rank 0: empty image
        BatchEngine::Parked out;
        std::string why;
        ASSERT_TRUE(shard::decodeParked(seal(std::move(w)), &out, &why))
            << why;
        EXPECT_EQ(out.id, 7u);
    }
    // A stateful slab's state section starts after an empty image.
    auto stateful = [] {
        ByteWriter w = slabHeader(kHasState);
        w.u8(1);
        w.u8(0);
        return w;
    };

    {
        ByteWriter w;
        w.u32(0x424C5344u);
        w.u16(shard::kSlabCodecVersion);
        w.u16(0);
        w.u64(7);
        w.i32(1); // stepsTotal and the OpCounts are missing
        expectRefused(seal(std::move(w)), "truncated slab header");
    }
    expectRefused(seal(slabHeader(0, 6, 5)),
                  "slab step counters out of range");
    // Cut before the image's dtype, before its rank, and between its
    // two dims.
    for (int fields = 0; fields < 3; ++fields) {
        ByteWriter w = slabHeader(0);
        if (fields > 0)
            w.u8(1);
        if (fields > 1) {
            w.u8(2);
            w.i64(4);
        }
        expectRefused(seal(std::move(w)), "truncated tensor header");
    }
    {
        ByteWriter w = slabHeader(0);
        w.u8(2); // i8 where the image is f32
        w.u8(0);
        expectRefused(seal(std::move(w)), "tensor dtype mismatch");
    }
    {
        ByteWriter w = slabHeader(0);
        w.u8(1);
        w.u8(5);
        expectRefused(seal(std::move(w)), "tensor rank out of range");
    }
    {
        ByteWriter w = slabHeader(0);
        w.u8(1);
        w.u8(2);
        w.i64(3);
        w.i64(-1);
        expectRefused(seal(std::move(w)),
                      "tensor dimension or element count out of range");
    }
    {
        ByteWriter w = slabHeader(0);
        w.u8(1);
        w.u8(1);
        w.i64(4);
        w.f32(1.0f); // one element of four
        expectRefused(seal(std::move(w)), "truncated tensor payload");
    }
    {
        ByteWriter w = stateful();
        w.u8(1); // primed, but no approx flag
        expectRefused(seal(std::move(w)), "truncated state flags");
    }
    {
        ByteWriter w = stateful();
        w.u8(1);
        w.u8(0);
        w.u32((1u << 20) + 1); // prevIn slots
        expectRefused(seal(std::move(w)), "slot count out of range");
    }
    // One of three consec counters; then whole consec and one of
    // three skip tallies.
    for (bool inSkips : {false, true}) {
        ByteWriter w = stateful();
        w.u8(1);
        w.u8(0);
        w.u32(0); // prevIn
        w.u32(0); // prevOut
        w.u32(inSkips ? 0 : 3);
        if (inSkips)
            w.u32(3);
        w.i32(0);
        expectRefused(seal(std::move(w)), "truncated counter array");
    }
}

TEST(SlabCodec, OverflowingTensorHeaderIsRefused)
{
    // 2^32 * 2^32 elements wraps a 64-bit count to 0, which would read
    // as an empty payload.
    ByteWriter w = slabHeader(0);
    w.u8(1);
    w.u8(4);
    w.i64(int64_t{1} << 32);
    w.i64(int64_t{1} << 32);
    w.i64(1);
    w.i64(1);
    expectRefused(seal(std::move(w)),
                  "tensor dimension or element count out of range");
}

// ---------------------------------------------------------------------------
// Protocol payload codecs.
// ---------------------------------------------------------------------------

TEST(ProtocolCodec, RequestRoundTrip)
{
    DenoiseRequest req;
    req.seed = 0xABCDEF0123456789ull;
    req.steps = 17;
    req.mode = RunMode::ApproxDitto;
    req.conditioning = 0x1122334455667788ull;
    req.maxWaitMicros = 2500;
    req.slo = SloClass::Interactive;
    req.deadlineMicros = 987654;

    ByteWriter w;
    shard::putRequest(w, req);
    ByteReader r(w.data().data(), w.size());
    DenoiseRequest out;
    ASSERT_TRUE(shard::getRequest(r, &out));
    EXPECT_EQ(out.seed, req.seed);
    EXPECT_EQ(out.steps, req.steps);
    EXPECT_EQ(out.mode, req.mode);
    EXPECT_EQ(out.conditioning, req.conditioning);
    EXPECT_EQ(out.maxWaitMicros, req.maxWaitMicros);
    EXPECT_EQ(out.slo, req.slo);
    EXPECT_EQ(out.deadlineMicros, req.deadlineMicros);

    // Truncated payloads are refused, not misparsed.
    ByteReader cut(w.data().data(), w.size() - 1);
    DenoiseRequest bad;
    EXPECT_FALSE(shard::getRequest(cut, &bad));
}

TEST(ProtocolCodec, ResultAndInfoAndWireRoundTrip)
{
    DenoiseResult res;
    res.id = 314;
    res.status = RequestStatus::Done;
    res.slo = SloClass::BestEffort;
    res.image = FloatTensor(Shape{1, 2, 3, 4});
    {
        auto d = res.image.data();
        for (size_t i = 0; i < d.size(); ++i)
            d[i] = static_cast<float>(i) * 0.25f;
    }
    res.dittoOps.low4 = 7;
    res.steps = 9;
    res.preemptions = 2;
    res.reusedSteps = 3;
    res.degraded = true;
    res.queueMicros = 12.5;
    res.serviceMicros = 99.75;

    ByteWriter w;
    shard::putResult(w, res);
    ByteReader r(w.data().data(), w.size());
    DenoiseResult out;
    ASSERT_TRUE(shard::getResult(r, &out));
    EXPECT_EQ(out.id, res.id);
    EXPECT_EQ(out.status, res.status);
    EXPECT_EQ(out.slo, res.slo);
    EXPECT_TRUE(out.image == res.image);
    EXPECT_EQ(out.dittoOps.low4, 7);
    EXPECT_EQ(out.steps, 9);
    EXPECT_EQ(out.preemptions, 2);
    EXPECT_EQ(out.reusedSteps, 3);
    EXPECT_TRUE(out.degraded);
    EXPECT_DOUBLE_EQ(out.queueMicros, 12.5);
    EXPECT_DOUBLE_EQ(out.serviceMicros, 99.75);

    shard::WorkerInfo info;
    info.specHash = 0xAABB;
    info.calibDigest = 0xCCDD;
    info.defaultSteps = 5;
    info.stateInSlots = 12;
    info.stateOutSlots = 13;
    ByteWriter wi;
    shard::putInfo(wi, info);
    ByteReader ri(wi.data().data(), wi.size());
    shard::WorkerInfo infoOut;
    ASSERT_TRUE(shard::getInfo(ri, &infoOut));
    EXPECT_EQ(infoOut.specHash, info.specHash);
    EXPECT_EQ(infoOut.calibDigest, info.calibDigest);
    EXPECT_EQ(infoOut.defaultSteps, info.defaultSteps);
    EXPECT_EQ(infoOut.stateInSlots, info.stateInSlots);
    EXPECT_EQ(infoOut.stateOutSlots, info.stateOutSlots);

    shard::MigratedWire mw;
    mw.specHash = 1;
    mw.calibDigest = 2;
    mw.req.seed = 77;
    mw.slab = {1, 2, 3, 4, 5};
    ByteWriter wm;
    shard::putMigratedWire(wm, mw);
    ByteReader rm(wm.data().data(), wm.size());
    shard::MigratedWire mwOut;
    ASSERT_TRUE(shard::getMigratedWire(rm, &mwOut));
    EXPECT_EQ(mwOut.specHash, 1u);
    EXPECT_EQ(mwOut.calibDigest, 2u);
    EXPECT_EQ(mwOut.req.seed, 77u);
    EXPECT_EQ(mwOut.slab, mw.slab);
}

TEST(ProtocolCodec, OverflowingImageHeaderIsRefused)
{
    // A result whose image declares [2^31, 2^33] and carries no
    // payload: the element count overflows before any bound applies.
    DenoiseResult res;
    res.id = 5;
    res.status = RequestStatus::Done;
    ByteWriter w;
    shard::putResult(w, res);
    std::vector<uint8_t> bytes = w.take();
    ASSERT_EQ(bytes.back(), 0u); // the empty image's rank
    bytes.pop_back();
    ByteWriter img;
    img.u8(2);
    img.i64(int64_t{1} << 31);
    img.i64(int64_t{1} << 33);
    bytes.insert(bytes.end(), img.data().begin(), img.data().end());

    ByteReader r(bytes.data(), bytes.size());
    DenoiseResult out;
    EXPECT_FALSE(shard::getResult(r, &out));
    EXPECT_EQ(out.image.numel(), 0);
}

// ---------------------------------------------------------------------------
// Reuse-cache generation: clear() bumps it and keeps the counters.
// ---------------------------------------------------------------------------

TEST(ReuseGeneration, ClearBumpsGenerationCountersSurvive)
{
    ReuseCacheConfig rc;
    rc.capBytes = 1 << 20;
    ReuseCache cache(rc);
    const PrefixBase base{1, 2, 3, RunMode::QuantDitto};
    cache.store(PrefixKey{base, 2}, FloatTensor(Shape{1, 1, 2, 2}),
                CompiledModel::BatchDittoState::SlabState{}, false);
    ASSERT_TRUE(cache.lookup(base, 5));
    EXPECT_FALSE(cache.lookup(PrefixBase{9, 9, 9, RunMode::QuantDitto}, 5));

    const ReuseCacheStats before = cache.stats();
    EXPECT_EQ(before.generation, 0u);
    cache.clear();
    const ReuseCacheStats after = cache.stats();
    EXPECT_EQ(after.generation, 1u);
    EXPECT_EQ(after.entries, 0u);
    EXPECT_EQ(after.bytes, 0u);
    // Counters survive the clear, so a merger can sum the last scrape.
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.stores, before.stores);
    cache.clear();
    EXPECT_EQ(cache.stats().generation, 2u);
}

// ---------------------------------------------------------------------------
// Shard tier: submit/poll, migration parity, affinity, failover.
// ---------------------------------------------------------------------------

TEST(ShardTier, SubmitAcrossWorkersBitwiseIdenticalToRollout)
{
    const CompiledModel &m = presetModel(0);
    Tier tier(m, 2, tierConfig());
    ASSERT_EQ(tier.router.numHealthy(), 2);

    std::vector<uint64_t> gids;
    std::vector<DenoiseRequest> reqs;
    for (int i = 0; i < 9; ++i) {
        const RunMode mode = kModes[i % 3];
        reqs.push_back(identityRequest(40 + static_cast<uint64_t>(i),
                                       1000 + static_cast<uint64_t>(i),
                                       mode, 0));
        gids.push_back(tier.router.submit(reqs.back()));
    }
    for (size_t i = 0; i < gids.size(); ++i) {
        SCOPED_TRACE("request " + std::to_string(i));
        const DenoiseResult res = tier.router.wait(gids[i]);
        ASSERT_EQ(res.status, RequestStatus::Done);
        EXPECT_EQ(res.id, gids[i]);
        const RolloutResult ref =
            m.rollout(reqs[i].mode, m.requestNoise(reqs[i].seed));
        expectBitwiseEqual(res.image, ref.finalImage);
    }
    const std::string json = tier.router.metricsJson();
    EXPECT_EQ(scrapeU64(json, "submitted"), 9u);
    EXPECT_EQ(scrapeU64(json, "completed"), 9u);
}

TEST(ShardTier, MigrationParityAcrossPresetsModesAndThreads)
{
    // Park on worker A, migrate the slab to worker B, resume there —
    // bitwise identical to the uninterrupted single-process rollout,
    // for every preset x mode x thread count. The request is long
    // enough (24 steps on tiny models) that the migration almost
    // always lands mid-run; when it loses the race the cold result is
    // still parity-checked.
    constexpr int kSteps = 24;
    int migrated = 0;
    int caseIdx = 0;
    for (int preset = 0; preset < kNumPresets; ++preset) {
        const CompiledModel &m = presetModel(preset);
        for (RunMode mode : kModes) {
            for (int threads : {1, 3}) {
                SCOPED_TRACE(std::string(presetName(preset)) + "/" +
                             modeTag(mode) + "/threads=" +
                             std::to_string(threads));
                setThreadCount(threads);
                Tier tier(m, 2, tierConfig());
                const uint64_t seed =
                    7000 + static_cast<uint64_t>(caseIdx++);
                const DenoiseRequest req =
                    identityRequest(seed, 31337, mode, kSteps);
                const uint64_t gid = tier.router.submit(req);

                // Wait until the request occupies a batch slot, then
                // relocate it to the other worker.
                const auto begin = std::chrono::steady_clock::now();
                while (tier.router.queryState(gid) !=
                           RequestStatus::Running &&
                       !isTerminal(tier.router.queryState(gid)) &&
                       std::chrono::steady_clock::now() - begin <
                           std::chrono::seconds(5))
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(100));
                const int src = tier.router.routeWorker(gid);
                if (src >= 0) {
                    const int dst = src == 0 ? 1 : 0;
                    if (tier.router.migrate(gid, dst)) {
                        ++migrated;
                        EXPECT_GE(tier.workers[static_cast<size_t>(dst)]
                                      ->server()
                                      .metrics()
                                      .migratedIn,
                                  1u);
                        EXPECT_GE(tier.workers[static_cast<size_t>(src)]
                                      ->server()
                                      .metrics()
                                      .migratedOut,
                                  1u);
                    }
                }

                const DenoiseResult res = tier.router.wait(gid);
                ASSERT_EQ(res.status, RequestStatus::Done);
                EXPECT_EQ(res.steps, kSteps);
                const RolloutResult ref =
                    m.rollout(mode, m.requestNoise(seed), kSteps);
                expectBitwiseEqual(res.image, ref.finalImage);
            }
        }
    }
    setThreadCount(1);
    // The sweep must actually exercise the migration path, not just
    // race-lose its way through 30 cold completions.
    EXPECT_GT(migrated, kNumPresets) << "migration almost never engaged";
}

TEST(ShardTier, AffinityPreservesReuseHitRateAtHighDuplication)
{
    // 90% duplicate traffic over four identities, 10% unique. The
    // router's rendezvous affinity must keep near-duplicates on the
    // worker whose cache holds their prefix: the 2-worker tier's
    // aggregate hit rate stays within 0.8x of a single server's on
    // the same trace. Slack is set high so deadline pressure never
    // overrides warmth during the burst — this test isolates the
    // affinity policy.
    const CompiledModel &m = presetModel(0);
    ServerConfig cfg = tierConfig();
    cfg.reuse.capBytes = 64ll << 20;
    cfg.reuse.checkpointEvery = 2;

    constexpr int kRequests = 100;
    const auto trafficRequest = [](int i) {
        DenoiseRequest req;
        if (i % 10 == 9)
            req = identityRequest(5000 + static_cast<uint64_t>(i),
                                  static_cast<uint64_t>(i),
                                  RunMode::QuantDitto, 0);
        else
            req = identityRequest(100 + static_cast<uint64_t>(i % 4),
                                  9000 + static_cast<uint64_t>(i % 4),
                                  RunMode::QuantDitto, 0);
        req.slo = SloClass::Interactive; // never shed/degraded
        return req;
    };

    uint64_t tierHits = 0, tierMisses = 0;
    {
        shard::RouterConfig rc = shard::RouterConfig::fromEnv();
        rc.affinitySlack = 1 << 10;
        Tier tier(m, 2, cfg, rc);
        std::vector<uint64_t> gids;
        for (int i = 0; i < kRequests; ++i)
            gids.push_back(tier.router.submit(trafficRequest(i)));
        for (uint64_t gid : gids) {
            const DenoiseResult res = tier.router.wait(gid);
            ASSERT_EQ(res.status, RequestStatus::Done);
        }
        for (auto &w : tier.workers) {
            const ServeMetrics sm = w->server().metrics();
            tierHits += sm.reuseHits;
            tierMisses += sm.reuseMisses;
        }

        // The router's merged roll-up agrees with the per-worker sums
        // and is stable across scrapes (delta merging, no double
        // counting).
        const std::string json1 = tier.router.metricsJson();
        EXPECT_EQ(scrapeU64(json1, "hits"), tierHits);
        const std::string json2 = tier.router.metricsJson();
        EXPECT_EQ(scrapeU64(json2, "hits"), tierHits);
    }

    uint64_t singleHits = 0, singleMisses = 0;
    {
        DenoiseServer single(m, cfg);
        std::vector<uint64_t> ids;
        for (int i = 0; i < kRequests; ++i)
            ids.push_back(single.submit(trafficRequest(i)));
        for (uint64_t id : ids) {
            const DenoiseResult res = single.wait(id);
            ASSERT_EQ(res.status, RequestStatus::Done);
        }
        const ServeMetrics sm = single.metrics();
        singleHits = sm.reuseHits;
        singleMisses = sm.reuseMisses;
    }

    ASSERT_GT(singleHits, 0u) << "baseline produced no reuse at all";
    const double tierRate =
        static_cast<double>(tierHits) /
        static_cast<double>(tierHits + tierMisses);
    const double singleRate =
        static_cast<double>(singleHits) /
        static_cast<double>(singleHits + singleMisses);
    EXPECT_GE(tierRate, 0.8 * singleRate)
        << "tier hit rate " << tierRate << " vs single-worker "
        << singleRate;
}

TEST(ShardTier, WorkerDeathTriggersColdResubmissionBitwise)
{
    const CompiledModel &m = presetModel(0);
    Tier tier(m, 2, tierConfig());

    std::vector<uint64_t> gids;
    std::vector<DenoiseRequest> reqs;
    for (int i = 0; i < 12; ++i) {
        reqs.push_back(identityRequest(300 + static_cast<uint64_t>(i),
                                       17, RunMode::QuantDitto, 10));
        gids.push_back(tier.router.submit(reqs.back()));
    }
    int onDying = 0;
    for (uint64_t gid : gids)
        if (tier.router.routeWorker(gid) == 1)
            ++onDying;

    // Abrupt stop: connections die mid-tier, exactly like kill -9 on
    // a worker process. No drain, no goodbye.
    tier.workers[1]->stop();

    for (size_t i = 0; i < gids.size(); ++i) {
        SCOPED_TRACE("request " + std::to_string(i));
        const DenoiseResult res = tier.router.wait(gids[i]);
        ASSERT_EQ(res.status, RequestStatus::Done)
            << "failover must complete every route";
        const RolloutResult ref =
            m.rollout(reqs[i].mode, m.requestNoise(reqs[i].seed), 10);
        expectBitwiseEqual(res.image, ref.finalImage);
    }

    if (onDying > 0) {
        const std::string json = tier.router.metricsJson();
        EXPECT_GE(scrapeU64(json, "failovers"), 1u);
        EXPECT_GE(scrapeU64(json, "resubmitted"),
                  static_cast<uint64_t>(1));
        EXPECT_EQ(scrapeU64(json, "healthy"), 1u);
    }
}

TEST(ShardTier, DrainedWorkerExitIsNotAFailover)
{
    // A drained worker exits once its work is done (shard_worker
    // returns 0 after a Drain). The router then loses its transport on
    // the next RPC; that is the graceful path, not a failover.
    const CompiledModel &m = presetModel(0);
    Tier tier(m, 2, tierConfig());
    std::vector<uint64_t> gids;
    for (int i = 0; i < 4; ++i)
        gids.push_back(tier.router.submit(identityRequest(
            500 + static_cast<uint64_t>(i), 23, RunMode::QuantDitto, 6)));
    for (uint64_t gid : gids)
        ASSERT_EQ(tier.router.wait(gid).status, RequestStatus::Done);

    tier.router.drainAll();
    for (auto &w : tier.workers)
        w->stop();
    const std::string json = tier.router.metricsJson();
    EXPECT_EQ(scrapeU64(json, "failovers"), 0u);
    EXPECT_EQ(scrapeU64(json, "resubmitted"), 0u);
}

TEST(ShardTier, WorkerScreensHostileTicketsAndSlabs)
{
    const CompiledModel &m = presetModel(0);
    shard::ShardWorker worker(m, uniqueSocketPath(), tierConfig());
    std::string why;
    ASSERT_TRUE(worker.start(&why)) << why;

    shard::ShardClient c;
    ASSERT_TRUE(c.connect(worker.socketPath(), &why)) << why;
    EXPECT_TRUE(c.ping());

    // Unknown tickets are refused with an Error frame — the
    // connection survives and the worker does not DITTO_FATAL.
    bool ready = false;
    DenoiseResult res;
    EXPECT_FALSE(c.poll(999999, &ready, &res));
    EXPECT_TRUE(c.connected());
    EXPECT_NE(c.lastError().find("unknown ticket"), std::string::npos)
        << c.lastError();
    bool ok = false;
    EXPECT_FALSE(c.cancel(999999, &ok));
    RequestStatus st;
    EXPECT_FALSE(c.queryState(999999, &st));
    shard::MigratedWire mo;
    EXPECT_FALSE(c.migrateOut(999999, &mo));
    EXPECT_TRUE(c.connected());

    // A corrupt slab never installs.
    BatchEngine::Parked cold;
    cold.id = 1;
    cold.stepsDone = 0;
    cold.stepsTotal = m.defaultSteps();
    cold.hasState = false;
    shard::MigratedWire wire;
    wire.specHash = c.info().specHash;
    wire.calibDigest = c.info().calibDigest;
    wire.req = identityRequest(11, 22, RunMode::QuantDitto,
                               m.defaultSteps());
    wire.slab = {0xDE, 0xAD, 0xBE};
    uint64_t nid = 0;
    EXPECT_FALSE(c.migrateIn(wire, &nid));
    EXPECT_TRUE(c.connected());
    EXPECT_FALSE(c.lastError().empty());

    // A slab from a different model identity never installs.
    wire.slab = shard::encodeParked(cold);
    wire.specHash ^= 1;
    EXPECT_FALSE(c.migrateIn(wire, &nid));
    EXPECT_NE(c.lastError().find("identity"), std::string::npos)
        << c.lastError();
    wire.specHash = c.info().specHash;

    // Checksummed slabs whose contents would abort the worker, or
    // read or write out of bounds, once joined: each is answered with
    // an Error frame naming the reason. `expect` is a fragment of it.
    struct Hostile
    {
        const char *what;
        const char *expect;
        BatchEngine::Parked slab;
    };
    std::vector<Hostile> hostile;
    hostile.push_back({"slot vectors missing", "geometry",
                       makeFixture(m, RunMode::QuantDitto, 6)});
    hostile.back().slab.state.prevIn.clear();
    hostile.push_back({"state without an image", "image",
                       makeFixture(m, RunMode::ApproxDitto, 7)});
    hostile.back().slab.stepsDone = 0;
    hostile.back().slab.image = FloatTensor();
    hostile.push_back({"skips longer than consec", "skip counters",
                       makeFixture(m, RunMode::ApproxDitto, 8)});
    hostile.back().slab.state.skips.push_back(1);
    hostile.push_back({"code slot of rank 3", "code slot 0",
                       makeFixture(m, RunMode::QuantDitto, 9)});
    hostile.back().slab.state.prevIn[0] = Int8Tensor(Shape{1, 2, 3});
    hostile.push_back({"primed one-element code slot", "code slot 0",
                       makeFixture(m, RunMode::ApproxDitto, 10)});
    hostile.back().slab.state.prevIn[0] = Int8Tensor(Shape{1});
    hostile.push_back({"primed empty code slot", "code slot 0",
                       makeFixture(m, RunMode::ApproxDitto, 11)});
    hostile.back().slab.state.prevIn[0] = Int8Tensor();
    hostile.push_back({"output slot reshaped", "output slot 0",
                       makeFixture(m, RunMode::QuantDitto, 12)});
    {
        Int32Tensor &out = hostile.back().slab.state.prevOut[0];
        out = Int32Tensor(Shape{out.numel()});
    }
    for (const Hostile &h : hostile) {
        SCOPED_TRACE(h.what);
        shard::MigratedWire hw = wire;
        hw.req.mode = h.slab.approx ? RunMode::ApproxDitto
                                    : RunMode::QuantDitto;
        hw.slab = shard::encodeParked(h.slab);
        EXPECT_FALSE(c.migrateIn(hw, &nid));
        EXPECT_TRUE(c.connected());
        EXPECT_NE(c.lastError().find(h.expect), std::string::npos)
            << c.lastError();
    }

    // *Valid* slabs adopt and run to the bitwise result — the worker
    // is still fully healthy after all of the abuse: a cold one, and
    // one parked mid-rollout with its ApproxDitto reuse state.
    const auto runToEnd = [&](const shard::MigratedWire &w) {
        DenoiseResult out;
        if (!c.migrateIn(w, &nid)) {
            ADD_FAILURE() << "valid slab refused: " << c.lastError();
            return out;
        }
        for (;;) {
            bool done = false;
            if (!c.poll(nid, &done, &out)) {
                ADD_FAILURE() << "poll: " << c.lastError();
                return out;
            }
            if (done)
                return out;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    };
    res = runToEnd(wire);
    ASSERT_EQ(res.status, RequestStatus::Done);
    const RolloutResult ref = m.rollout(
        RunMode::QuantDitto, m.requestNoise(11), m.defaultSteps());
    expectBitwiseEqual(res.image, ref.finalImage);

    const DenoiseRequest approx =
        identityRequest(13, 22, RunMode::ApproxDitto, m.defaultSteps());
    BatchEngine engine(m, 1);
    const BatchEngine::Parked start =
        BatchEngine::Parked::cold(m, 1, approx);
    engine.join({&start, 1});
    engine.step();
    engine.step();
    shard::MigratedWire warm = wire;
    warm.req = approx;
    warm.slab = shard::encodeParked(engine.park(0));
    res = runToEnd(warm);
    ASSERT_EQ(res.status, RequestStatus::Done);
    expectBitwiseEqual(res.image,
                       m.rollout(RunMode::ApproxDitto, m.requestNoise(13),
                                 m.defaultSteps())
                           .finalImage);
    EXPECT_GE(worker.server().metrics().migratedIn, 2u);
}

TEST(ShardTier, DrainWaitsForAnInFlightSubmit)
{
    // A Submit that has passed the worker's drained check when a Drain
    // arrives on another connection must still be accepted and then
    // drained — not reach the server after its shutdown, which would
    // take the whole worker down. The armed delay holds the Submit
    // inside DenoiseServer::submit for 300 ms; the Drain is sent once
    // the Submit has hit the fault point.
    const CompiledModel &m = presetModel(0);
    shard::ShardWorker worker(m, uniqueSocketPath(), tierConfig());
    std::string why;
    ASSERT_TRUE(worker.start(&why)) << why;
    shard::ShardClient submitter;
    shard::ShardClient drainer;
    ASSERT_TRUE(submitter.connect(worker.socketPath(), &why)) << why;
    ASSERT_TRUE(drainer.connect(worker.socketPath(), &why)) << why;

    faults::configure("submit:delay:every=1:300000");
    uint64_t id = 0;
    bool submitted = false;
    std::thread submit([&] {
        submitted = submitter.submit(
            identityRequest(71, 72, RunMode::QuantDitto, 0), &id);
    });
    while (faults::hitCount(faults::Point::Submit) == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const bool drained = drainer.drain();
    submit.join();
    faults::reset();
    ASSERT_TRUE(submitted) << submitter.lastError();
    EXPECT_TRUE(drained) << drainer.lastError();
    EXPECT_TRUE(worker.drained());

    // The drain finished the accepted request; it stays retrievable.
    bool ready = false;
    DenoiseResult res;
    ASSERT_TRUE(submitter.poll(id, &ready, &res)) << submitter.lastError();
    ASSERT_TRUE(ready);
    ASSERT_EQ(res.status, RequestStatus::Done);
    expectBitwiseEqual(
        res.image,
        m.rollout(RunMode::QuantDitto, m.requestNoise(71)).finalImage);

    // Later submits are refused with a reason, not fatal.
    uint64_t late = 0;
    EXPECT_FALSE(submitter.submit(
        identityRequest(73, 74, RunMode::QuantDitto, 0), &late));
    EXPECT_NE(submitter.lastError().find("drained"), std::string::npos)
        << submitter.lastError();
}

TEST(ShardTier, PollIsNotHeldBehindASlowSubmit)
{
    // A Submit held inside DenoiseServer::submit (here by an armed
    // delay; in service by a wait for queue space) must not hold up
    // other connections: a Poll on a second connection is answered
    // while the Submit still waits. The Submit cannot be answered
    // before its delay runs out, so a Poll answered sooner was not
    // held behind it.
    constexpr int64_t kDelayUs = 500000;
    const CompiledModel &m = presetModel(0);
    shard::ShardWorker worker(m, uniqueSocketPath(), tierConfig());
    std::string why;
    ASSERT_TRUE(worker.start(&why)) << why;
    shard::ShardClient submitter;
    shard::ShardClient poller;
    ASSERT_TRUE(submitter.connect(worker.socketPath(), &why)) << why;
    ASSERT_TRUE(poller.connect(worker.socketPath(), &why)) << why;
    uint64_t first = 0;
    ASSERT_TRUE(poller.submit(identityRequest(81, 82, RunMode::QuantDitto, 0),
                              &first))
        << poller.lastError();

    faults::configure("submit:delay:every=1:" + std::to_string(kDelayUs));
    const auto sent = std::chrono::steady_clock::now();
    std::atomic<bool> slowAnswered{false};
    uint64_t id = 0;
    bool submitted = false;
    std::thread slow([&] {
        submitted = submitter.submit(
            identityRequest(83, 84, RunMode::QuantDitto, 0), &id);
        slowAnswered.store(true);
    });
    while (faults::hitCount(faults::Point::Submit) == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    bool ready = false;
    DenoiseResult res;
    const bool polled = poller.poll(first, &ready, &res);
    const auto answered = std::chrono::steady_clock::now() - sent;
    const bool submitPending = !slowAnswered.load();
    slow.join();
    faults::reset();
    ASSERT_TRUE(polled) << poller.lastError();
    EXPECT_TRUE(submitPending) << "the Poll was answered after the Submit";
    EXPECT_LT(answered, std::chrono::microseconds(kDelayUs))
        << "the Poll waited out the Submit's delay";
    ASSERT_TRUE(submitted) << submitter.lastError();

    // Both requests still finish with their bitwise results.
    if (!ready) {
        ASSERT_TRUE(pollToEnd(poller, first, &res)) << poller.lastError();
    }
    ASSERT_EQ(res.status, RequestStatus::Done);
    expectBitwiseEqual(
        res.image, m.rollout(RunMode::QuantDitto, m.requestNoise(81)).finalImage);
    ASSERT_TRUE(pollToEnd(submitter, id, &res)) << submitter.lastError();
    ASSERT_EQ(res.status, RequestStatus::Done);
    expectBitwiseEqual(
        res.image, m.rollout(RunMode::QuantDitto, m.requestNoise(83)).finalImage);
}

TEST(ShardTier, FrontDoorServesTheShardProtocol)
{
    const CompiledModel &m = presetModel(0);
    Tier tier(m, 2, tierConfig());
    const std::string front = uniqueSocketPath();
    std::string why;
    ASSERT_TRUE(tier.router.serve(front, &why)) << why;

    shard::ShardClient c;
    ASSERT_TRUE(c.connect(front, &why)) << why;
    EXPECT_EQ(c.info().specHash, tier.router.info().specHash);
    EXPECT_EQ(c.info().calibDigest, tier.router.info().calibDigest);

    uint64_t gid = 0;
    ASSERT_TRUE(c.submit(identityRequest(64, 65, RunMode::QuantDitto, 0),
                         &gid));
    bool ready = false;
    DenoiseResult res;
    for (;;) {
        ASSERT_TRUE(c.poll(gid, &ready, &res));
        if (ready)
            break;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ASSERT_EQ(res.status, RequestStatus::Done);
    const RolloutResult ref =
        m.rollout(RunMode::QuantDitto, m.requestNoise(64));
    expectBitwiseEqual(res.image, ref.finalImage);

    // Unknown gids are screened at the front door too.
    EXPECT_FALSE(c.poll(123456, &ready, &res));
    EXPECT_TRUE(c.connected());
    EXPECT_NE(c.lastError().find("unknown ticket"), std::string::npos);

    // Migration RPCs are worker-internal, not front-door surface.
    shard::MigratedWire mw;
    EXPECT_FALSE(c.migrateOut(1, &mw));
    EXPECT_TRUE(c.connected());

    std::string json;
    ASSERT_TRUE(c.metricsJson(&json));
    EXPECT_NE(json.find("\"router\""), std::string::npos);
    EXPECT_NE(json.find("\"workers\""), std::string::npos);

    // Drain through the front door drains every worker.
    ASSERT_TRUE(c.drain());
    EXPECT_TRUE(tier.workers[0]->drained());
    EXPECT_TRUE(tier.workers[1]->drained());
    tier.router.stopServing();
}

TEST(ShardTier, FrontDoorSurvivesRacingPollsOnOneTicket)
{
    // Two front-door connections poll one finished gid at the same
    // time, or one polls while the other queries it. Operations on one
    // ticket run one at a time: exactly one Poll gets the result, the
    // other connection is answered "unknown ticket" (or, for a query
    // that ran first, Done), and the router keeps serving.
    constexpr int kRounds = 40;
    constexpr int kBatch = 16;
    const CompiledModel &m = presetModel(0);
    Tier tier(m, 2, tierConfig());
    const std::string front = uniqueSocketPath();
    std::string why;
    ASSERT_TRUE(tier.router.serve(front, &why)) << why;
    shard::ShardClient a;
    shard::ShardClient b;
    ASSERT_TRUE(a.connect(front, &why)) << why;
    ASSERT_TRUE(b.connect(front, &why)) << why;

    for (int round = 0; round < kRounds; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const bool query = round % 2 == 1;
        std::vector<uint64_t> gids(kBatch);
        for (int i = 0; i < kBatch; ++i)
            ASSERT_TRUE(a.submit(
                identityRequest(static_cast<uint64_t>(round * kBatch + i),
                                5, RunMode::QuantDitto, 1),
                &gids[static_cast<size_t>(i)]))
                << a.lastError();
        for (uint64_t gid : gids) {
            RequestStatus st = RequestStatus::Queued;
            while (a.queryState(gid, &st) && !isTerminal(st))
                std::this_thread::sleep_for(std::chrono::microseconds(100));
            ASSERT_EQ(st, RequestStatus::Done) << a.lastError();
        }

        // got[c][i]: connection c received gid i's result (or, for a
        // query, its Done state); err[c][i]: the Error it got instead.
        std::vector<int> got[2] = {std::vector<int>(kBatch, 0),
                                   std::vector<int>(kBatch, 0)};
        std::vector<std::string> err[2] = {
            std::vector<std::string>(kBatch), std::vector<std::string>(kBatch)};
        // Both connections send their frames for gid i together.
        std::atomic<int> arrived{0};
        const auto race = [&](int c, shard::ShardClient &client,
                              bool asQuery) {
            for (size_t i = 0; i < gids.size(); ++i) {
                const int due = 2 * static_cast<int>(i + 1);
                arrived.fetch_add(1);
                while (arrived.load() < due) {
                }
                bool ok = false;
                if (asQuery) {
                    RequestStatus st = RequestStatus::Queued;
                    ok = client.queryState(gids[i], &st);
                    got[c][i] = ok && st == RequestStatus::Done ? 1 : 0;
                } else {
                    bool done = false;
                    DenoiseResult res;
                    ok = client.poll(gids[i], &done, &res);
                    got[c][i] = ok && done && res.id == gids[i] ? 1 : 0;
                }
                if (!ok)
                    err[c][i] = client.lastError();
            }
        };
        std::thread tb([&] { race(1, b, query); });
        race(0, a, false);
        tb.join();

        for (size_t i = 0; i < gids.size(); ++i) {
            SCOPED_TRACE("gid " + std::to_string(gids[i]));
            if (query) {
                EXPECT_EQ(got[0][i], 1) << err[0][i];
                if (!got[1][i]) {
                    EXPECT_NE(err[1][i].find("unknown ticket"),
                              std::string::npos)
                        << err[1][i];
                }
            } else {
                EXPECT_EQ(got[0][i] + got[1][i], 1);
                const int loser = got[0][i] ? 1 : 0;
                EXPECT_NE(err[loser][i].find("unknown ticket"),
                          std::string::npos)
                    << err[loser][i];
            }
        }
        ASSERT_TRUE(a.connected());
        ASSERT_TRUE(b.connected());
    }

    // Still serving: a fresh request runs to its bitwise result.
    uint64_t gid = 0;
    ASSERT_TRUE(b.submit(identityRequest(99, 5, RunMode::QuantDitto, 0),
                         &gid));
    DenoiseResult res;
    ASSERT_TRUE(pollToEnd(b, gid, &res)) << b.lastError();
    ASSERT_EQ(res.status, RequestStatus::Done);
    expectBitwiseEqual(
        res.image, m.rollout(RunMode::QuantDitto, m.requestNoise(99)).finalImage);
}

TEST(ShardTier, FrontDoorAndWorkerScreenFramesAlike)
{
    // Both endpoints follow one set of rules: a ticket frame is exactly
    // one u64, an unknown ticket is answered "unknown ticket", and a
    // Submit after a Drain is refused with an Error.
    const CompiledModel &m = presetModel(0);
    Tier tier(m, 1, tierConfig());
    const std::string front = uniqueSocketPath();
    std::string why;
    ASSERT_TRUE(tier.router.serve(front, &why)) << why;
    const std::string paths[2] = {tier.workers[0]->socketPath(), front};
    shard::ShardClient clients[2];
    for (int e = 0; e < 2; ++e) {
        SCOPED_TRACE(e == 0 ? "worker" : "front door");
        shard::ShardClient &c = clients[e];
        ASSERT_TRUE(c.connect(paths[e], &why)) << why;
        uint64_t id = 0;
        ASSERT_TRUE(c.submit(identityRequest(61 + static_cast<uint64_t>(e),
                                             62, RunMode::QuantDitto, 0),
                             &id))
            << c.lastError();

        // A live ticket followed by one stray byte is refused.
        const int fd = net::connectUnix(paths[e], 1000, &why);
        ASSERT_GE(fd, 0) << why;
        ByteWriter w;
        w.u64(id);
        w.u8(0);
        net::Frame reply;
        ASSERT_TRUE(net::sendFrame(fd, static_cast<uint32_t>(shard::Msg::Poll),
                                   w.take()));
        ASSERT_TRUE(net::recvFrame(fd, &reply));
        net::closeFd(fd);
        EXPECT_EQ(reply.type, static_cast<uint32_t>(shard::Msg::Error));

        bool ready = false;
        DenoiseResult res;
        EXPECT_FALSE(c.poll(id + 1000, &ready, &res));
        EXPECT_NE(c.lastError().find("unknown ticket"), std::string::npos)
            << c.lastError();
        ASSERT_TRUE(pollToEnd(c, id, &res)) << c.lastError();
        EXPECT_EQ(res.status, RequestStatus::Done);
    }

    // Draining the front door drains the worker behind it; each
    // endpoint then refuses a Submit with a reason.
    ASSERT_TRUE(clients[1].drain()) << clients[1].lastError();
    for (int e = 0; e < 2; ++e) {
        SCOPED_TRACE(e == 0 ? "worker" : "front door");
        uint64_t late = 0;
        EXPECT_FALSE(clients[e].submit(
            identityRequest(63, 64, RunMode::QuantDitto, 0), &late));
        EXPECT_TRUE(clients[e].connected());
        EXPECT_NE(clients[e].lastError().find("drained"), std::string::npos)
            << clients[e].lastError();
    }
}

TEST(ShardTier, RouterRejectsMismatchedWorker)
{
    const CompiledModel &a = presetModel(0);
    const CompiledModel &b = presetModel(1);
    shard::ShardWorker wa(a, uniqueSocketPath(), tierConfig());
    shard::ShardWorker wb(b, uniqueSocketPath(), tierConfig());
    std::string why;
    ASSERT_TRUE(wa.start(&why)) << why;
    ASSERT_TRUE(wb.start(&why)) << why;

    shard::ShardRouter router;
    ASSERT_TRUE(router.addWorker(wa.socketPath(), &why)) << why;
    EXPECT_FALSE(router.addWorker(wb.socketPath(), &why));
    EXPECT_FALSE(why.empty());
    EXPECT_EQ(router.numWorkers(), 1);
}

} // namespace
} // namespace ditto
