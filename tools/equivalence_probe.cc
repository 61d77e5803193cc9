/**
 * @file
 * Bitwise-equivalence probe for refactors of the quantized executor.
 *
 * Prints one digest line per preset x shape x CompileOptions x mode x
 * ApproxDitto threshold, and a total. Each digest folds in:
 *  - the compiled wiring (slot counts, bypass/sum-skip counts and every
 *    NodeReport field);
 *  - rollout(): the final image, all six OpCounts fields, nodeSkips;
 *  - rolloutBatch() of three requests: the same per request;
 *  - runSteps() on a two-slab BatchDittoState: the images, the tallies
 *    and every code and output slot afterwards (the slot numbering and
 *    contents the slab codec ships), plus the skip counters.
 *
 * Build the same source against two trees' headers and libditto_core.a
 * (the parent and the change) and diff the outputs; run both at
 * DITTO_NUM_THREADS=1 and 4 and under DITTO_SIMD=generic:
 *
 *   g++ -std=c++20 -O2 -march=native -I <tree>/src \
 *       tools/equivalence_probe.cc <build>/src/libditto_core.a \
 *       -pthread -o probe
 *
 * It uses only the public CompiledModel API, so it links against any
 * tree whose API matches.
 */
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "runtime/compiled.h"
#include "runtime/presets.h"

using namespace ditto;

namespace {

/** FNV-1a over everything folded in. */
struct Digest
{
    uint64_t h = 1469598103934665603ull;

    void
    bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const uint8_t *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    }

    template <typename T>
    void
    value(T v)
    {
        bytes(&v, sizeof(v));
    }

    template <typename T>
    void
    tensor(const Tensor<T> &t)
    {
        for (int64_t i = 0; i < t.shape().rank(); ++i)
            value(t.shape()[i]);
        bytes(t.data().data(), t.data().size() * sizeof(T));
    }

    void
    ops(const OpCounts &c)
    {
        value(c.zeroSkipped);
        value(c.low4);
        value(c.full8);
        value(c.diffCalcElems);
        value(c.summationElems);
        value(c.reusedElems);
    }

    void
    result(const RolloutResult &r)
    {
        tensor(r.finalImage);
        ops(r.dittoOps);
        value(r.nodeSkips.size());
        for (int64_t s : r.nodeSkips)
            value(s);
    }

    void
    wiring(const CompiledModel &m)
    {
        value(m.numStateInSlots());
        value(m.numStateOutSlots());
        value(m.numDiffBypassNodes());
        value(m.numSumSkipNodes());
        for (const CompiledModel::NodeReport &r : m.nodeReports()) {
            bytes(r.name.data(), r.name.size());
            value(static_cast<int>(r.op));
            value(r.layer);
            value(r.compute);
            value(r.diffBypass);
            value(r.diffBypass2);
            value(r.junction);
            value(r.sumSkip);
            value(r.emitsPayload);
            value(r.deadStructural);
            value(r.outElems);
        }
    }
};

/** The five presets at the benchmark's shapes or at their defaults. */
std::vector<std::pair<std::string, ModelSpec>>
presets(bool bench_shapes)
{
    MiniUnetConfig mu;
    DeepUnetConfig du;
    DitBlockConfig db;
    MhsaBlockConfig mh;
    DitAdaLnConfig da;
    if (bench_shapes) {
        mu.channels = 32;
        mu.resolution = 16;
        mu.steps = 8;
        du.baseChannels = 16;
        du.resolution = 16;
        du.steps = 8;
        db.embedDim = 32;
        db.resolution = 16;
        db.steps = 8;
        mh.embedDim = 32;
        mh.heads = 2;
        mh.resolution = 16;
        mh.steps = 8;
        da.embedDim = 32;
        da.resolution = 16;
        da.steps = 8;
    }
    return {{"mini_unet", miniUnetSpec(mu)},
            {"deep_unet", deepUnetSpec(du)},
            {"dit_block", ditBlockSpec(db)},
            {"mhsa_block", mhsaBlockSpec(mh)},
            {"dit_adaln", ditAdaLnSpec(da)}};
}

/** runSteps on a two-slab state, folding in the state it leaves. */
void
stateDigest(const CompiledModel &m, RunMode mode, Digest *d)
{
    const Shape &one = m.inputShape();
    FloatTensor x(Shape{2, one[1], one[2], one[3]});
    for (int64_t b = 0; b < 2; ++b) {
        const FloatTensor n = m.requestNoise(static_cast<uint64_t>(200 + b));
        std::copy(n.data().begin(), n.data().end(),
                  x.data().begin() + b * n.numel());
    }
    CompiledModel::BatchDittoState st;
    st.appendSlabs(2);
    st.approx[0] = st.approx[1] = mode == RunMode::ApproxDitto;
    OpCounts counts[2];
    m.runSteps(&x, mode, &st, counts, m.defaultSteps());
    d->tensor(x);
    d->ops(counts[0]);
    d->ops(counts[1]);
    for (size_t k = 0; k < st.prevIn.size(); ++k) {
        d->value(k);
        d->tensor(st.prevIn[k]);
    }
    for (size_t k = 0; k < st.prevOut.size(); ++k) {
        d->value(k);
        d->tensor(st.prevOut[k]);
    }
    for (int64_t s : st.skips)
        d->value(s);
    for (int32_t c : st.consec)
        d->value(c);
}

} // namespace

int
main()
{
    struct ModeCase
    {
        RunMode mode;
        double thresh;
    };
    const ModeCase cases[] = {
        {RunMode::QuantDirect, 0.5},  {RunMode::QuantDitto, 0.5},
        {RunMode::ApproxDitto, 0.25}, {RunMode::ApproxDitto, 0.5},
        {RunMode::ApproxDitto, 0.75}, {RunMode::ApproxDitto, 1.0},
    };
    Digest total;
    for (bool bench_shapes : {true, false}) {
        for (const auto &[name, spec] : presets(bench_shapes)) {
            // Default options, the dependency analysis off, ForceDiff.
            for (int opt = 0; opt < 3; ++opt) {
                CompileOptions co;
                co.useDependencyAnalysis = opt != 1;
                co.policy = opt == 2 ? DiffPolicy::ForceDiff
                                     : DiffPolicy::Auto;
                CompiledModel m = compile(spec, co);
                Digest wiring;
                wiring.wiring(m);
                for (const ModeCase &mc : cases) {
                    Digest d = wiring;
                    m.setApproxPolicy(mc.thresh, 3);
                    d.result(m.rollout(mc.mode));
                    std::vector<FloatTensor> noises;
                    for (uint64_t s = 0; s < 3; ++s)
                        noises.push_back(m.requestNoise(100 + s));
                    for (const RolloutResult &r :
                         m.rolloutBatch(mc.mode, noises))
                        d.result(r);
                    if (mc.mode != RunMode::QuantDirect)
                        stateDigest(m, mc.mode, &d);
                    std::printf("%-10s %-5s opt%d mode%d thresh%.2f "
                                "%016llx\n",
                                name.c_str(),
                                bench_shapes ? "bench" : "dflt", opt,
                                static_cast<int>(mc.mode), mc.thresh,
                                static_cast<unsigned long long>(d.h));
                    total.value(d.h);
                }
            }
        }
    }
    std::printf("DIGEST %016llx\n",
                static_cast<unsigned long long>(total.h));
    return 0;
}
