/**
 * @file
 * The graph runtime end to end: compile the non-MiniUnet presets (the
 * deep multi-scale UNet, the DiT-style transformer block, the
 * multi-head attention block and the adaLN-conditioned block), show
 * the dependency analysis at work, verify the accuracy invariant
 * (QuantDitto bit-exact against QuantDirect), and serve a burst of
 * requests for each through the batched DenoiseServer with a bitwise
 * check against standalone rollouts.
 *
 *   ./graph_models [--verdicts] [--approx]
 *   ./graph_models --paired N
 *
 * --verdicts prints, per preset, the per-layer dependency verdicts
 * next to what the compiler wired them into (payload hand-over,
 * junction fold, summation skip) and the rollout's diff-calc/
 * summation tallies — so a layer that stayed full-value because the
 * junction fold declined it (e.g. an Affine gate on the wire) is
 * distinguishable from one that executed the diff path and reverted
 * at run time (Defo), straight from the CI log.
 *
 * --approx additionally smokes RunMode::ApproxDitto per preset: at
 * threshold 0 the approximate mode must be bitwise identical to
 * QuantDitto (checked, fails the run), and at the default threshold
 * it prints the reuse fraction and end-to-end PSNR/cosine against the
 * exact rollout (docs/approx_reuse.md).
 *
 * --paired N measures Ditto against Direct paired and in one process,
 * on all five BM_CompiledRollout presets (8 steps at 16x16): per
 * preset, after one warm-up rollout of each mode, N pairs of
 * QuantDirect and QuantDitto rollouts of the same noise (the order
 * alternating pair by pair). It prints the median and interquartile
 * range of the per-pair Ditto/Direct time ratio (below 1: Ditto is
 * faster) and each mode's minor page faults per rollout
 * (getrusage), then exits. Separate benchmark rows cannot settle the
 * comparison on a noisy host; per-pair ratios cancel the drift both
 * modes share.
 *
 * Exits non-zero on any bitwise mismatch, so CI can run it as a
 * smoke test of the compile-and-run path.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/parallel.h"
#include "runtime/compiled.h"
#include "runtime/presets.h"
#include "serve/server.h"

using namespace ditto;

namespace {

/** Per-layer verdicts vs compiled wiring vs executed work. */
void
printVerdicts(const CompiledModel &model, const RolloutResult &ditto)
{
    const std::vector<LayerDependency> &deps = model.dependencies();
    std::printf("  %-18s %-12s %-9s %-9s %s\n", "node", "op",
                "diffCalc", "summation", "compiled wiring");
    for (const CompiledModel::NodeReport &r : model.nodeReports()) {
        if (r.op == RtOp::Input)
            continue;
        const bool hasDep =
            r.layer >= 0 && (r.compute || r.junction || !r.deadStructural);
        const LayerDependency *d =
            r.layer >= 0 ? &deps[static_cast<size_t>(r.layer)] : nullptr;
        char wiring[96] = "";
        if (r.junction)
            std::strcat(wiring, "junction-fold ");
        else if (r.diffBypass)
            std::strcat(wiring, "handed-over ");
        if (r.diffBypass2)
            std::strcat(wiring, "handed-over(op2) ");
        if (r.sumSkip)
            std::strcat(wiring, "sum-skip ");
        if (r.emitsPayload)
            std::strcat(wiring, "emits-payload ");
        if (r.deadStructural)
            std::strcat(wiring, "folded-away ");
        if (wiring[0] == '\0')
            std::strcpy(wiring, r.compute ? "full-value" : "-");
        std::printf("  %-18s %-12s %-9s %-9s %s\n", r.name.c_str(),
                    rtOpName(r.op),
                    !hasDep || !d ? "-"
                    : d->diffCalcNeeded ? "needed"
                                        : "bypass",
                    !hasDep || !d ? "-"
                    : d->summationNeeded ? "needed"
                                         : "skip",
                    wiring);
    }
    const OpCounts &ops = ditto.dittoOps;
    std::printf("  executed: diffCalcElems=%lld summationElems=%lld "
                "(zero %.1f%% / 4-bit %.1f%% / 8-bit %.1f%% -> a layer "
                "wired for diff that shows 8-bit-heavy tallies reverted "
                "via Defo at run time)\n",
                static_cast<long long>(ops.diffCalcElems),
                static_cast<long long>(ops.summationElems),
                100.0 * ops.zeroSkipped / ops.total(),
                100.0 * ops.low4 / ops.total(),
                100.0 * ops.full8 / ops.total());
}

template <typename Fn>
double
runTimedMs(Fn fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/** ApproxDitto smoke: thresh-0 bitwise check + default-policy curve. */
bool
driveApprox(CompiledModel &model)
{
    // At threshold 0 only bitwise-identical operands skip, so the
    // approximate mode must reproduce QuantDitto exactly.
    const double thresh = model.approxSkipThresh();
    const int cap = model.approxMaxConsec();
    model.setApproxPolicy(0.0, cap);
    const bool exact0 =
        model.rollout(RunMode::ApproxDitto).finalImage ==
        model.rollout(RunMode::QuantDitto).finalImage;
    model.setApproxPolicy(thresh, cap);
    RolloutResult timed;
    const double exact_ms = runTimedMs(
        [&] { timed = model.rollout(RunMode::QuantDitto); });
    const double approx_ms = runTimedMs(
        [&] { timed = model.rollout(RunMode::ApproxDitto); });
    const RolloutResult r =
        model.rolloutWithFidelity(RunMode::ApproxDitto);
    int64_t skips = 0;
    for (int64_t s : r.nodeSkips)
        skips += s;
    std::printf("  approx: thresh-0 %s | thresh %.3g cap %d: "
                "%lld block skips, %.1f ms vs %.1f ms exact (%.2fx), "
                "PSNR %.1f dB, cosine %.5f\n",
                exact0 ? "bit-exact" : "MISMATCH", thresh, cap,
                static_cast<long long>(skips), approx_ms, exact_ms,
                exact_ms / approx_ms,
                r.fidelity.exact() ? 99.0 : r.fidelity.psnrDb,
                r.fidelity.cosine);
    return exact0;
}

/** Rollouts + a served burst for one compiled model; true on parity. */
bool
driveModel(CompiledModel model, bool verdicts, bool approx)
{
    const ModelSpec &spec = model.spec();
    std::printf("== %s ==\n", spec.name.c_str());
    std::printf("  %d nodes -> %d compute layers, %lld MACs/step, "
                "%d diff-calc bypasses, %d summation skips\n",
                static_cast<int>(spec.nodes.size()),
                model.graph().numComputeLayers(),
                static_cast<long long>(model.macsPerStep()),
                model.numDiffBypassNodes(), model.numSumSkipNodes());

    RolloutResult direct, ditto;
    const double direct_ms = runTimedMs(
        [&] { direct = model.rollout(RunMode::QuantDirect); });
    const double ditto_ms = runTimedMs(
        [&] { ditto = model.rollout(RunMode::QuantDitto); });
    const bool exact = direct.finalImage == ditto.finalImage;
    std::printf("  QuantDirect %7.1f ms | QuantDitto %7.1f ms "
                "(%.2fx) | %s\n",
                direct_ms, ditto_ms, direct_ms / ditto_ms,
                exact ? "bit-exact" : "MISMATCH");
    const OpCounts &ops = ditto.dittoOps;
    std::printf("  diff multiplies: %.1f%% skipped, %.1f%% 4-bit, "
                "%.1f%% 8-bit\n",
                100.0 * ops.zeroSkipped / ops.total(),
                100.0 * ops.low4 / ops.total(),
                100.0 * ops.full8 / ops.total());
    if (verdicts)
        printVerdicts(model, ditto);
    bool approx_ok = true;
    if (approx)
        approx_ok = driveApprox(model);

    // A mixed burst through the async batched server.
    ServerConfig cfg;
    cfg.maxBatch = 4;
    cfg.workers = 1;
    DenoiseServer server(model, cfg);
    std::vector<DenoiseRequest> reqs;
    for (int i = 0; i < 8; ++i) {
        DenoiseRequest req;
        req.seed = 1000 + static_cast<uint64_t>(i);
        req.steps = model.defaultSteps() - i % 2;
        req.mode =
            i % 4 == 3 ? RunMode::QuantDirect : RunMode::QuantDitto;
        reqs.push_back(req);
    }
    std::vector<uint64_t> ids;
    for (const DenoiseRequest &req : reqs)
        ids.push_back(server.submit(req));
    size_t served_exact = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
        const DenoiseResult res = server.wait(ids[i]);
        const RolloutResult want = model.rollout(
            reqs[i].mode, model.requestNoise(reqs[i].seed),
            reqs[i].steps);
        served_exact += want.finalImage == res.image;
    }
    std::printf("  served %zu/%zu requests bitwise == standalone "
                "rollouts (avg occupancy %.2f)\n\n",
                served_exact, ids.size(),
                server.metrics().avgOccupancy());
    return exact && approx_ok && served_exact == ids.size();
}

/** Minor page faults of this process so far. */
long
minorFaults()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_minflt;
}

/** Value at quantile q of sorted `v` (linear interpolation). */
double
quantile(const std::vector<double> &v, double q)
{
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/** One row of the paired Ditto-vs-Direct table; false on mismatch. */
bool
pairedRow(const char *name, const CompiledModel &model, int pairs)
{
    const FloatTensor noise = model.requestNoise(1);
    // Warm-up: first-use growth of the workspace, state and kernel
    // scratch belongs to neither mode's steady state.
    const bool exact = model.rollout(RunMode::QuantDirect, noise).finalImage ==
                       model.rollout(RunMode::QuantDitto, noise).finalImage;
    std::vector<double> ratio, direct_ms, ditto_ms;
    long direct_faults = 0, ditto_faults = 0;
    auto timed = [&](RunMode mode, long *faults) {
        const long f0 = minorFaults();
        const double ms =
            runTimedMs([&] { (void)model.rollout(mode, noise); });
        *faults += minorFaults() - f0;
        return ms;
    };
    for (int p = 0; p < pairs; ++p) {
        double dir, dit;
        if (p % 2 == 0) {
            dir = timed(RunMode::QuantDirect, &direct_faults);
            dit = timed(RunMode::QuantDitto, &ditto_faults);
        } else {
            dit = timed(RunMode::QuantDitto, &ditto_faults);
            dir = timed(RunMode::QuantDirect, &direct_faults);
        }
        direct_ms.push_back(dir);
        ditto_ms.push_back(dit);
        ratio.push_back(dit / dir);
    }
    std::sort(ratio.begin(), ratio.end());
    std::sort(direct_ms.begin(), direct_ms.end());
    std::sort(ditto_ms.begin(), ditto_ms.end());
    std::printf("%-11s %9.2f %9.2f %10.3f %8.3f %14.1f %13.1f  %s\n",
                name, quantile(direct_ms, 0.5), quantile(ditto_ms, 0.5),
                quantile(ratio, 0.5),
                quantile(ratio, 0.75) - quantile(ratio, 0.25),
                static_cast<double>(direct_faults) / pairs,
                static_cast<double>(ditto_faults) / pairs,
                exact ? "bit-exact" : "MISMATCH");
    return exact;
}

/** --paired N: the Ditto/Direct table over the five presets. */
int
runPaired(int pairs)
{
    MiniUnetConfig mini;
    mini.channels = 32;
    mini.resolution = 16;
    mini.steps = 8;
    DeepUnetConfig unet;
    unet.baseChannels = 16;
    unet.resolution = 16;
    unet.steps = 8;
    DitBlockConfig dit;
    dit.embedDim = 32;
    dit.resolution = 16;
    dit.steps = 8;
    MhsaBlockConfig mhsa;
    mhsa.embedDim = 32;
    mhsa.heads = 2;
    mhsa.resolution = 16;
    mhsa.steps = 8;
    DitAdaLnConfig adaln;
    adaln.embedDim = 32;
    adaln.resolution = 16;
    adaln.steps = 8;
    const CompiledModel models[] = {
        compile(miniUnetSpec(mini)), compile(deepUnetSpec(unet)),
        compile(ditBlockSpec(dit)), compile(mhsaBlockSpec(mhsa)),
        compile(ditAdaLnSpec(adaln))};
    const char *names[] = {"mini_unet", "deep_unet", "dit_block",
                           "mhsa_block", "dit_adaln"};
    std::printf("paired Ditto/Direct: %d pairs per preset, %d thread%s\n",
                pairs, threadCount(), threadCount() == 1 ? "" : "s");
    std::printf("%-11s %9s %9s %10s %8s %14s %13s\n", "preset",
                "direct_ms", "ditto_ms", "ratio_p50", "ratio_iqr",
                "direct_faults", "ditto_faults");
    bool ok = true;
    for (int i = 0; i < 5; ++i)
        ok &= pairedRow(names[i], models[i], pairs);
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    bool verdicts = false;
    bool approx = false;
    for (int i = 1; i < argc; ++i) {
        verdicts |= std::strcmp(argv[i], "--verdicts") == 0;
        approx |= std::strcmp(argv[i], "--approx") == 0;
        if (std::strcmp(argv[i], "--paired") == 0) {
            const int pairs = i + 1 < argc ? std::atoi(argv[i + 1]) : 0;
            if (pairs < 1) {
                std::fprintf(stderr, "--paired needs a pair count >= 1\n");
                return 2;
            }
            return runPaired(pairs);
        }
    }
    bool ok = true;

    DeepUnetConfig unet;
    unet.baseChannels = 16;
    unet.resolution = 16;
    unet.steps = 8;
    ok &= driveModel(compile(deepUnetSpec(unet)), verdicts, approx);

    DitBlockConfig dit;
    dit.embedDim = 32;
    dit.resolution = 16;
    dit.steps = 8;
    ok &= driveModel(compile(ditBlockSpec(dit)), verdicts, approx);

    MhsaBlockConfig mhsa;
    mhsa.embedDim = 32;
    mhsa.heads = 2;
    mhsa.resolution = 16;
    mhsa.steps = 8;
    ok &= driveModel(compile(mhsaBlockSpec(mhsa)), verdicts, approx);

    DitAdaLnConfig adaln;
    adaln.embedDim = 32;
    adaln.resolution = 16;
    adaln.steps = 8;
    ok &= driveModel(compile(ditAdaLnSpec(adaln)), verdicts, approx);

    std::printf("%s\n", ok ? "all graph models bit-exact"
                           : "MISMATCH detected");
    return ok ? 0 : 1;
}
