/**
 * @file
 * Quickstart: the Ditto algorithm on a small functional denoising model.
 *
 * Runs the same multi-step reverse diffusion three ways — FP32,
 * quantized (A8W8), and quantized with Ditto temporal-difference
 * processing — and shows the three properties everything else builds
 * on:
 *
 *  1. Ditto execution is bit-exact against direct quantized execution
 *     (the distributive property in the integer domain),
 *  2. most of the difference multiplies are skippable or narrow, and
 *  3. the software sparse diff-GEMM path turns that skippability into
 *     measured wall-clock speedup over direct quantized execution
 *     (the software mirror of the paper's hardware claim).
 */
#include <chrono>
#include <cstdio>

#include "runtime/compiled.h"
#include "runtime/presets.h"
#include "stats/similarity.h"

namespace {

template <typename Fn>
double
runTimedMs(Fn fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

} // namespace

int
main()
{
    using namespace ditto;

    // Large enough that the linear layers dominate the step cost (the
    // regime the paper's speedup claim is about); compile() calibrates
    // the activation scales with one FP32 rollout.
    MiniUnetConfig cfg;
    cfg.channels = 32;
    cfg.resolution = 16;
    cfg.steps = 12;
    std::printf("MiniUnet: %lld channels, %lldx%lld, %d denoising steps\n",
                static_cast<long long>(cfg.channels),
                static_cast<long long>(cfg.resolution),
                static_cast<long long>(cfg.resolution), cfg.steps);

    const CompiledModel net = compile(miniUnetSpec(cfg));
    RolloutResult fp32, quant, ditto;
    const double fp32_ms = runTimedMs([&] {
        fp32 = net.rollout(RunMode::Fp32);
    });
    const double quant_ms = runTimedMs([&] {
        quant = net.rollout(RunMode::QuantDirect);
    });
    const double ditto_ms = runTimedMs([&] {
        ditto = net.rollout(RunMode::QuantDitto);
    });

    std::printf("\n-- correctness --\n");
    std::printf("Ditto vs quantized direct : %s\n",
                quant.finalImage == ditto.finalImage
                    ? "bit-exact (identical images)"
                    : "MISMATCH");
    std::printf("SQNR quantized vs FP32    : %.2f dB\n",
                sqnrDb(fp32.finalImage, quant.finalImage));
    std::printf("SQNR Ditto vs FP32        : %.2f dB\n",
                sqnrDb(fp32.finalImage, ditto.finalImage));

    std::printf("\n-- work performed by the Ditto steps --\n");
    const OpCounts &ops = ditto.dittoOps;
    const double total = static_cast<double>(ops.total());
    std::printf("multiplies skipped (zero diff): %lld (%.1f%%)\n",
                static_cast<long long>(ops.zeroSkipped),
                100.0 * ops.zeroSkipped / total);
    std::printf("multiplies on the 4-bit lane  : %lld (%.1f%%)\n",
                static_cast<long long>(ops.low4),
                100.0 * ops.low4 / total);
    std::printf("multiplies on the 8-bit path  : %lld (%.1f%%)\n",
                static_cast<long long>(ops.full8),
                100.0 * ops.full8 / total);
    const double act_bops =
        static_cast<double>(fp32.totalMacsPerStep) * 64.0 *
        (cfg.steps - 1);
    std::printf("relative BOPs vs act processing: %.3f\n",
                static_cast<double>(ops.bops()) / act_bops);

    std::printf("\n-- measured wall-clock (this machine) --\n");
    std::printf("FP32 rollout        : %8.1f ms\n", fp32_ms);
    std::printf("QuantDirect rollout : %8.1f ms\n", quant_ms);
    std::printf("QuantDitto rollout  : %8.1f ms\n", ditto_ms);
    std::printf("Ditto vs direct     : %.2fx %s\n", quant_ms / ditto_ms,
                ditto_ms < quant_ms ? "(faster)" : "(slower)");
    std::printf(
        "\nThe sparse diff-GEMM path (docs/diff_exec.md) skips the zero\n"
        "differences and runs 4-bit values on a packed nibble lane —\n"
        "the software mirror of the Ditto Encoding Unit and 4-bit\n"
        "adder-tree PEs (see accelerator_comparison). Layers whose\n"
        "difference stream is too dense revert to direct execution,\n"
        "exactly as the paper's Defo controller does.\n");
    return 0;
}
