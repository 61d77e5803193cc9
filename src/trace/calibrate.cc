/**
 * @file
 * Mixture calibration implementation.
 */
#include "trace/calibrate.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/bisect.h"
#include "common/logging.h"

namespace ditto {

namespace {

constexpr double kRhoMax = 0.9999995;

/** Clamp a correlation into a safe open interval. */
double
clampRho(double rho)
{
    return std::clamp(rho, -0.9, kRhoMax);
}

/**
 * Damped update: moves a parameter 60% of the way to its 1-D solve.
 * The block-coordinate iteration pairs knobs with coupled outputs
 * (jumpProb with rhoT1, rhoS0 with rhoS1); damping suppresses the
 * period-2 cycling plain alternation exhibits on some target sets.
 */
double
damp(double old_value, double new_value)
{
    return old_value + 0.6 * (new_value - old_value);
}

} // namespace

MixtureParams
calibrateToTargets(const StatTargets &t)
{
    MixtureParams p;
    p.clipK = 4.0;

    // Outlier temporal correlation from the range compression ratio:
    // ratio = 1 / sqrt(2 (1 - rhoT2)).
    DITTO_ASSERT(t.rangeRatio > 0.5, "implausible range ratio target");
    p.rhoT2 = clampRho(1.0 - 1.0 / (2.0 * t.rangeRatio * t.rangeRatio));

    for (int iter = 0; iter < 150; ++iter) {
        // Near-zero spike std tracks the quantization step. The 0.6
        // factor keeps roughly 60% of the spike inside the zero code,
        // which leaves headroom for the spike's spatial correlation to
        // control the spatial-difference zeros (dead channels are flat,
        // so their spatial diffs vanish even though the channel itself
        // only partially quantizes to zero).
        p.sigma0 = 0.6 * quantScale(p);

        // beta <- activation <=4-bit fraction (coarser scale -> more
        // values land within 7 codes).
        p.beta = damp(p.beta, bisectMonotone(
            [&](double beta) {
                MixtureParams q = p;
                q.beta = beta;
                q.sigma0 = 0.6 * quantScale(q);
                return activationFractions(q).atMost4();
            },
            t.le4A, 1.05, 40.0));
        p.sigma0 = 0.6 * quantScale(p);

        // w0 <- activation zero fraction.
        p.w0 = damp(p.w0, bisectMonotone(
            [&](double w0) {
                MixtureParams q = p;
                q.w0 = w0;
                return activationFractions(q).zero;
            },
            t.zeroA, 0.0, 0.7));

        // rhoT1 <- temporal-difference zero fraction. The near-zero
        // component correlates like the bulk.
        p.rhoT1 = damp(p.rhoT1, bisectMonotone(
            [&](double rho) {
                MixtureParams q = p;
                q.rhoT1 = clampRho(rho);
                q.rhoT0 = q.rhoT1;
                return temporalDiffFractions(q).zero;
            },
            t.zeroT, 0.2, kRhoMax));
        p.rhoT0 = p.rhoT1;

        // jumpProb <- temporal-difference <=4-bit fraction: more heavy-
        // tail jumps push differences past the 4-bit boundary.
        p.jumpProb = damp(p.jumpProb, bisectMonotone(
            [&](double jp) {
                MixtureParams q = p;
                q.jumpProb = jp;
                return temporalDiffFractions(q).atMost4();
            },
            t.le4T, 0.0, 0.35));

        // w2 <- temporal cosine similarity. Both directions occur: when
        // rhoT2 < rhoT1 more outlier mass lowers the cosine, otherwise
        // it raises it; bisectMonotone detects the direction. The lower
        // bound keeps a real outlier population even when the cosine
        // target is unreachable (zeroT pins the bulk correlation above
        // the target), because the spatial balance below needs the
        // outlier variance.
        p.w2 = damp(p.w2, bisectMonotone(
            [&](double w2) {
                MixtureParams q = p;
                q.w2 = w2;
                return temporalCosine(q);
            },
            t.cosT, 0.05, 0.3));

        // rhoS0 <- spatial-difference zero fraction. The spike's
        // variance share is negligible, so this knob barely moves the
        // spatial cosine.
        p.rhoS0 = damp(p.rhoS0, bisectMonotone(
            [&](double rho) {
                MixtureParams q = p;
                q.rhoS0 = clampRho(rho);
                return spatialDiffFractions(q).zero;
            },
            t.zeroS, -0.9, kRhoMax));

        // rhoS1 <- spatial-difference <=4-bit fraction (bulk-driven).
        p.rhoS1 = damp(p.rhoS1, bisectMonotone(
            [&](double rho) {
                MixtureParams q = p;
                q.rhoS1 = clampRho(rho);
                return spatialDiffFractions(q).atMost4();
            },
            t.le4S, -0.9, kRhoMax));

        // rhoS2 <- spatial cosine similarity, closed form on the
        // variance-weighted average.
        const double v0 = p.w0 * p.sigma0 * p.sigma0;
        const double v1 = p.w1();
        const double v2 = p.w2 * p.beta * p.beta;
        const double want = t.cosS * (v0 + v1 + v2);
        p.rhoS2 = clampRho(
            (want - v0 * p.rhoS0 - v1 * p.rhoS1) / std::max(v2, 1e-12));
    }
    return p;
}

const MixtureParams &
calibratedParams(ModelId id)
{
    static std::map<ModelId, MixtureParams> cache;
    auto it = cache.find(id);
    if (it == cache.end())
        it = cache.emplace(id, calibrateToTargets(statTargets(id))).first;
    return it->second;
}

} // namespace ditto
