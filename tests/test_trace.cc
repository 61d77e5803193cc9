/**
 * @file
 * Tests for src/trace: the analytic mixture statistics, their Monte
 * Carlo validation, the calibration fits and the per-layer provider.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "model/zoo.h"
#include "quant/bitwidth.h"
#include "quant/quantizer.h"
#include "stats/similarity.h"
#include "trace/calibrate.h"
#include "trace/mixture.h"
#include "trace/provider.h"
#include "trace/sampler.h"
#include "trace/targets.h"

namespace ditto {
namespace {

TEST(Mixture, FractionsSumToOne)
{
    MixtureParams p;
    for (const BitFractions &f :
         {activationFractions(p), temporalDiffFractions(p),
          spatialDiffFractions(p)}) {
        EXPECT_NEAR(f.zero + f.low4 + f.full8, 1.0, 1e-9);
        EXPECT_GE(f.zero, 0.0);
        EXPECT_GE(f.low4, 0.0);
        EXPECT_GE(f.full8, 0.0);
    }
}

TEST(Mixture, HigherTemporalCorrelationMoreZeroDiffs)
{
    MixtureParams lo;
    lo.rhoT0 = lo.rhoT1 = lo.rhoT2 = 0.9;
    MixtureParams hi;
    hi.rhoT0 = hi.rhoT1 = hi.rhoT2 = 0.999;
    EXPECT_GT(temporalDiffFractions(hi).zero,
              temporalDiffFractions(lo).zero);
}

TEST(Mixture, RangeRatioClosedForm)
{
    MixtureParams p;
    p.rhoT2 = 1.0 - 1.0 / (2.0 * 10.0 * 10.0);
    // With the outlier component dominating both ranges, the ratio is
    // 1/sqrt(2(1-rho2)) = 10.
    p.rhoT0 = p.rhoT1 = p.rhoT2;
    EXPECT_NEAR(rangeRatio(p), 10.0, 1e-6);
}

TEST(Mixture, ZeroProbQuantDiffLimits)
{
    const double s = 0.1;
    EXPECT_NEAR(zeroProbQuantDiff(1e-15, s), 1.0, 1e-9);
    EXPECT_LT(zeroProbQuantDiff(10.0 * s, s), 0.05);
    // Monotone in sigma_d.
    EXPECT_GT(zeroProbQuantDiff(0.5 * s, s),
              zeroProbQuantDiff(2.0 * s, s));
}

TEST(Mixture, JumpsAddFullBitWidthTail)
{
    MixtureParams p;
    p.rhoT0 = p.rhoT1 = 0.995;
    p.rhoT2 = 0.999;
    const BitFractions base = temporalDiffFractions(p);
    p.jumpProb = 0.2;
    const BitFractions jumped = temporalDiffFractions(p);
    EXPECT_GT(jumped.full8, base.full8);
    EXPECT_LT(jumped.zero, base.zero + 1e-12);
}

TEST(Mixture, CosineIsVarianceWeightedCorrelation)
{
    MixtureParams p;
    p.w0 = 0.0;
    p.w2 = 0.5;
    p.beta = 1.0; // both components unit variance
    p.rhoT0 = p.rhoT1 = 0.9;
    p.rhoT2 = 0.5;
    EXPECT_NEAR(temporalCosine(p), 0.7, 1e-9);
}

// ---- Monte Carlo validation of the analytic model ---------------------

class MixtureMonteCarlo : public ::testing::TestWithParam<ModelId>
{};

TEST_P(MixtureMonteCarlo, SampledStatsMatchAnalytic)
{
    const MixtureParams &p = calibratedParams(GetParam());
    MixtureSampler sampler(p, 99);
    const int64_t elems = 1 << 17;
    const auto seq = sampler.sampleSequence(elems, 4);

    // Temporal cosine similarity.
    double cos_t = 0.0;
    for (int t = 1; t < 4; ++t)
        cos_t += cosineSimilarity(seq[t - 1], seq[t]) / 3.0;
    // Heavy-tail jumps decorrelate the sampled process slightly below
    // the analytic (jump-free) cosine, so the band is one-sided wide.
    EXPECT_NEAR(cos_t, temporalCosine(p), 0.045)
        << "temporal cosine mismatch for " << modelAbbr(GetParam());

    // Quantized temporal-difference bit classes: quantize with the
    // analytic scale (dynamic max-abs differs slightly because the
    // sampled max is a random extreme).
    QuantParams qp;
    qp.scale = static_cast<float>(quantScale(p));
    const Int8Tensor q0 = quantize(seq[2], qp);
    const Int8Tensor q1 = quantize(seq[3], qp);
    const BitClassHistogram h = classifyTemporalDiff(q1, q0);
    const BitFractions f = temporalDiffFractions(p);
    EXPECT_NEAR(h.zeroFrac, f.zero, 0.05);
    EXPECT_NEAR(h.zeroFrac + h.low4Frac, f.atMost4(), 0.05);

    // Quantized activation bit classes.
    const BitClassHistogram ha = classifyTensor(q1);
    const BitFractions fa = activationFractions(p);
    EXPECT_NEAR(ha.zeroFrac, fa.zero, 0.05);
    EXPECT_NEAR(ha.zeroFrac + ha.low4Frac, fa.atMost4(), 0.06);

    // Quantized spatial-difference bit classes. The sampler restarts
    // its spatial chain at component-block boundaries, which the
    // analytic model ignores: the band is wider.
    const BitClassHistogram hs = classifySpatialDiff(q1);
    const BitFractions fs = spatialDiffFractions(p);
    EXPECT_NEAR(hs.zeroFrac, fs.zero, 0.11);
    EXPECT_NEAR(hs.zeroFrac + hs.low4Frac, fs.atMost4(), 0.11);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, MixtureMonteCarlo, ::testing::ValuesIn(allModels()),
    [](const ::testing::TestParamInfo<ModelId> &info) {
        return modelAbbr(info.param);
    });

// ---- Calibration fits --------------------------------------------------

class CalibrationFit : public ::testing::TestWithParam<ModelId>
{};

TEST_P(CalibrationFit, FittedStatsNearTargets)
{
    const StatTargets &t = statTargets(GetParam());
    const MixtureParams &p = calibratedParams(GetParam());
    EXPECT_NEAR(temporalCosine(p), t.cosT, 0.012);
    EXPECT_NEAR(rangeRatio(p), t.rangeRatio, 0.05 * t.rangeRatio);
    EXPECT_NEAR(temporalDiffFractions(p).zero, t.zeroT, 0.05);
    EXPECT_NEAR(temporalDiffFractions(p).atMost4(), t.le4T, 0.035);
    EXPECT_NEAR(activationFractions(p).zero, t.zeroA, 0.03);
    EXPECT_NEAR(activationFractions(p).atMost4(), t.le4A, 0.05);
    EXPECT_NEAR(spatialDiffFractions(p).zero, t.zeroS, 0.06);
    EXPECT_NEAR(spatialDiffFractions(p).atMost4(), t.le4S, 0.06);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, CalibrationFit, ::testing::ValuesIn(allModels()),
    [](const ::testing::TestParamInfo<ModelId> &info) {
        return modelAbbr(info.param);
    });

TEST(Calibration, SevenModelAveragesMatchPaperHeadlines)
{
    double cos_t = 0.0;
    double zero_t = 0.0;
    double le4_t = 0.0;
    double ratio = 0.0;
    for (ModelId id : allModels()) {
        const MixtureParams &p = calibratedParams(id);
        cos_t += temporalCosine(p) / 7.0;
        zero_t += temporalDiffFractions(p).zero / 7.0;
        le4_t += temporalDiffFractions(p).atMost4() / 7.0;
        ratio += rangeRatio(p) / 7.0;
    }
    EXPECT_NEAR(cos_t, 0.983, 0.01);   // Sec. II-B
    EXPECT_NEAR(zero_t, 0.4448, 0.03); // Sec. III-B
    EXPECT_NEAR(le4_t, 0.9601, 0.02);  // Sec. III-B
    EXPECT_NEAR(ratio, 8.96, 0.45);    // Sec. III-A
}

// ---- Sampler structure -------------------------------------------------

TEST(Sampler, DeterministicPerSeed)
{
    const MixtureParams &p = calibratedParams(ModelId::SDM);
    MixtureSampler a(p, 5);
    MixtureSampler b(p, 5);
    const auto sa = a.sampleSequence(1024, 2);
    const auto sb = b.sampleSequence(1024, 2);
    EXPECT_TRUE(sa[1] == sb[1]);
}

TEST(Sampler, AmplitudeScalesValues)
{
    const MixtureParams &p = calibratedParams(ModelId::SDM);
    MixtureSampler a(p, 6);
    MixtureSampler b(p, 6);
    const auto s1 = a.sampleSequence(1024, 1, 1.0);
    const auto s2 = b.sampleSequence(1024, 1, 3.0);
    for (int64_t i = 0; i < 1024; ++i)
        EXPECT_NEAR(s2[0].at(i), 3.0f * s1[0].at(i), 1e-4f);
}

TEST(Sampler, SpatialCorrelationPresent)
{
    const MixtureParams &p = calibratedParams(ModelId::Latte);
    MixtureSampler s(p, 7);
    const auto seq = s.sampleSequence(1 << 16, 1);
    EXPECT_NEAR(spatialSimilarity(seq[0]), spatialCosine(p), 0.05);
}

// ---- Provider ----------------------------------------------------------

TEST(Provider, StatsVaryAcrossLayersAndSteps)
{
    const ModelGraph g = buildModel(ModelId::SDM);
    const TraceProvider trace(ModelId::SDM, g);
    const int conv_in = g.findLayer("conv-in");
    const int skip = g.findLayer("up.0.0.skip");
    ASSERT_GE(conv_in, 0);
    ASSERT_GE(skip, 0);
    const LayerStepStats &a = trace.stats(conv_in, 5);
    const LayerStepStats &b = trace.stats(skip, 5);
    EXPECT_NE(a.temp.zero, b.temp.zero);
    // Wider layers carry larger value ranges (Fig. 4a).
    EXPECT_LT(a.actRange, b.actRange);
}

TEST(Provider, FinalStepsLessSimilar)
{
    const ModelGraph g = buildModel(ModelId::DDPM);
    const TraceProvider trace(ModelId::DDPM, g);
    const int layer = g.findLayer("conv-in");
    ASSERT_GE(layer, 0);
    // Average early vs late zero fractions: denoising intensifies at
    // the end of the reverse process, shrinking similarity.
    double early = 0.0;
    double late = 0.0;
    for (int t = 0; t < 10; ++t)
        early += trace.stats(layer, t).temp.zero / 10.0;
    for (int t = trace.steps() - 10; t < trace.steps(); ++t)
        late += trace.stats(layer, t).temp.zero / 10.0;
    EXPECT_GT(early, late);
}

TEST(Provider, StepCountFollowsSampler)
{
    const ModelGraph g = buildModel(ModelId::SDM);
    const TraceProvider trace(ModelId::SDM, g);
    EXPECT_EQ(trace.steps(), 51); // PLMS 50 + 1 extra step
}

TEST(Provider, DriftModeChangesStatistics)
{
    const ModelGraph g = buildModel(ModelId::BED);
    const TraceProvider stationary(ModelId::BED, g);
    TraceOptions opts;
    opts.driftSimilarity = true;
    const TraceProvider drifted(ModelId::BED, g, opts);
    const int layer = g.findLayer("conv-in");
    ASSERT_GE(layer, 0);
    double max_delta = 0.0;
    for (int t = 0; t < stationary.steps(); ++t) {
        max_delta = std::max(
            max_delta, std::fabs(stationary.stats(layer, t).temp.zero -
                                 drifted.stats(layer, t).temp.zero));
    }
    EXPECT_GT(max_delta, 0.05);
}

TEST(Provider, DeterministicAcrossInstances)
{
    const ModelGraph g = buildModel(ModelId::CHUR);
    const TraceProvider a(ModelId::CHUR, g);
    const TraceProvider b(ModelId::CHUR, g);
    const LayerStepStats &sa = a.stats(20, 3);
    const LayerStepStats &sb = b.stats(20, 3);
    EXPECT_DOUBLE_EQ(sa.temp.zero, sb.temp.zero);
    EXPECT_DOUBLE_EQ(sa.actRange, sb.actRange);
}

TEST(Provider, LayerAmplitudesReproduceNamedLayerContrast)
{
    // Paper Fig. 4a: SDM's conv-in has a far smaller range than
    // up.0.0.skip.
    const ModelGraph g = buildModel(ModelId::SDM);
    const TraceProvider trace(ModelId::SDM, g);
    const double a = trace.layerAmplitude(g.findLayer("conv-in"));
    const double b = trace.layerAmplitude(g.findLayer("up.0.0.skip"));
    EXPECT_LT(a * 2.0, b);
}

} // namespace
} // namespace ditto
