/**
 * @file
 * Experiment driver implementations.
 */
#include "sim/experiments.h"

#include <cmath>

#include "common/logging.h"
#include "core/bops.h"
#include "hw/cost_model.h"
#include "hw/energy.h"
#include "hw/gpu_model.h"
#include "model/graph.h"
#include "runtime/compiled.h"
#include "runtime/presets.h"
#include "stats/similarity.h"
#include "trace/provider.h"

namespace ditto {

namespace {

/** Average trace statistics over compute layers and steps. */
struct ModelAverages
{
    double cosT = 0.0, cosS = 0.0;
    double actRange = 0.0, diffRange = 0.0;
    BitFractions act, spat, temp;
};

/**
 * Element-weighted averages for the analysis figures: the paper
 * measures "all data elements in diffusion models", so wide layers
 * count proportionally more.
 */
ModelAverages
averageStats(ModelId id, const ModelGraph &graph,
             const TraceProvider &trace)
{
    ModelAverages avg;
    double weight_sum = 0.0;
    double range_count = 0.0;
    for (const Layer &l : graph.layers()) {
        if (!l.isCompute())
            continue;
        const double w =
            static_cast<double>(l.inputElems + l.inputElems2);
        for (int t = 0; t < trace.steps(); ++t) {
            const LayerStepStats &st = trace.stats(l.id, t);
            avg.cosT += w * st.cosT;
            avg.cosS += w * st.cosS;
            avg.act.zero += w * st.act.zero;
            avg.act.low4 += w * st.act.low4;
            avg.act.full8 += w * st.act.full8;
            avg.spat.zero += w * st.spat.zero;
            avg.spat.low4 += w * st.spat.low4;
            avg.spat.full8 += w * st.spat.full8;
            avg.temp.zero += w * st.temp.zero;
            avg.temp.low4 += w * st.temp.low4;
            avg.temp.full8 += w * st.temp.full8;
            weight_sum += w;
            // Value ranges average per layer like the Fig. 4b bars
            // (unweighted over layers and steps).
            avg.actRange += st.actRange;
            avg.diffRange += st.diffRange;
            range_count += 1.0;
        }
    }
    DITTO_ASSERT(weight_sum > 0.0, "no compute layers in " << graph.name());
    const double inv = 1.0 / weight_sum;
    avg.cosT *= inv;
    avg.cosS *= inv;
    avg.act.zero *= inv;
    avg.act.low4 *= inv;
    avg.act.full8 *= inv;
    avg.spat.zero *= inv;
    avg.spat.low4 *= inv;
    avg.spat.full8 *= inv;
    avg.temp.zero *= inv;
    avg.temp.low4 *= inv;
    avg.temp.full8 *= inv;
    avg.actRange /= range_count;
    avg.diffRange /= range_count;
    (void)id;
    return avg;
}

/** Relative BOPs of one model in one mode (diff steps, steady state). */
double
relativeBops(const ModelGraph &graph, const TraceProvider &trace,
             ExecMode mode)
{
    double act_bops = 0.0;
    double mode_bops = 0.0;
    for (const Layer &l : graph.layers()) {
        if (!l.isCompute())
            continue;
        for (int t = 1; t < trace.steps(); ++t) {
            const LayerStepStats &st = trace.stats(l.id, t);
            act_bops += layerBops(l, ExecMode::Act, st.temp);
            const BitFractions &f =
                mode == ExecMode::SpatialDiff ? st.spat : st.temp;
            mode_bops += layerBops(l, mode, f);
        }
    }
    return mode_bops / act_bops;
}

} // namespace

std::vector<ModelZooRow>
runTable1()
{
    std::vector<ModelZooRow> rows;
    for (ModelId id : allModels()) {
        const ModelInfo &spec = modelInfo(id);
        const ModelGraph graph = buildModel(id);
        ModelZooRow r;
        r.abbr = spec.abbr;
        r.model = spec.model;
        r.dataset = spec.dataset;
        r.sampler = spec.sampler.name + " " +
                    std::to_string(spec.sampler.steps) + " step";
        r.steps = spec.sampler.totalSteps();
        r.layers = graph.numComputeLayers();
        r.gmacsPerStep =
            static_cast<double>(graph.totalMacs()) / 1.0e9;
        r.weightsMB =
            static_cast<double>(graph.totalWeightElems()) / 1.0e6;
        rows.push_back(std::move(r));
    }
    return rows;
}

std::vector<SimilarityRow>
runFig3Similarity()
{
    std::vector<SimilarityRow> rows;
    for (ModelId id : allModels()) {
        const ModelGraph graph = buildModel(id);
        const TraceProvider trace(id, graph);
        const ModelAverages avg = averageStats(id, graph, trace);
        rows.push_back({modelAbbr(id), avg.cosT, avg.cosS});
    }
    return rows;
}

std::vector<ValueRangeRow>
runFig4ValueRange()
{
    std::vector<ValueRangeRow> rows;
    for (ModelId id : allModels()) {
        const ModelGraph graph = buildModel(id);
        const TraceProvider trace(id, graph);
        const ModelAverages avg = averageStats(id, graph, trace);
        rows.push_back({modelAbbr(id), avg.actRange, avg.diffRange,
                        avg.actRange / avg.diffRange});
    }
    return rows;
}

std::vector<LayerRangeSeries>
runFig4LayerDetail()
{
    const ModelGraph graph = buildModel(ModelId::SDM);
    const TraceProvider trace(ModelId::SDM, graph);
    std::vector<LayerRangeSeries> out;
    for (const char *name : {"conv-in", "up.0.0.skip"}) {
        const int id = graph.findLayer(name);
        DITTO_ASSERT(id >= 0, "SDM layer not found: " << name);
        LayerRangeSeries s;
        s.layer = name;
        for (int t = 0; t < trace.steps(); ++t) {
            const LayerStepStats &st = trace.stats(id, t);
            s.actRange.push_back(st.actRange);
            s.diffRange.push_back(st.diffRange);
        }
        out.push_back(std::move(s));
    }
    return out;
}

std::vector<BitwidthRow>
runFig5Bitwidth()
{
    std::vector<BitwidthRow> rows;
    for (ModelId id : allModels()) {
        const ModelGraph graph = buildModel(id);
        const TraceProvider trace(id, graph);
        const ModelAverages avg = averageStats(id, graph, trace);
        rows.push_back({modelAbbr(id), avg.act, avg.spat, avg.temp});
    }
    return rows;
}

std::vector<BopsRow>
runFig6Bops()
{
    std::vector<BopsRow> rows;
    for (ModelId id : allModels()) {
        const ModelGraph graph = buildModel(id);
        const TraceProvider trace(id, graph);
        BopsRow r;
        r.model = modelAbbr(id);
        r.spatial = relativeBops(graph, trace, ExecMode::SpatialDiff);
        r.temporal = relativeBops(graph, trace, ExecMode::TemporalDiff);
        rows.push_back(std::move(r));
    }
    return rows;
}

std::vector<BopsSeries>
runFig6StepDetail()
{
    const ModelGraph graph = buildModel(ModelId::SDM);
    const TraceProvider trace(ModelId::SDM, graph);
    std::vector<BopsSeries> out;
    for (const char *name : {"conv-in", "up.0.0.skip"}) {
        const int id = graph.findLayer(name);
        DITTO_ASSERT(id >= 0, "SDM layer not found: " << name);
        const Layer &l = graph.layer(id);
        BopsSeries s;
        s.layer = name;
        for (int t = 1; t < trace.steps(); ++t) {
            const LayerStepStats &st = trace.stats(id, t);
            s.relativeBops.push_back(
                layerBops(l, ExecMode::TemporalDiff, st.temp) /
                layerBops(l, ExecMode::Act, st.temp));
        }
        out.push_back(std::move(s));
    }
    return out;
}

std::vector<MemAccessRow>
runFig8MemAccess()
{
    std::vector<MemAccessRow> rows;
    for (ModelId id : allModels()) {
        const ModelGraph graph = buildModel(id);
        double naive = 0.0;
        double act = 0.0;
        for (const Layer &l : graph.layers()) {
            if (!l.isCompute())
                continue;
            naive += naiveDiffBytes(l);
            act += actBytes(l);
        }
        rows.push_back({modelAbbr(id), naive / act});
    }
    return rows;
}

AccuracyProxy
runTable2Accuracy()
{
    AccuracyProxy proxy;
    const CompiledModel net = compile(miniUnetSpec(MiniUnetConfig()));
    const RolloutResult fp = net.rollout(RunMode::Fp32);
    const RolloutResult qd = net.rollout(RunMode::QuantDirect);
    const RolloutResult dt = net.rollout(RunMode::QuantDitto);
    proxy.bitExact = qd.finalImage == dt.finalImage;
    proxy.sqnrQuantDb = sqnrDb(fp.finalImage, qd.finalImage);
    proxy.sqnrDittoDb = sqnrDb(fp.finalImage, dt.finalImage);
    // Paper Table II, recorded for side-by-side reporting.
    proxy.paperRows = {
        {"DDPM", "FID / IS", "4.143 / 9.084", "4.406 / 9.288"},
        {"BED", "FID / IS", "2.962 / 2.227", "5.897 / 2.338"},
        {"CHUR", "FID / IS", "4.100 / 2.715", "3.743 / 2.714"},
        {"IMG", "FID / IS", "14.332 / 368.302", "14.156 / 358.580"},
        {"SDM", "FID / IS / CS", "20.547 / 37.345 / 0.310",
         "18.834 / 38.135 / 0.309"},
        {"DiT", "FID / IS", "18.659 / 482.372", "17.178 / 475.694"},
        {"Latte", "IS", "70.589", "71.254"},
    };
    return proxy;
}

std::vector<HwConfigRow>
runTable3HwConfig()
{
    std::vector<HwConfigRow> rows;
    for (HwDesign d : allDesigns()) {
        const HwConfig c = makeConfig(d);
        HwConfigRow r;
        r.hardware = c.name;
        r.pes = c.peDescription;
        r.lanes = c.lanes4 + c.lanes8;
        r.powerW = c.powerW;
        r.sramMB = c.sramMB;
        r.areaMm2 = c.areaMm2;
        r.estCoreAreaMm2 =
            estimateCoreAreaMm2(c.lanes4, c.lanes8, c.lanes4 > 0);
        rows.push_back(std::move(r));
    }
    return rows;
}

std::vector<ComparisonRow>
runFig13Comparison()
{
    std::vector<ComparisonRow> rows;
    for (ModelId id : allModels()) {
        const ModelGraph graph = buildModel(id);
        const TraceProvider trace(id, graph);
        const RunResult itc =
            simulate(makeConfig(HwDesign::ITC), graph, trace);
        for (HwDesign d : allDesigns()) {
            const RunResult run =
                d == HwDesign::ITC
                    ? itc : simulate(makeConfig(d), graph, trace);
            ComparisonRow r;
            r.model = modelAbbr(id);
            r.hardware = designName(d);
            r.speedup = itc.totalCycles / run.totalCycles;
            r.relativeEnergy =
                run.energy.total() / itc.energy.total();
            r.relativeMemAccess = run.dramBytes / itc.dramBytes;
            r.energy = run.energy;
            r.run = run;
            rows.push_back(std::move(r));
        }
    }
    return rows;
}

std::vector<GpuRow>
runFig13Gpu()
{
    std::vector<GpuRow> rows;
    for (ModelId id : allModels()) {
        const ModelGraph graph = buildModel(id);
        const TraceProvider trace(id, graph);
        const RunResult itc =
            simulate(makeConfig(HwDesign::ITC), graph, trace);
        const GpuResult gpu =
            simulateGpu(graph, modelInfo(id).sampler.totalSteps());
        rows.push_back({modelAbbr(id), itc.timeMs / gpu.timeMs,
                        gpu.energyJ / itc.totalEnergyJ()});
    }
    return rows;
}

const std::vector<std::string> &
fig15Variants()
{
    static const std::vector<std::string> kVariants = {
        "Org. Cam-D",
        "Org. Cam-D & Attn. Diff.",
        "Org. Cam-D & Attn. Diff. & Defo",
        "Org. Cam-D & Attn. Diff. & Defo+",
        "Ditto",
        "Ditto & Sign-mask",
        "Ditto+",
        "Ditto+ & Sign-mask",
    };
    return kVariants;
}

std::vector<TechniqueRow>
runFig15Techniques()
{
    auto make_variant = [](const std::string &v) {
        if (v == "Org. Cam-D") {
            HwConfig c = makeConfig(HwDesign::CambriconD);
            c.attnDiff = false;
            c.name = v;
            return c;
        }
        if (v == "Org. Cam-D & Attn. Diff.") {
            HwConfig c = makeConfig(HwDesign::CambriconD);
            c.name = v;
            return c;
        }
        if (v == "Org. Cam-D & Attn. Diff. & Defo") {
            HwConfig c = makeConfig(HwDesign::CambriconD);
            c.policy = FlowPolicy::Defo;
            c.name = v;
            return c;
        }
        if (v == "Org. Cam-D & Attn. Diff. & Defo+") {
            HwConfig c = makeConfig(HwDesign::CambriconD);
            c.policy = FlowPolicy::DefoPlus;
            c.spatialMode = true;
            c.name = v;
            return c;
        }
        if (v == "Ditto")
            return makeConfig(HwDesign::Ditto);
        if (v == "Ditto & Sign-mask") {
            HwConfig c = makeConfig(HwDesign::Ditto);
            c.signMask = true;
            c.name = v;
            return c;
        }
        if (v == "Ditto+")
            return makeConfig(HwDesign::DittoPlus);
        if (v == "Ditto+ & Sign-mask") {
            HwConfig c = makeConfig(HwDesign::DittoPlus);
            c.signMask = true;
            c.name = v;
            return c;
        }
        DITTO_FATAL("unknown Fig. 15 variant '" << v << "'");
    };

    std::vector<TechniqueRow> rows;
    for (ModelId id : allModels()) {
        const ModelGraph graph = buildModel(id);
        const TraceProvider trace(id, graph);
        double base_cycles = 0.0;
        for (const std::string &v : fig15Variants()) {
            const RunResult run =
                simulate(make_variant(v), graph, trace);
            if (v == "Org. Cam-D")
                base_cycles = run.totalCycles;
            rows.push_back(
                {modelAbbr(id), v, base_cycles / run.totalCycles});
        }
    }
    return rows;
}

const std::vector<std::string> &
fig16Variants()
{
    static const std::vector<std::string> kVariants = {
        "DB", "DS", "DB&DS", "DB&DS&Attn", "Ditto", "Ditto+",
    };
    return kVariants;
}

std::vector<AblationRow>
runFig16Ablation()
{
    std::vector<AblationRow> rows;
    for (ModelId id : allModels()) {
        const ModelGraph graph = buildModel(id);
        const TraceProvider trace(id, graph);
        const RunResult itc =
            simulate(makeConfig(HwDesign::ITC), graph, trace);
        for (const std::string &v : fig16Variants()) {
            const RunResult run =
                simulate(makeAblationConfig(v), graph, trace);
            AblationRow r;
            r.model = modelAbbr(id);
            r.variant = v;
            r.computeCycles =
                (run.computeCycles + run.vectorCycles) /
                itc.totalCycles;
            r.stallCycles = run.memStallCycles / itc.totalCycles;
            rows.push_back(std::move(r));
        }
    }
    return rows;
}

std::vector<DefoRow>
runFig17Defo()
{
    std::vector<DefoRow> rows;
    for (ModelId id : allModels()) {
        const ModelGraph graph = buildModel(id);
        const TraceProvider trace(id, graph);
        for (HwDesign d : {HwDesign::Ditto, HwDesign::DittoPlus}) {
            const RunResult run = simulate(makeConfig(d), graph, trace);
            DefoRow r;
            r.model = modelAbbr(id);
            r.variant = d == HwDesign::Ditto ? "Defo" : "Defo+";
            r.changedFrac = run.computeLayers > 0
                ? static_cast<double>(run.revertedLayers) /
                      run.computeLayers
                : 0.0;
            r.accuracy = run.defoAccuracy;
            rows.push_back(std::move(r));
        }
    }
    return rows;
}

std::vector<IdealRow>
runFig18Ideal()
{
    std::vector<IdealRow> rows;
    for (ModelId id : allModels()) {
        const ModelGraph graph = buildModel(id);
        const TraceProvider trace(id, graph);
        const RunResult itc =
            simulate(makeConfig(HwDesign::ITC), graph, trace);
        HwConfig ideal = makeConfig(HwDesign::Ditto);
        ideal.policy = FlowPolicy::Ideal;
        ideal.name = "Ideal-Ditto";
        HwConfig ideal_plus = makeConfig(HwDesign::DittoPlus);
        ideal_plus.policy = FlowPolicy::IdealPlus;
        ideal_plus.name = "Ideal-Ditto+";
        IdealRow r;
        r.model = modelAbbr(id);
        r.ditto = itc.totalCycles /
                  simulate(makeConfig(HwDesign::Ditto), graph, trace)
                      .totalCycles;
        r.idealDitto =
            itc.totalCycles / simulate(ideal, graph, trace).totalCycles;
        r.dittoPlus =
            itc.totalCycles /
            simulate(makeConfig(HwDesign::DittoPlus), graph, trace)
                .totalCycles;
        r.idealDittoPlus =
            itc.totalCycles /
            simulate(ideal_plus, graph, trace).totalCycles;
        rows.push_back(std::move(r));
    }
    return rows;
}

std::vector<DynamicRow>
runFig19Dynamic()
{
    std::vector<DynamicRow> rows;
    for (ModelId id : allModels()) {
        const ModelGraph graph = buildModel(id);
        TraceOptions opts;
        opts.driftSimilarity = true;
        const TraceProvider trace(id, graph, opts);
        const RunResult itc =
            simulate(makeConfig(HwDesign::ITC), graph, trace);
        const RunResult ditto =
            simulate(makeConfig(HwDesign::Ditto), graph, trace);
        HwConfig dyn = makeConfig(HwDesign::Ditto);
        dyn.policy = FlowPolicy::DynamicDefo;
        dyn.name = "Dynamic-Ditto";
        const RunResult dynamic = simulate(dyn, graph, trace);
        HwConfig ideal = makeConfig(HwDesign::Ditto);
        ideal.policy = FlowPolicy::Ideal;
        ideal.name = "Ideal-Ditto";
        const RunResult oracle = simulate(ideal, graph, trace);
        DynamicRow r;
        r.model = modelAbbr(id);
        r.ditto = itc.totalCycles / ditto.totalCycles;
        r.dynamicDitto = itc.totalCycles / dynamic.totalCycles;
        r.idealDitto = itc.totalCycles / oracle.totalCycles;
        r.defoAccuracy = ditto.defoAccuracy;
        rows.push_back(std::move(r));
    }
    return rows;
}

} // namespace ditto
