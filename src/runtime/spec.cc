/**
 * @file
 * ModelSpec builder, content hashing and lowering to the layer IR.
 */
#include "runtime/spec.h"

#include <bit>

#include "common/bytes.h"
#include "common/logging.h"

namespace ditto {

const char *
rtOpName(RtOp op)
{
    switch (op) {
      case RtOp::Input: return "Input";
      case RtOp::Conv2d: return "Conv2d";
      case RtOp::Fc: return "FC";
      case RtOp::AttnScores: return "AttnScores";
      case RtOp::AttnOutput: return "AttnOutput";
      case RtOp::CrossScores: return "CrossScores";
      case RtOp::CrossOutput: return "CrossOutput";
      case RtOp::GroupNorm: return "GroupNorm";
      case RtOp::LayerNorm: return "LayerNorm";
      case RtOp::SiLU: return "SiLU";
      case RtOp::GeLU: return "GeLU";
      case RtOp::Softmax: return "Softmax";
      case RtOp::Add: return "Add";
      case RtOp::Affine: return "Affine";
      case RtOp::Concat: return "Concat";
      case RtOp::Upsample2x: return "Upsample2x";
      case RtOp::AvgPool2x: return "AvgPool2x";
      case RtOp::NchwToTokens: return "NchwToTokens";
      case RtOp::TokensToNchw: return "TokensToNchw";
    }
    DITTO_PANIC("unknown RtOp");
}

bool
rtIsCompute(RtOp op)
{
    switch (op) {
      case RtOp::Conv2d:
      case RtOp::Fc:
      case RtOp::AttnScores:
      case RtOp::AttnOutput:
      case RtOp::CrossScores:
      case RtOp::CrossOutput:
        return true;
      default:
        return false;
    }
}

bool
rtIsReshape(RtOp op)
{
    return op == RtOp::NchwToTokens || op == RtOp::TokensToNchw;
}

namespace {

/** Layer IR kind of a runtime op; reshapes never reach this. */
OpKind
layerKind(RtOp op)
{
    switch (op) {
      case RtOp::Input: return OpKind::Input;
      case RtOp::Conv2d: return OpKind::Conv2d;
      case RtOp::Fc: return OpKind::Fc;
      case RtOp::AttnScores: return OpKind::AttnQK;
      case RtOp::AttnOutput: return OpKind::AttnPV;
      case RtOp::CrossScores: return OpKind::CrossQK;
      case RtOp::CrossOutput: return OpKind::CrossPV;
      case RtOp::GroupNorm: return OpKind::GroupNorm;
      case RtOp::LayerNorm: return OpKind::LayerNorm;
      case RtOp::SiLU: return OpKind::SiLU;
      case RtOp::GeLU: return OpKind::GeLU;
      case RtOp::Softmax: return OpKind::Softmax;
      case RtOp::Add: return OpKind::Add;
      case RtOp::Affine: return OpKind::Scale;
      case RtOp::Concat: return OpKind::Concat;
      case RtOp::Upsample2x: return OpKind::Upsample;
      case RtOp::AvgPool2x: return OpKind::Pool;
      case RtOp::NchwToTokens:
      case RtOp::TokensToNchw:
        break;
    }
    DITTO_PANIC("reshape nodes have no layer kind");
}

uint64_t
hashShape(uint64_t h, const Shape &s)
{
    h = hashMix(h, static_cast<uint64_t>(s.rank()));
    for (int i = 0; i < s.rank(); ++i)
        h = hashMix(h, static_cast<uint64_t>(s[i]));
    return h;
}

} // namespace

uint64_t
ModelSpec::hash() const
{
    uint64_t h = hashMix(0xD177'09A9, seed);
    h = hashMix(h, static_cast<uint64_t>(steps));
    h = hashShape(h, inputShape);
    h = hashMix(h, static_cast<uint64_t>(numScales));
    h = hashMix(h, static_cast<uint64_t>(weights.size()));
    for (const WeightSpec &w : weights) {
        h = hashShape(h, w.shape);
        h = hashMix(h, static_cast<uint64_t>(w.fanIn));
    }
    h = hashMix(h, static_cast<uint64_t>(nodes.size()));
    for (const NodeSpec &n : nodes) {
        h = hashMix(h, static_cast<uint64_t>(n.op));
        for (int in : n.inputs)
            h = hashMix(h, static_cast<uint64_t>(in));
        h = hashShape(h, n.outShape);
        h = hashMix(h, static_cast<uint64_t>(n.weight));
        h = hashMix(h, static_cast<uint64_t>(n.context));
        h = hashMix(h, static_cast<uint64_t>(n.conv.inChannels));
        h = hashMix(h, static_cast<uint64_t>(n.conv.outChannels));
        h = hashMix(h, static_cast<uint64_t>(n.conv.kernel));
        h = hashMix(h, static_cast<uint64_t>(n.conv.stride));
        h = hashMix(h, static_cast<uint64_t>(n.conv.padding));
        h = hashMix(h, static_cast<uint64_t>(n.scaleIn));
        h = hashMix(h, static_cast<uint64_t>(n.scaleIn2));
        h = hashMix(h, std::bit_cast<uint32_t>(n.affineScale));
        h = hashMix(h, std::bit_cast<uint32_t>(n.affineShift));
        h = hashMix(h, static_cast<uint64_t>(n.groups));
    }
    return h;
}

ModelGraph
ModelSpec::toGraph(std::vector<int> *nodeToLayer) const
{
    ModelGraph graph(name);
    std::vector<int> map(nodes.size(), -1);
    for (const NodeSpec &n : nodes) {
        if (rtIsReshape(n.op)) {
            // Reshapes are element bijections: collapse into the
            // producer edge so the dependency walk sees wire.
            map[static_cast<size_t>(n.id)] =
                map[static_cast<size_t>(n.inputs[0])];
            continue;
        }
        Layer l;
        l.name = n.name;
        l.kind = layerKind(n.op);
        for (int in : n.inputs)
            l.inputs.push_back(map[static_cast<size_t>(in)]);
        l.outputElems = n.outShape.numel();
        if (!n.inputs.empty())
            l.inputElems =
                nodes[static_cast<size_t>(n.inputs[0])].outShape.numel();
        switch (n.op) {
          case RtOp::Conv2d: {
            const int64_t oh = n.outShape[2];
            const int64_t ow = n.outShape[3];
            l.weightElems = n.conv.outChannels * n.conv.inChannels *
                            n.conv.kernel * n.conv.kernel;
            l.macs = n.outShape[0] * n.conv.outChannels *
                     n.conv.inChannels * n.conv.kernel * n.conv.kernel *
                     oh * ow;
            break;
          }
          case RtOp::Fc: {
            const Shape &in =
                nodes[static_cast<size_t>(n.inputs[0])].outShape;
            l.weightElems = n.outShape[1] * in[1];
            l.macs = in[0] * in[1] * n.outShape[1];
            break;
          }
          case RtOp::AttnScores:
          case RtOp::AttnOutput: {
            const Shape &a =
                nodes[static_cast<size_t>(n.inputs[0])].outShape;
            const Shape &b =
                nodes[static_cast<size_t>(n.inputs[1])].outShape;
            l.inputElems2 = b.numel();
            l.tokens = a[0];
            l.dim = n.op == RtOp::AttnScores ? a[1] : b[1];
            l.heads = 1;
            l.macs = n.outShape[0] * n.outShape[1] *
                     (n.op == RtOp::AttnScores ? a[1] : b[0]);
            break;
          }
          case RtOp::CrossScores:
          case RtOp::CrossOutput: {
            const Shape &a =
                nodes[static_cast<size_t>(n.inputs[0])].outShape;
            const Shape &ctx = weights[static_cast<size_t>(n.context)]
                                   .shape;
            l.tokens = a[0];
            l.ctxTokens = ctx[0];
            l.dim = n.op == RtOp::CrossScores ? a[1] : n.outShape[1];
            l.heads = 1;
            // K'/V' is a weight from the hardware's point of view.
            l.weightElems = ctx[0] * l.dim;
            l.macs = n.outShape[0] * n.outShape[1] * a[1];
            break;
          }
          default:
            l.vectorOps = n.outShape.numel();
            break;
        }
        map[static_cast<size_t>(n.id)] = graph.addLayer(std::move(l));
    }
    if (nodeToLayer)
        *nodeToLayer = std::move(map);
    return graph;
}

GraphBuilder::GraphBuilder(std::string name)
{
    spec_.name = std::move(name);
}

void
GraphBuilder::setSteps(int steps)
{
    DITTO_ASSERT(steps >= 1, "a spec needs at least one step");
    spec_.steps = steps;
}

int
GraphBuilder::newScale()
{
    return spec_.numScales++;
}

int
GraphBuilder::contextWeight(int64_t tokens, int64_t dim)
{
    DITTO_ASSERT(tokens >= 1 && dim >= 1, "bad context geometry");
    spec_.weights.push_back({Shape{tokens, dim}, 0});
    return static_cast<int>(spec_.weights.size()) - 1;
}

const NodeSpec &
GraphBuilder::node(int id) const
{
    DITTO_ASSERT(id >= 0 &&
                 id < static_cast<int>(spec_.nodes.size()),
                 "node id out of range");
    return spec_.nodes[static_cast<size_t>(id)];
}

const Shape &
GraphBuilder::shapeOf(int id) const
{
    return node(id).outShape;
}

int
GraphBuilder::addNode(NodeSpec n)
{
    n.id = static_cast<int>(spec_.nodes.size());
    for (int in : n.inputs)
        DITTO_ASSERT(in >= 0 && in < n.id,
                     "node '" << n.name
                              << "' references a later/unknown producer");
    spec_.nodes.push_back(std::move(n));
    return spec_.nodes.back().id;
}

int
GraphBuilder::input(int64_t channels, int64_t resolution)
{
    DITTO_ASSERT(!haveInput_, "a spec has exactly one input");
    haveInput_ = true;
    spec_.inputShape = Shape{1, channels, resolution, resolution};
    NodeSpec n;
    n.op = RtOp::Input;
    n.name = "input";
    n.outShape = spec_.inputShape;
    return addNode(std::move(n));
}

int
GraphBuilder::conv2d(const std::string &name, int in, int64_t outChannels,
                     int64_t kernel, int64_t stride, int64_t padding,
                     int scale)
{
    const Shape &s = shapeOf(in);
    DITTO_ASSERT(s.rank() == 4, "conv2d input must be NCHW");
    NodeSpec n;
    n.op = RtOp::Conv2d;
    n.name = name;
    n.inputs = {in};
    n.conv = Conv2dParams{s[1], outChannels, kernel, stride, padding};
    n.outShape = Shape{s[0], outChannels, n.conv.outExtent(s[2]),
                       n.conv.outExtent(s[3])};
    n.scaleIn = scale;
    spec_.weights.push_back(
        {Shape{outChannels, s[1], kernel, kernel}, s[1] * kernel * kernel});
    n.weight = static_cast<int>(spec_.weights.size()) - 1;
    return addNode(std::move(n));
}

int
GraphBuilder::fc(const std::string &name, int in, int64_t outFeatures,
                 int scale)
{
    const Shape &s = shapeOf(in);
    DITTO_ASSERT(s.rank() == 2, "fc input must be a token matrix");
    NodeSpec n;
    n.op = RtOp::Fc;
    n.name = name;
    n.inputs = {in};
    n.outShape = Shape{s[0], outFeatures};
    n.scaleIn = scale;
    spec_.weights.push_back({Shape{outFeatures, s[1]}, s[1]});
    n.weight = static_cast<int>(spec_.weights.size()) - 1;
    return addNode(std::move(n));
}

int
GraphBuilder::attnScores(const std::string &name, int q, int k, int scaleQ,
                         int scaleK)
{
    const Shape &sq = shapeOf(q);
    const Shape &sk = shapeOf(k);
    DITTO_ASSERT(sq.rank() == 2 && sk.rank() == 2 && sq[1] == sk[1],
                 "attention operands must share the feature dimension");
    NodeSpec n;
    n.op = RtOp::AttnScores;
    n.name = name;
    n.inputs = {q, k};
    n.outShape = Shape{sq[0], sk[0]};
    n.scaleIn = scaleQ;
    n.scaleIn2 = scaleK;
    return addNode(std::move(n));
}

int
GraphBuilder::attnOutput(const std::string &name, int p, int v, int scaleP,
                         int scaleV)
{
    const Shape &sp = shapeOf(p);
    const Shape &sv = shapeOf(v);
    DITTO_ASSERT(sp.rank() == 2 && sv.rank() == 2 && sp[1] == sv[0],
                 "attention P/V geometry mismatch");
    NodeSpec n;
    n.op = RtOp::AttnOutput;
    n.name = name;
    n.inputs = {p, v};
    n.outShape = Shape{sp[0], sv[1]};
    n.scaleIn = scaleP;
    n.scaleIn2 = scaleV;
    return addNode(std::move(n));
}

int
GraphBuilder::crossScores(const std::string &name, int q, int ctx,
                          int scaleQ)
{
    const Shape &sq = shapeOf(q);
    DITTO_ASSERT(sq.rank() == 2, "cross scores input must be tokens");
    DITTO_ASSERT(ctx >= 0 &&
                 ctx < static_cast<int>(spec_.weights.size()) &&
                 spec_.weights[static_cast<size_t>(ctx)].fanIn == 0,
                 "cross attention needs a contextWeight() index");
    const Shape &sc = spec_.weights[static_cast<size_t>(ctx)].shape;
    NodeSpec n;
    n.op = RtOp::CrossScores;
    n.name = name;
    n.inputs = {q};
    n.outShape = Shape{sq[0], sc[0]};
    n.scaleIn = scaleQ;
    n.context = ctx;
    // K-projection: K' = context x W^T, W [d, ctxDim].
    spec_.weights.push_back({Shape{sq[1], sc[1]}, sc[1]});
    n.weight = static_cast<int>(spec_.weights.size()) - 1;
    return addNode(std::move(n));
}

int
GraphBuilder::crossOutput(const std::string &name, int p, int ctx,
                          int64_t outDim, int scaleP)
{
    const Shape &sp = shapeOf(p);
    DITTO_ASSERT(ctx >= 0 &&
                 ctx < static_cast<int>(spec_.weights.size()) &&
                 spec_.weights[static_cast<size_t>(ctx)].fanIn == 0,
                 "cross attention needs a contextWeight() index");
    const Shape &sc = spec_.weights[static_cast<size_t>(ctx)].shape;
    DITTO_ASSERT(sp.rank() == 2 && sp[1] == sc[0],
                 "cross P operand must span the context tokens");
    NodeSpec n;
    n.op = RtOp::CrossOutput;
    n.name = name;
    n.inputs = {p};
    n.outShape = Shape{sp[0], outDim};
    n.scaleIn = scaleP;
    n.context = ctx;
    // V-projection: V' = context x W^T, W [outDim, ctxDim].
    spec_.weights.push_back({Shape{outDim, sc[1]}, sc[1]});
    n.weight = static_cast<int>(spec_.weights.size()) - 1;
    return addNode(std::move(n));
}

int
GraphBuilder::groupNorm(const std::string &name, int in, int64_t groups)
{
    const Shape &s = shapeOf(in);
    DITTO_ASSERT(s.rank() == 4 && s[1] % groups == 0,
                 "groupNorm groups must divide the channels");
    NodeSpec n;
    n.op = RtOp::GroupNorm;
    n.name = name;
    n.inputs = {in};
    n.outShape = s;
    n.groups = groups;
    return addNode(std::move(n));
}

int
GraphBuilder::layerNorm(const std::string &name, int in)
{
    const Shape &s = shapeOf(in);
    DITTO_ASSERT(s.rank() == 2, "layerNorm input must be a matrix");
    NodeSpec n;
    n.op = RtOp::LayerNorm;
    n.name = name;
    n.inputs = {in};
    n.outShape = s;
    return addNode(std::move(n));
}

int
GraphBuilder::silu(const std::string &name, int in)
{
    NodeSpec n;
    n.op = RtOp::SiLU;
    n.name = name;
    n.inputs = {in};
    n.outShape = shapeOf(in);
    return addNode(std::move(n));
}

int
GraphBuilder::gelu(const std::string &name, int in)
{
    NodeSpec n;
    n.op = RtOp::GeLU;
    n.name = name;
    n.inputs = {in};
    n.outShape = shapeOf(in);
    return addNode(std::move(n));
}

int
GraphBuilder::softmax(const std::string &name, int in)
{
    const Shape &s = shapeOf(in);
    DITTO_ASSERT(s.rank() == 2, "softmax input must be a matrix");
    NodeSpec n;
    n.op = RtOp::Softmax;
    n.name = name;
    n.inputs = {in};
    n.outShape = s;
    return addNode(std::move(n));
}

int
GraphBuilder::add(const std::string &name, int a, int b)
{
    DITTO_ASSERT(shapeOf(a) == shapeOf(b), "add operand shape mismatch");
    NodeSpec n;
    n.op = RtOp::Add;
    n.name = name;
    n.inputs = {a, b};
    n.outShape = shapeOf(a);
    return addNode(std::move(n));
}

int
GraphBuilder::affine(const std::string &name, int in, float scale,
                     float shift)
{
    NodeSpec n;
    n.op = RtOp::Affine;
    n.name = name;
    n.inputs = {in};
    n.outShape = shapeOf(in);
    n.affineScale = scale;
    n.affineShift = shift;
    return addNode(std::move(n));
}

int
GraphBuilder::concat(const std::string &name, int a, int b)
{
    const Shape &sa = shapeOf(a);
    const Shape &sb = shapeOf(b);
    DITTO_ASSERT(sa.rank() == 4 && sb.rank() == 4 && sa[0] == sb[0] &&
                 sa[2] == sb[2] && sa[3] == sb[3],
                 "concat needs NCHW maps of equal extent");
    NodeSpec n;
    n.op = RtOp::Concat;
    n.name = name;
    n.inputs = {a, b};
    n.outShape = Shape{sa[0], sa[1] + sb[1], sa[2], sa[3]};
    return addNode(std::move(n));
}

int
GraphBuilder::upsample2x(const std::string &name, int in)
{
    const Shape &s = shapeOf(in);
    DITTO_ASSERT(s.rank() == 4, "upsample input must be NCHW");
    NodeSpec n;
    n.op = RtOp::Upsample2x;
    n.name = name;
    n.inputs = {in};
    n.outShape = Shape{s[0], s[1], s[2] * 2, s[3] * 2};
    return addNode(std::move(n));
}

int
GraphBuilder::avgPool2x(const std::string &name, int in)
{
    const Shape &s = shapeOf(in);
    DITTO_ASSERT(s.rank() == 4 && s[2] % 2 == 0 && s[3] % 2 == 0,
                 "avgPool2x needs even spatial extents");
    NodeSpec n;
    n.op = RtOp::AvgPool2x;
    n.name = name;
    n.inputs = {in};
    n.outShape = Shape{s[0], s[1], s[2] / 2, s[3] / 2};
    return addNode(std::move(n));
}

int
GraphBuilder::nchwToTokens(const std::string &name, int in)
{
    const Shape &s = shapeOf(in);
    DITTO_ASSERT(s.rank() == 4, "nchwToTokens input must be NCHW");
    NodeSpec n;
    n.op = RtOp::NchwToTokens;
    n.name = name;
    n.inputs = {in};
    n.outShape = Shape{s[0] * s[2] * s[3], s[1]};
    return addNode(std::move(n));
}

int
GraphBuilder::tokensToNchw(const std::string &name, int in, int64_t h,
                           int64_t w)
{
    const Shape &s = shapeOf(in);
    DITTO_ASSERT(s.rank() == 2 && s[0] % (h * w) == 0,
                 "tokensToNchw row count must be a multiple of h*w");
    NodeSpec n;
    n.op = RtOp::TokensToNchw;
    n.name = name;
    n.inputs = {in};
    n.outShape = Shape{s[0] / (h * w), s[1], h, w};
    return addNode(std::move(n));
}

ModelSpec
GraphBuilder::build()
{
    DITTO_ASSERT(haveInput_, "a spec needs an input node");
    DITTO_ASSERT(!spec_.nodes.empty(), "a spec needs nodes");
    DITTO_ASSERT(spec_.nodes.back().outShape == spec_.inputShape,
                 "the output node must predict noise of the input shape "
                     << spec_.inputShape.toString() << ", got "
                     << spec_.nodes.back().outShape.toString());
    return std::move(spec_);
}

} // namespace ditto
