/**
 * @file
 * ModelSpec: numeric layer descriptions the graph runtime compiles.
 *
 * A ModelSpec is a complete, executable description of a denoising
 * model: nodes in topological order (shapes, operand wiring,
 * quantization points), a deterministic weight program (every weight
 * drawn from one seeded RNG stream), and the rollout step count. It is
 * the executable twin of the layer IR in src/model/ — `toGraph()`
 * lowers a spec to a ModelGraph so Defo's static dependency analysis
 * (ModelGraph::analyzeDependencies) can drive the compiled execution,
 * and so the cost/BOPs machinery sees the same topology the runtime
 * actually runs.
 *
 * Specs are built through GraphBuilder (shape inference, quant-point
 * bookkeeping, validation) and compiled by runtime/compiled.h. The
 * presets in runtime/presets.h cover the MiniUnet compatibility model,
 * a deeper multi-scale UNet and a DiT-style transformer block.
 */
#ifndef DITTO_RUNTIME_SPEC_H
#define DITTO_RUNTIME_SPEC_H

#include <cstdint>
#include <string>
#include <vector>

#include "model/graph.h"
#include "tensor/ops.h"
#include "tensor/shape.h"

namespace ditto {

/** Executable op kinds of the graph runtime. */
enum class RtOp
{
    Input,        //!< the noisy image x_t, NCHW
    // Compute Unit layers (difference-processing candidates).
    Conv2d,       //!< weight-stationary convolution
    Fc,           //!< weight-stationary fully-connected layer
    AttnScores,   //!< Q x K^T, both operands dynamic
    AttnOutput,   //!< P x V, both operands dynamic
    CrossScores,  //!< Q' x K'^T with constant context projection K'
    CrossOutput,  //!< P' x V' with constant context projection V'
    // Vector Processing Unit layers (full-value boundaries).
    GroupNorm,
    LayerNorm,
    SiLU,
    GeLU,
    Softmax,
    // Structural / elementwise ops; linear w.r.t. differences.
    Add,
    Affine,       //!< x * scale + shift with compile-time constants
    Concat,       //!< channel concatenation of NCHW maps
    Upsample2x,   //!< nearest-neighbour spatial doubling
    AvgPool2x,    //!< 2x2 average pooling
    // Layout-only reshapes (element bijections).
    NchwToTokens, //!< (N,C,H,W) -> [N*H*W, C] token matrix
    TokensToNchw, //!< token matrix -> (N,C,H,W)
};

/** Human-readable name of an RtOp. */
const char *rtOpName(RtOp op);

/** True for ops executed on the Compute Unit (MAC arrays). */
bool rtIsCompute(RtOp op);

/** True for the layout-only reshapes payloads pass through. */
bool rtIsReshape(RtOp op);

/**
 * One tensor of the spec's deterministic weight program.
 *
 * At compile time all weights are drawn from a single RNG stream
 * (Rng::fromKeys(spec.seed, 0x11B5)) in list order: first every
 * fan-in-scaled weight (He-style normal with std 1/sqrt(fanIn)), then
 * every constant context tensor (fanIn == 0, unit normal), then the
 * model's own initial noise. This fixed phase order is what lets the
 * MiniUnet preset reproduce the legacy hand-wired model bit for bit.
 */
struct WeightSpec
{
    Shape shape;
    int64_t fanIn = 0; //!< 0: unit-normal constant (context tensors)
};

/** One node of a ModelSpec (see GraphBuilder for invariants). */
struct NodeSpec
{
    int id = -1;
    RtOp op = RtOp::Input;
    std::string name;
    std::vector<int> inputs; //!< producer node ids
    Shape outShape;          //!< inferred by the builder

    /**
     * WeightSpec index: the layer weight (Conv2d/Fc), or the context
     * *projection* weight (CrossScores: K-projection, CrossOutput:
     * V-projection).
     */
    int weight = -1;
    /** WeightSpec index of the constant context tensor (Cross*). */
    int context = -1;
    Conv2dParams conv;  //!< Conv2d geometry
    int scaleIn = -1;   //!< quantization point of the dynamic operand
    int scaleIn2 = -1;  //!< second dynamic operand (AttnScores/AttnOutput)
    float affineScale = 1.0f;
    float affineShift = 0.0f;
    int64_t groups = 2; //!< GroupNorm group count
};

/** A complete executable model description. */
struct ModelSpec
{
    std::string name;
    uint64_t seed = 42;
    int steps = 6;     //!< default reverse-diffusion step count
    Shape inputShape;  //!< [1, C, H, W]
    std::vector<WeightSpec> weights;
    std::vector<NodeSpec> nodes; //!< topological; back() is the output
    int numScales = 0;           //!< activation quantization points

    /**
     * Content hash over everything that determines execution: node
     * topology and geometry, weight program, seed, steps and input
     * shape. With the calibration digest it names a compiled model:
     * workers behind one router must match on both, and reuse-cache
     * prefix keys fold both in.
     */
    uint64_t hash() const;

    /**
     * Lower to the layer IR: one Layer per node with kinds, operand
     * geometry and dependencies, reshape nodes collapsed into their
     * producer edge (they are element bijections the dependency walk
     * treats as wire). `nodeToLayer`, when given, receives the node id
     * -> layer id mapping (reshapes map to their producer's layer).
     */
    ModelGraph toGraph(std::vector<int> *nodeToLayer = nullptr) const;
};

/**
 * Incremental ModelSpec builder with shape inference and validation.
 *
 * Node methods return the new node's id; weight-bearing methods append
 * the node's weights to the weight program in call order (the draw
 * phases are described on WeightSpec). Quantization points are
 * allocated with newScale() and may be shared between nodes that
 * quantize the same producer tensor (e.g. a Q/K/V triple).
 */
class GraphBuilder
{
  public:
    explicit GraphBuilder(std::string name);

    void setSeed(uint64_t seed) { spec_.seed = seed; }
    void setSteps(int steps);

    /** Allocate an activation quantization point. */
    int newScale();

    /** Register a constant context tensor [tokens, dim]. */
    int contextWeight(int64_t tokens, int64_t dim);

    /** The graph input (exactly one per spec): NCHW [1, ch, res, res]. */
    int input(int64_t channels, int64_t resolution);

    int conv2d(const std::string &name, int in, int64_t outChannels,
               int64_t kernel, int64_t stride, int64_t padding, int scale);
    int fc(const std::string &name, int in, int64_t outFeatures, int scale);

    /** Self-attention Q x K^T over token matrices q, k: [T, d]. */
    int attnScores(const std::string &name, int q, int k, int scaleQ,
                   int scaleK);
    /** Self-attention P x V: p [T, T], v [T, d]. */
    int attnOutput(const std::string &name, int p, int v, int scaleP,
                   int scaleV);

    /**
     * Cross-attention scores Q' x K'^T against context `ctx`
     * (contextWeight): registers the K-projection weight
     * [d, ctxDim] and treats its output K' as a constant weight.
     */
    int crossScores(const std::string &name, int q, int ctx, int scaleQ);
    /** Cross-attention output P' x V' (V-projection [outDim, ctxDim]). */
    int crossOutput(const std::string &name, int p, int ctx,
                    int64_t outDim, int scaleP);

    int groupNorm(const std::string &name, int in, int64_t groups);
    int layerNorm(const std::string &name, int in);
    int silu(const std::string &name, int in);
    int gelu(const std::string &name, int in);
    int softmax(const std::string &name, int in);

    int add(const std::string &name, int a, int b);
    int affine(const std::string &name, int in, float scale, float shift);
    int concat(const std::string &name, int a, int b);
    int upsample2x(const std::string &name, int in);
    int avgPool2x(const std::string &name, int in);

    int nchwToTokens(const std::string &name, int in);
    /** Token matrix [n*h*w, c] back to NCHW [n, c, h, w]. */
    int tokensToNchw(const std::string &name, int in, int64_t h, int64_t w);

    /** Output shape of node `id`. */
    const Shape &shapeOf(int id) const;

    /**
     * Finalize: validates that the last node's shape matches the input
     * shape (the rollout recurrence x += -0.15 * eps needs it) and
     * returns the spec.
     */
    ModelSpec build();

  private:
    int addNode(NodeSpec node);
    const NodeSpec &node(int id) const;

    ModelSpec spec_;
    bool haveInput_ = false;
};

} // namespace ditto

#endif // DITTO_RUNTIME_SPEC_H
