/**
 * @file
 * Temporal difference processing for weight-stationary linear layers
 * (paper Section IV-A, Fig. 7).
 *
 * Executes a quantized linear layer at time step t as
 *
 *     out_t = out_{t+1} + W (x_t - x_{t+1})
 *
 * using the distributive property (the reverse process runs from high
 * step indices down, so step t+1 is the already-computed predecessor).
 * In the integer domain with a shared scale this is *exact*: the test
 * suite asserts bit-equality against direct execution. The difference
 * operand is narrow — mostly zero or 4-bit — which is where the
 * hardware's zero skipping and reduced-bit-width lanes gain their
 * speedup.
 *
 * Since the sparse diff-GEMM refactor the engines realize that speedup
 * in software too: the difference operand is classified once by the
 * software Encoding Unit (quant/encoder.h) into a panel plan that the
 * plan-driven kernels (tensor/diff_gemm.h) execute, skipping zero
 * values and reading 4-bit values from packed nibble panels. Each
 * engine has one such body, runBatchInto, over a stack of request
 * slabs; runDiff runs it on one request's tensors. The previous dense
 * execution (full int16 GEMM over the difference) is retained under
 * ditto::naive as the reference the sparse path is parity-tested
 * against.
 *
 * The engines also tally how many multiplies fall in each bit class,
 * the quantity the BOPs analysis (Fig. 6) and the cycle model consume;
 * the tallies now fall out of the encoder pass that drives execution,
 * so accounting and execution cannot diverge.
 */
#ifndef DITTO_CORE_DIFF_LINEAR_H
#define DITTO_CORE_DIFF_LINEAR_H

#include <cstdint>
#include <vector>

#include "quant/bitwidth.h"
#include "quant/encoder.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace ditto {

/** Multiply counts by operand bit class for one layer execution. */
struct OpCounts
{
    int64_t zeroSkipped = 0; //!< multiplies skipped (zero difference)
    int64_t low4 = 0;        //!< multiplies on the 4-bit lane
    int64_t full8 = 0;       //!< multiplies needing the 8-bit path

    /**
     * Difference-calculation work (paper Section IV-B): elements
     * subtracted against a *stored previous input* at a full-value
     * boundary. Layers whose dependency verdict lets them consume the
     * producer's difference directly never store previous input codes
     * and contribute nothing here — the quantity the graph runtime's
     * skip test asserts on (docs/graph_runtime.md).
     */
    int64_t diffCalcElems = 0;

    /**
     * Summation work: accumulator elements materialized to full values
     * for a consumer that needs them. Skipped when every consumer is a
     * compute layer consuming the difference.
     */
    int64_t summationElems = 0;

    /**
     * Output elements replayed from a cached previous step instead of
     * being computed (RunMode::ApproxDitto block skips — see
     * docs/approx_reuse.md). Always 0 in the exact modes.
     */
    int64_t reusedElems = 0;

    int64_t total() const { return zeroSkipped + low4 + full8; }

    /**
     * Bit operations, counting a 4-bit x 8-bit multiply as 32 BOPs and
     * an 8-bit x 8-bit multiply as 64 (the paper's BOPs metric).
     */
    int64_t bops() const { return low4 * 32 + full8 * 64; }

    void
    merge(const OpCounts &o)
    {
        zeroSkipped += o.zeroSkipped;
        low4 += o.low4;
        full8 += o.full8;
        diffCalcElems += o.diffCalcElems;
        summationElems += o.summationElems;
        reusedElems += o.reusedElems;
    }
};

/**
 * Execution policy for the difference engines (software Defo, paper
 * Section IV-C). Difference execution only pays off when enough of
 * the difference stream is skippable: the engines probe the stream's
 * class counts (one cheap vectorized sweep, which also feeds OpCounts)
 * and compare the predicted sparse cost against the dense direct cost.
 *
 *  - Auto: revert to direct execution when the probe predicts the
 *    diff path is more expensive. Results are bitwise identical either
 *    way (the distributive identity is exact), so reversion changes
 *    wall-clock only. The decision is a pure function of the codes'
 *    class counts and diffMacPenalty, so it is the same in every
 *    process, at any pool size.
 *  - ForceDiff: always run the sparse plan path (parity tests,
 *    kernel benchmarks).
 */
enum class DiffPolicy
{
    Auto,
    ForceDiff,
};

/**
 * Software Defo cost model: per-MAC penalty of the sparse diff path
 * relative to the dense blocked GEMM, as a function of the
 * accumulation row width n (wide: n >= 64): 2.2 wide and 8.0 narrow,
 * unless DITTO_DIFF_MAC_PENALTY overrides them.
 * Predicted sparse cost = nonzero_fraction * penalty * dense cost.
 */
double diffMacPenalty(int64_t n);

/** Tally the bit classes of `values` weighted by `macs_per_element`. */
OpCounts tallyOps(const Int16Tensor &values, int64_t macs_per_element);

/**
 * OpCounts from an encoding plan's element tallies: every element
 * drives `macs_per_element` multiplies of its own bit class. Equals
 * tallyOps of the plan's source operand.
 */
OpCounts planOpCounts(const DiffGemmPlan &plan, int64_t macs_per_element);

/** OpCounts from a class-count probe (same convention). */
OpCounts probeOpCounts(const DiffClassCounts &probe,
                       int64_t macs_per_element);

/**
 * True when the probe predicts the sparse path wins for a single
 * weight-stationary sub-op with an n-wide accumulation row:
 * density * diffMacPenalty(n) < 1.
 */
bool diffWorthIt(const DiffClassCounts &probe, int64_t n);

/**
 * One dynamic operand of a batched engine call: the stacked current
 * codes plus how its temporal difference is known — stored previous
 * codes (`prev`, subtracted here) or a difference the producer handed
 * over (`diff`, already subtracted; the dependency-analysis bypass).
 * At most one of the two is set; both may be null when no slab is
 * primed. Probes and plans are bitwise identical either way, because
 * a handed-over difference equals the subtraction it replaces.
 */
struct DiffOperand
{
    const int8_t *codes = nullptr;
    const int8_t *prev = nullptr;
    const int16_t *diff = nullptr;

    /** Class counts of elements [off, off + n) of the difference. */
    DiffClassCounts probe(int64_t off, int64_t n) const;

    /** Encode the [rows, cols] region at `off` into `plan`. */
    void encode(int64_t off, int64_t rows, int64_t cols,
                DiffGemmPlan *plan) const;
};

/**
 * Reusable per-call scratch of the batched engine bodies: per-slab
 * decisions, Encoding-Unit plans, kernel batch items, de-transposed
 * and reconstructed previous operands. Every buffer keeps its capacity
 * across calls and plans reserve their worst case once
 * (encodeTemporalDiffInto), so after the first call of a given shape
 * an engine call allocates nothing. A forward pass takes it from its
 * workspace (runtime/workspace.h) and hands it from node to node; the
 * Tensor-returning runDiff wrappers use the calling thread's own.
 */
struct EngineScratch
{
    std::vector<uint8_t> useDiff;
    std::vector<DiffGemmPlan> plans;  //!< operand plans, one per slab
    std::vector<DiffGemmPlan> plans2; //!< attention's second operand
    std::vector<kernels::DiffGemmBatchItem> items;
    std::vector<kernels::DiffGemmBatchItem> items2;
    std::vector<kernels::ConvScatterBatchItem> convItems;
    std::vector<int64_t> slabOf; //!< compacted delta slab per batch slab
    std::vector<int8_t> prevA;   //!< reconstructed previous operands
    std::vector<int8_t> prevB;
    std::vector<int8_t> bT;      //!< de-transposed attention B operands

    /**
     * Size everything one batched call over `slabs` slabs can touch,
     * on its first primed call and before taking pointers: a pool of
     * plans reserved for [rows, cols] operands and the batch items.
     * Every slab might take the diff path, so which ones do —
     * data-dependent — never changes what is allocated.
     */
    void reserve(std::vector<DiffGemmPlan> *pool, int64_t slabs,
                 int64_t rows, int64_t cols);
};

/** True when any of the `slabs` flags is set (null: none). */
bool anyPrimed(const uint8_t *primed, int64_t slabs);

/** The calling thread's engine scratch (Tensor-returning wrappers). */
EngineScratch &threadEngineScratch();

namespace detail {

/**
 * Run a single-request difference call through its op's batched body:
 * `body(out, primed, counts, scratch)` accumulates `slabs` primed slabs
 * into a copy of `prev_out` (checked against the result shape) on the
 * calling thread's scratch; the per-slab tallies merge into `counts`.
 */
template <typename Body>
Int32Tensor
runPrimed(const Int32Tensor &prev_out, const Shape &out_shape,
          int64_t slabs, OpCounts *counts, Body &&body)
{
    DITTO_ASSERT(prev_out.shape() == out_shape,
                 "previous output shape mismatch");
    Int32Tensor out = prev_out;
    const std::vector<uint8_t> primed(static_cast<size_t>(slabs), 1);
    std::vector<OpCounts> slab_counts(counts ? static_cast<size_t>(slabs)
                                             : 0);
    body(out.data().data(), primed.data(),
         counts ? slab_counts.data() : nullptr, &threadEngineScratch());
    for (const OpCounts &c : slab_counts)
        counts->merge(c);
    return out;
}

} // namespace detail

/**
 * Fully-connected layer with temporal difference processing.
 *
 * Holds the quantized weight; callers drive it step by step. Cross
 * attention with a constant context runs here too: Q' K'^T with K' as
 * the weight, P' V' with V'^T as the weight.
 */
class DiffFcEngine
{
  public:
    /** @param weight int8 weight matrix [out_features, in_features]. */
    explicit DiffFcEngine(Int8Tensor weight);

    /** Direct (full bit-width) execution: y = x W^T. */
    Int32Tensor runDirect(const Int8Tensor &x) const;

    /**
     * Difference execution: y_t = prev_out + W (x - prev_x), as
     * runBatchInto on the caller's tensors as one primed slab.
     *
     * @param x current-step input codes.
     * @param prev_x previous-step input codes.
     * @param prev_out previous-step int32 output.
     * @param counts optional tally of multiplier-lane usage.
     * @param policy Auto reverts to direct execution (bit-identical)
     *        when the class-count probe predicts diff is slower.
     */
    Int32Tensor runDiff(const Int8Tensor &x, const Int8Tensor &prev_x,
                        const Int32Tensor &prev_out,
                        OpCounts *counts = nullptr,
                        DiffPolicy policy = DiffPolicy::Auto) const;

    /**
     * The one difference body, on caller-owned buffers: `x` stacks
     * `rows` code rows of `slabs` equal slabs (slab s covers rows
     * [s * rows / slabs, (s+1) * rows / slabs)) with either stored
     * previous codes or a difference the producer handed over
     * (DiffOperand) — the graph runtime hands it over when the
     * dependency analysis says the producer's output is already a
     * difference, so this layer stores no previous input codes.
     * Probes, plans, tallies and Defo decisions are bitwise identical
     * either way. Per slab the engine runs direct when the slab is
     * unprimed (primed[s] == 0) or its probe reverts, sparse diff
     * otherwise: contiguous direct runs become one row-folded GEMM,
     * diff slabs one batched plan dispatch. `out` [rows, out_features]
     * holds every primed slab's previous output on entry — the flipped
     * Ditto state accumulates in place. Direct slabs overwrite their
     * region; diff slabs add W * dx to it. Unprimed slabs never read
     * their difference region and do not touch `counts` (per-slab
     * tallies, array of `slabs`, or null). Bitwise identical at any
     * thread count and batch size.
     */
    void runBatchInto(const DiffOperand &x, int64_t rows, int64_t slabs,
                      const uint8_t *primed, int32_t *out, OpCounts *counts,
                      DiffPolicy policy, EngineScratch *scratch) const;

    const Int8Tensor &weight() const { return weight_; }

  private:
    Int8Tensor weight_;
    Int8Tensor weightT_; //!< [in, out] copy: plan B operand, no repacking
};

/** 2-D convolution with temporal difference processing. */
class DiffConvEngine
{
  public:
    DiffConvEngine(Int8Tensor weight, Conv2dParams params);

    /** Direct (full bit-width) execution. */
    Int32Tensor runDirect(const Int8Tensor &x) const;

    /**
     * Difference execution: y_t = prev_out + conv(x - prev_x), as
     * runBatchInto with every batch of the NCHW x a primed slab.
     */
    Int32Tensor runDiff(const Int8Tensor &x, const Int8Tensor &prev_x,
                        const Int32Tensor &prev_out,
                        OpCounts *counts = nullptr,
                        DiffPolicy policy = DiffPolicy::Auto) const;

    /**
     * The one difference body (DiffFcEngine::runBatchInto semantics):
     * `batches` stacked [Cin, h, w] slabs of codes, `out` the stacked
     * [batches, Cout, OH, OW] accumulator holding each primed slab's
     * previous output on entry. Direct runs fold into batched
     * convolutions; each diff slab's raw [Cin, h*w] difference is
     * encoded (no im2col expansion) and all of them scatter through
     * the kernel windows in one slab-parallel dispatch
     * (kernels::convDiffScatterBatch). `counts` classifies each input
     * element once, charged the average out_channels * k * k / stride^2
     * multiplies — the same convention as the dense reference and the
     * BOPs model. `delta` is caller scratch of at least `batches` x
     * Cout*OH*OW elements for the diff slabs' scattered deltas
     * (contents unspecified on entry; the graph runtime plans it in
     * its arena).
     */
    void runBatchInto(const DiffOperand &x, int64_t batches, int64_t h,
                      int64_t w, const uint8_t *primed, int32_t *out,
                      int32_t *delta, OpCounts *counts, DiffPolicy policy,
                      EngineScratch *scratch) const;

    const Conv2dParams &params() const { return params_; }

  private:
    Int8Tensor weight_;
    Int8Tensor wmatT_; //!< [Cin*K*K, Cout] copy: scatter tap rows
    Int8Tensor wrevT_; //!< kx-reversed rows for the interior fast path
    Conv2dParams params_;
};

namespace naive {

/**
 * Dense difference execution references (the pre-sparse engine bodies):
 * widen the whole difference to int16, run the dense diff GEMM / conv,
 * add the previous output. Used by parity tests and as the
 * sparse-vs-dense baseline in bench_kernels.
 */
Int32Tensor fcRunDiff(const Int8Tensor &x, const Int8Tensor &prev_x,
                      const Int32Tensor &prev_out, const Int8Tensor &weight,
                      OpCounts *counts = nullptr);
Int32Tensor convRunDiff(const Int8Tensor &x, const Int8Tensor &prev_x,
                        const Int32Tensor &prev_out,
                        const Int8Tensor &weight, const Conv2dParams &params,
                        OpCounts *counts = nullptr);

} // namespace naive

} // namespace ditto

#endif // DITTO_CORE_DIFF_LINEAR_H
