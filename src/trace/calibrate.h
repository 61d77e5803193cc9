/**
 * @file
 * Fits mixture parameters to per-model statistical targets.
 *
 * The fit is a fixed-point iteration where each parameter is updated
 * from the one target it dominates (monotone 1-D solves via bisection):
 *
 *  - outlier temporal correlation  <- range compression ratio (closed form)
 *  - outlier magnitude beta        <- <=4-bit fraction of activations
 *  - near-zero spike weight w0     <- zero fraction of activations
 *  - bulk temporal correlation     <- zero fraction of temporal diffs
 *  - outlier weight w2             <- temporal cosine similarity
 *  - bulk spatial correlation      <- zero fraction of spatial diffs
 *  - outlier spatial correlation   <- spatial cosine similarity (closed)
 *
 * The <=4-bit fractions of temporal and spatial differences are left
 * emergent and verified against the targets in the test suite.
 */
#ifndef DITTO_TRACE_CALIBRATE_H
#define DITTO_TRACE_CALIBRATE_H

#include "model/zoo.h"
#include "trace/mixture.h"
#include "trace/targets.h"

namespace ditto {

/** Fit mixture parameters to arbitrary targets (60 fixed-point sweeps). */
MixtureParams calibrateToTargets(const StatTargets &targets);

/** Cached calibration for one zoo model. */
const MixtureParams &calibratedParams(ModelId id);

} // namespace ditto

#endif // DITTO_TRACE_CALIBRATE_H
