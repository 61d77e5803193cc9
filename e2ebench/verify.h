/**
 * @file
 * Output oracle of the end-to-end benchmark, run after the timed phase.
 *
 * An exact output (QuantDitto or QuantDirect, served or rolled out)
 * must equal a standalone CompiledModel::rollout(QuantDirect,
 * requestNoise(seed)) bit for bit — a cross-mode oracle for QuantDitto.
 * An approximate output (ApproxDitto, or a request the server degraded)
 * must equal a standalone ApproxDitto rollout bit for bit; its PSNR
 * against the exact QuantDitto rollout (stats/fidelity.h) is the
 * workload's quality metric. References are memoised per identity, so
 * duplicate-heavy traffic verifies cheaply.
 */
#ifndef E2E_VERIFY_H
#define E2E_VERIFY_H

#include <cstdint>
#include <map>
#include <tuple>

#include "runtime/compiled.h"

namespace e2e {

/** PSNR reported for an exact match (the clamp of BM_ApproxRollout). */
inline constexpr double kPsnrCapDb = 99.0;

class Verifier
{
  public:
    /**
     * Check one output of `model` (preset index `preset`) for the
     * request seeded `seed`. Returns true on a bitwise match; for an
     * approximate output also sets *psnrDb (clamped to kPsnrCapDb).
     */
    bool check(const ditto::CompiledModel &model, int preset, uint64_t seed,
               bool approximate, const ditto::FloatTensor &image,
               double *psnrDb);

    /** Outputs compared so far. */
    int64_t checked() const { return checked_; }

  private:
    struct Reference
    {
        ditto::FloatTensor image;
        double psnrDb = kPsnrCapDb;
    };

    std::map<std::tuple<int, uint64_t, bool>, Reference> refs_;
    int64_t checked_ = 0;
};

} // namespace e2e

#endif // E2E_VERIFY_H
