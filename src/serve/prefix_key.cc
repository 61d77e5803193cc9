/**
 * @file
 * Prefix-identity hashing (see prefix_key.h for the derivation).
 */
#include "serve/prefix_key.h"

#include <cstring>

#include "common/bytes.h"
#include "runtime/compiled.h"

namespace ditto {

uint64_t
PrefixBase::hash() const
{
    uint64_t h = hashMix(0x9EF1'C0DE, model);
    h = hashMix(h, seed);
    h = hashMix(h, conditioning);
    h = hashMix(h, static_cast<uint64_t>(static_cast<int>(mode)));
    return h;
}

uint64_t
PrefixKey::hash() const
{
    return hashMix(base.hash(), static_cast<uint64_t>(steps));
}

PrefixBase
makePrefixBase(const CompiledModel &model, uint64_t seed,
               uint64_t conditioning, RunMode mode)
{
    uint64_t digest =
        hashMix(model.spec().hash(), model.calibrationDigest());
    if (mode == RunMode::ApproxDitto) {
        // Skip decisions are part of the trajectory's bits under
        // ApproxDitto; fold the resolved policy in so two policies
        // never share entries. Exact modes stay policy-independent.
        const double thresh = model.approxSkipThresh();
        uint64_t bits;
        std::memcpy(&bits, &thresh, sizeof(bits));
        digest = hashMix(digest, bits);
        digest = hashMix(
            digest, static_cast<uint64_t>(model.approxMaxConsec()));
    }
    PrefixBase base;
    base.model = digest;
    base.seed = seed;
    base.conditioning = conditioning;
    base.mode = mode;
    return base;
}

} // namespace ditto
