#include "verify.h"

#include <algorithm>
#include <cstring>

namespace e2e {

bool
Verifier::check(const ditto::CompiledModel &model, int preset, uint64_t seed,
                bool approximate, const ditto::FloatTensor &image,
                double *psnrDb)
{
    using ditto::RunMode;
    const auto key = std::make_tuple(preset, seed, approximate);
    auto it = refs_.find(key);
    if (it == refs_.end()) {
        const ditto::FloatTensor noise = model.requestNoise(seed);
        Reference ref;
        if (approximate) {
            ditto::RolloutResult r =
                model.rolloutWithFidelity(RunMode::ApproxDitto, noise);
            ref.image = std::move(r.finalImage);
            ref.psnrDb = r.fidelity.exact()
                             ? kPsnrCapDb
                             : std::min(r.fidelity.psnrDb, kPsnrCapDb);
        } else {
            ref.image = model.rollout(RunMode::QuantDirect, noise).finalImage;
        }
        it = refs_.emplace(key, std::move(ref)).first;
    }
    ++checked_;
    if (psnrDb)
        *psnrDb = it->second.psnrDb;
    const ditto::FloatTensor &want = it->second.image;
    return want.shape() == image.shape() &&
           std::memcmp(want.data().data(), image.data().data(),
                       want.data().size_bytes()) == 0;
}

} // namespace e2e
