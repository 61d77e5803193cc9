/**
 * @file
 * Environment-knob registry and typed readers.
 */
#include "common/env.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"

namespace ditto {
namespace env {

namespace {

/**
 * The registry. Adding a knob here is the whole declaration: the
 * readers accept it, docs/config.md documents it (CI cross-checks the
 * table via tools/check_env_registry.py).
 */
constexpr Knob kKnobs[] = {
    {"DITTO_NUM_THREADS", "std::thread::hardware_concurrency()",
     "src/common/parallel.cc",
     "Size of the global parallelFor pool (including the calling "
     "thread). Must be >= 1."},
    {"DITTO_SIMD", "auto", "src/tensor/simd/dispatch.cc",
     "SIMD kernel dispatch level: auto, generic, neon, avx2 or "
     "avx512. Levels the host cannot execute fall back to auto with a "
     "note on stderr."},
    {"DITTO_DIFF_MAC_PENALTY", "2.2,8", "src/core/diff_linear.cc",
     "Software Defo cost-model penalties as wide[,narrow]; overrides "
     "the built-in 2.2 / 8.0."},
    {"DITTO_SERVE_MAX_BATCH", "8", "src/serve/server.cc",
     "Capacity of each worker's BatchEngine. Range 1..4096."},
    {"DITTO_SERVE_MAX_WAIT_US", "2000", "src/serve/server.cc",
     "Default batch-formation window in microseconds. Range "
     "0..60000000."},
    {"DITTO_SERVE_WORKERS", "1", "src/serve/server.cc",
     "Worker threads per DenoiseServer, one engine each. Range "
     "1..256."},
    {"DITTO_SERVE_QUEUE_CAP", "64", "src/serve/server.cc",
     "Admission-control bound: most requests allowed to wait in the "
     "class queues; beyond it submit() rejects or blocks. Range "
     "1..1000000."},
    {"DITTO_SERVE_ADMIT_BLOCK_US", "0 (reject immediately)",
     "src/serve/server.cc",
     "Backpressure budget in microseconds: how long a submit against "
     "a full queue blocks for space before rejecting. Range "
     "0..60000000."},
    {"DITTO_SERVE_SHED_HIGH", "0 (3/4 of DITTO_SERVE_QUEUE_CAP)",
     "src/serve/server.cc",
     "Queue depth at which overload shedding engages. Range "
     "0..1000000."},
    {"DITTO_SERVE_SHED_LOW", "0 (1/4 of DITTO_SERVE_QUEUE_CAP)",
     "src/serve/server.cc",
     "Queue depth at which overload shedding releases (hysteresis "
     "band up to DITTO_SERVE_SHED_HIGH). Range 0..1000000."},
    {"DITTO_REUSE_CAP_BYTES", "0 (reuse disabled)",
     "src/serve/reuse_cache.cc",
     "Byte budget of the inter-request reuse cache "
     "(docs/reuse_cache.md): resident checkpoint entries are evicted "
     "LRU past it; 0 disables reuse entirely. Range 0..INT64_MAX."},
    {"DITTO_REUSE_CHECKPOINT_EVERY", "2", "src/serve/reuse_cache.cc",
     "Reuse-cache checkpoint cadence in steps: a running request's "
     "state is stored after every Nth step. Range 1..1048576."},
    {"DITTO_FAULT_POINTS", "unset (no faults)",
     "src/serve/faultpoints.cc",
     "Fault-injection spec: `point:action:schedule[:arg]` clauses "
     "joined by ';' (see docs/serving.md). Malformed specs fail "
     "loudly."},
    {"DITTO_FAULT_SEED", "0", "src/serve/faultpoints.cc",
     "Seed for probabilistic fault schedules (prob=P clauses); "
     "every point draws an independent deterministic stream."},
    {"DITTO_SHARD_CONNECT_TIMEOUT_MS", "5000", "src/shard/client.cc",
     "How long a ShardClient retries connecting to a worker socket "
     "that does not exist yet / refuses (the worker-startup race), in "
     "milliseconds. Range 0..600000."},
    {"DITTO_SHARD_POLL_US", "500", "src/shard/router.cc",
     "ShardRouter::wait poll interval in microseconds. Range "
     "1..10000000."},
    {"DITTO_SHARD_AFFINITY_SLACK", "2", "src/shard/router.cc",
     "How many outstanding requests the affinity worker may carry "
     "above the least-loaded worker before prefix-affinity routing is "
     "overridden by least-loaded dispatch. Range 0..1048576."},
    {"DITTO_WRITE_GOLDENS", "unset", "tests/test_shard.cc",
     "Any non-empty value other than 0 makes the slab-codec golden "
     "test regenerate the committed fixtures under "
     "tests/goldens/slab/ instead of comparing against them."},
};

/** Registered lookup; panics on a name missing from the table. */
const char *
registered(const char *name)
{
    DITTO_ASSERT(isRegistered(name),
                 "environment knob '" << name
                                      << "' is not in the env registry");
    return name;
}

void
warnInvalid(const char *name, const char *value)
{
    std::fprintf(stderr, "[ditto] ignoring invalid %s=\"%s\"\n", name,
                 value);
}

} // namespace

std::span<const Knob>
knobs()
{
    return std::span<const Knob>(kKnobs);
}

bool
isRegistered(const char *name)
{
    for (const Knob &k : kKnobs)
        if (std::strcmp(k.name, name) == 0)
            return true;
    return false;
}

int64_t
readInt64(const char *name, int64_t fallback, int64_t lo, int64_t hi)
{
    const char *v = std::getenv(registered(name));
    if (!v)
        return fallback;
    char *end = nullptr;
    const long long parsed = std::strtoll(v, &end, 10);
    if (end == v || *end != '\0' || parsed < lo || parsed > hi) {
        warnInvalid(name, v);
        return fallback;
    }
    return static_cast<int64_t>(parsed);
}

double
readDouble(const char *name, double fallback, double lo, double hi)
{
    const char *v = std::getenv(registered(name));
    if (!v)
        return fallback;
    char *end = nullptr;
    const double parsed = std::strtod(v, &end);
    if (end == v || *end != '\0' || !(parsed >= lo && parsed <= hi)) {
        warnInvalid(name, v);
        return fallback;
    }
    return parsed;
}

bool
readFlag(const char *name)
{
    const char *v = std::getenv(registered(name));
    return v && v[0] != '\0' && v[0] != '0';
}

std::string
readString(const char *name, const char *fallback)
{
    const char *v = std::getenv(registered(name));
    return (v && v[0] != '\0') ? std::string(v) : std::string(fallback);
}

} // namespace env
} // namespace ditto
