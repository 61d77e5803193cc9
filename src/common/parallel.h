/**
 * @file
 * Minimal persistent thread pool and a parallelFor primitive.
 *
 * The blocked kernels in tensor/kernels.cc split their outermost loop
 * (GEMM row panels, conv batches, norm rows/groups) into index ranges
 * and hand them to parallelFor. Participants claim chunks dynamically
 * from a shared counter (load balancing across skewed chunks), but
 * with an explicit grain, chunk boundaries are a pure function of
 * (begin, end, grain) — never of the thread count or claim order. The
 * grain-less convenience overload sizes chunks from the thread count
 * (a few per thread), so it is only for loops where each index's
 * result is computed entirely within its own iteration (true of every
 * kernel here: integer kernels stay bitwise-identical and float
 * kernels keep a fixed per-output accumulation order at any pool
 * size; the KernelsDeterminism tests assert this).
 *
 * Thread count resolution, in priority order:
 *   1. setThreadCount(n) (tests / benches),
 *   2. the DITTO_NUM_THREADS environment variable,
 *   3. std::thread::hardware_concurrency().
 * The chosen count is logged once per pool (re)build so benchmark runs
 * and CI logs record the parallelism they measured.
 */
#ifndef DITTO_COMMON_PARALLEL_H
#define DITTO_COMMON_PARALLEL_H

#include <cstdint>
#include <memory>
#include <type_traits>

namespace ditto {

/**
 * Non-owning reference to the callable a parallelFor runs over each
 * half-open index range [begin, end). Unlike std::function it never
 * allocates, whatever the lambda captures, so a parallel kernel call
 * costs no heap traffic on the forward-pass hot path. The referenced
 * callable must outlive the call — parallelFor is synchronous, so a
 * lambda written at the call site always does.
 */
class RangeFn
{
  public:
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, RangeFn>>>
    RangeFn(F &&fn) noexcept // NOLINT: implicit, like std::function
        : obj_(const_cast<void *>(
              static_cast<const void *>(std::addressof(fn)))),
          call_([](void *obj, int64_t begin, int64_t end) {
              (*static_cast<std::remove_reference_t<F> *>(obj))(begin,
                                                                 end);
          })
    {}

    void operator()(int64_t begin, int64_t end) const
    {
        call_(obj_, begin, end);
    }

  private:
    void *obj_;
    void (*call_)(void *, int64_t, int64_t);
};

/** Number of threads the global pool runs with (including the caller). */
int threadCount();

/**
 * Rebuild the global pool with `n` threads (n >= 1).
 *
 * Intended for tests (1-thread vs N-thread determinism checks) and
 * benches; production code should rely on DITTO_NUM_THREADS.
 */
void setThreadCount(int n);

/**
 * Run `fn` over [begin, end) split into contiguous chunks of at most
 * `grain` iterations.
 *
 * The caller's thread participates, so the call is valid (and serial)
 * with a 1-thread pool. Chunk boundaries depend only on (begin, end,
 * grain). Nested calls from inside a worker run inline on the calling
 * worker rather than deadlocking the pool.
 */
void parallelFor(int64_t begin, int64_t end, int64_t grain,
                 const RangeFn &fn);

/** parallelFor with grain chosen so each thread gets ~one chunk. */
void parallelFor(int64_t begin, int64_t end, const RangeFn &fn);

} // namespace ditto

#endif // DITTO_COMMON_PARALLEL_H
