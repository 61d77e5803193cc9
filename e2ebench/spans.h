/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span is one timed call into a layer (compile, rollout, a rollout
 * step, a server or router submit/poll) or one request's life (from its
 * scheduled send to the result, with queue and service children taken
 * from the server's own timestamps). Spans are appended from the single
 * load-generating thread, kept in memory and written once at exit as
 * Chrome trace-event JSON, which chrome://tracing and Perfetto open.
 * The per-layer metrics are derived from the same spans.
 */
#ifndef E2E_SPANS_H
#define E2E_SPANS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

/** One traced interval; times are microseconds since the run's epoch. */
struct Span
{
    const char *name = ""; //!< static string, e.g. "serve.poll"
    double startUs = 0.0;
    double endUs = 0.0;
    int parent = -1;       //!< index of the enclosing span, -1: none
    uint64_t request = 0;  //!< shared by one request's spans, 0: none
    int preset = -1;       //!< kPresetNames index, -1: none
    int step = 0;          //!< 1-based rollout step ("step" spans)

    double durUs() const { return endUs - startUs; }
};

/** Appends spans while enabled; not thread-safe (one caller thread). */
class SpanRecorder
{
  public:
    explicit SpanRecorder(Clock::time_point epoch) : epoch_(epoch) {}

    void setEnabled(bool on) { enabled_ = on; }

    /** Microseconds from the epoch to `t`. */
    double
    us(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - epoch_).count();
    }

    /** Current time on the span clock. */
    double nowUs() const { return us(Clock::now()); }

    /** Append `s`; returns its index, or -1 while disabled. */
    int add(const Span &s);

    /** Set the end of span `idx` (no-op for -1). */
    void close(int idx, double endUs);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Durations of the spans called `name`, optionally only those of
     * one preset (-1: any) or one step range [stepLo, stepHi].
     */
    std::vector<double> durationsUs(const char *name, int preset = -1,
                                    int stepLo = 0,
                                    int stepHi = 1 << 30) const;

    /** Number of spans called `name`. */
    int64_t count(const char *name) const;

    /**
     * Self time of every span: its duration minus the part of its
     * interval that its children cover.
     */
    std::vector<double> selfTimesUs() const;

    /** Write all spans as Chrome trace-event JSON; false + why on error. */
    bool writeChromeJson(const std::string &path, std::string *why) const;

  private:
    Clock::time_point epoch_;
    bool enabled_ = false;
    std::vector<Span> spans_;
};

} // namespace e2e

#endif // E2E_SPANS_H
