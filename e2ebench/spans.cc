#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "e2e.h"

namespace e2e {

int
SpanRecorder::add(const Span &s)
{
    if (!enabled_)
        return -1;
    spans_.push_back(s);
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanRecorder::close(int idx, double endUs)
{
    if (idx >= 0)
        spans_[static_cast<size_t>(idx)].endUs = endUs;
}

std::vector<double>
SpanRecorder::durationsUs(const char *name, int preset, int stepLo,
                          int stepHi) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (std::strcmp(s.name, name) == 0 &&
            (preset < 0 || s.preset == preset) && s.step >= stepLo &&
            s.step <= stepHi)
            out.push_back(s.durUs());
    return out;
}

int64_t
SpanRecorder::count(const char *name) const
{
    return std::count_if(spans_.begin(), spans_.end(), [name](const Span &s) {
        return std::strcmp(s.name, name) == 0;
    });
}

std::vector<double>
SpanRecorder::selfTimesUs() const
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span &s : spans_)
        if (s.parent >= 0)
            kids[static_cast<size_t>(s.parent)].emplace_back(s.startUs,
                                                             s.endUs);
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &p = spans_[i];
        std::vector<std::pair<double, double>> &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        // Union of the children's intervals, clipped to the parent.
        double covered = 0.0, reach = p.startUs;
        for (const auto &[lo, hi] : iv) {
            const double a = std::max(lo, reach);
            const double b = std::min(hi, p.endUs);
            if (b > a)
                covered += b - a;
            reach = std::max(reach, std::min(hi, p.endUs));
        }
        self[i] = p.durUs() - covered;
    }
    return self;
}

bool
SpanRecorder::writeChromeJson(const std::string &path, std::string *why) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        *why = "cannot open " + path;
        return false;
    }
    const std::vector<double> self = selfTimesUs();
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        // One track per request keeps overlapping requests apart;
        // request-less spans (compile, offline rollouts) share track 0.
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                     "\"id\":%zu,\"parent\":%d,\"request\":%llu,"
                     "\"preset\":\"%s\",\"step\":%d,\"self_us\":%.3f}}",
                     i ? "," : "", s.name,
                     static_cast<unsigned long long>(s.request), s.startUs,
                     s.durUs(), i, s.parent,
                     static_cast<unsigned long long>(s.request),
                     s.preset >= 0 ? kPresetNames[s.preset] : "", s.step,
                     self[i]);
    }
    std::fputs("\n]}\n", f);
    const bool ok = std::fclose(f) == 0;
    if (!ok)
        *why = "write failed: " + path;
    return ok;
}

} // namespace e2e
