/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is one call from the benchmark into a layer's public API:
 * its name (the layer-qualified metric stem, e.g. "ir.build"), start
 * and end on the steady clock, the span that was open when it began
 * (its parent), and the design-point index as its request id. Spans
 * stay in memory while the benchmark runs and are written once at
 * exit as Chrome trace_event JSON, which Perfetto loads.
 *
 * When recording is off, opening a Scope costs one branch.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

inline double
secondsSince(std::uint64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) / 1e9;
}

struct Span
{
    const char *name;
    std::uint64_t startNs;
    std::uint64_t endNs;
    int parent;
    long point;
};

/** Per-name totals over every recorded span. */
struct SpanTotals
{
    std::uint64_t count = 0;
    std::uint64_t inclusiveNs = 0;
    std::uint64_t selfNs = 0;
};

class Tracer
{
  public:
    void setEnabled(bool on) { enabled = on; }

    /** Open a span; returns its id, or -1 while recording is off. */
    int
    open(const char *name, long point)
    {
        if (!enabled)
            return -1;
        int parent = stack.empty() ? -1 : stack.back();
        spans.push_back({name, nowNs(), 0, parent, point});
        int id = static_cast<int>(spans.size()) - 1;
        stack.push_back(id);
        return id;
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        spans[static_cast<std::size_t>(id)].endNs = nowNs();
        stack.pop_back();
    }

    /** Host time the simulator's HostTelemetry gave one phase. */
    struct Phase
    {
        const char *name;
        std::uint64_t ns;
    };

    /**
     * Record @p phases as children of the closed span @p parent.
     * Phase totals are not intervals, so the children are laid end
     * to end from the parent's start; the parent must have no other
     * children.
     */
    void
    addPhases(int parent, std::initializer_list<Phase> phases)
    {
        if (parent < 0)
            return;
        const Span p = spans[static_cast<std::size_t>(parent)];
        std::uint64_t cursor = p.startNs;
        for (const Phase &ph : phases) {
            if (ph.ns == 0)
                continue;
            spans.push_back({ph.name, cursor, cursor + ph.ns, parent,
                             p.point});
            cursor += ph.ns;
        }
    }

    /**
     * Totals per span name over the set-up spans (point < 0) or the
     * point spans; self time excludes child spans.
     */
    std::map<std::string, SpanTotals>
    totals(bool setup_spans) const
    {
        std::vector<std::uint64_t> child(spans.size(), 0);
        for (const Span &s : spans) {
            if (s.parent >= 0)
                child[static_cast<std::size_t>(s.parent)] +=
                    s.endNs - s.startNs;
        }
        std::map<std::string, SpanTotals> out;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            if ((s.point < 0) != setup_spans)
                continue;
            std::uint64_t dur = s.endNs - s.startNs;
            SpanTotals &t = out[s.name];
            ++t.count;
            t.inclusiveNs += dur;
            t.selfNs += dur - std::min(child[i], dur);
        }
        return out;
    }

    std::size_t size() const { return spans.size(); }

    /**
     * Write the first @p max_spans spans as Chrome trace_event JSON
     * ("X" complete events, microseconds). False on I/O failure.
     */
    bool
    writeChromeTrace(const std::string &path,
                     std::size_t max_spans) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::uint64_t origin = spans.empty() ? 0 : spans.front().startNs;
        std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
        std::size_t n = std::min(max_spans, spans.size());
        for (std::size_t i = 0; i < n; ++i) {
            const Span &s = spans[i];
            const char *parent =
                s.parent >= 0
                    ? spans[static_cast<std::size_t>(s.parent)].name
                    : "";
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\","
                         "\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                         "\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"point\":%ld,\"parent\":\"%s\"}}",
                         i == 0 ? "" : ",", s.name,
                         static_cast<double>(s.startNs - origin) / 1e3,
                         static_cast<double>(s.endNs - s.startNs) / 1e3,
                         s.point, parent);
        }
        std::fputs("\n]}\n", f);
        return std::fclose(f) == 0;
    }

  private:
    bool enabled = false;
    std::vector<Span> spans;
    std::vector<int> stack;
};

/** RAII span around one call into a layer. */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name, long point)
        : tracer(tracer), id(tracer.open(name, point))
    {}

    ~Scope() { end(); }

    /** Close the span before the scope ends (idempotent). */
    void
    end()
    {
        if (!closed)
            tracer.close(id);
        closed = true;
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** The span's id, or -1 while recording is off. */
    int spanId() const { return id; }

  private:
    Tracer &tracer;
    int id;
    bool closed = false;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
