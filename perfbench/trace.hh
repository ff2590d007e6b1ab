/**
 * @file
 * Span and counter recording for the benchmark driver.
 *
 * The driver wraps every call it makes into a library layer's public
 * API in a span (name, start, end, parent). Spans and counters stay in
 * memory and are written out once, when the run ends; the per-layer
 * metrics are sums over them. Recording is off unless the run was
 * started with `--trace 1`, and even then the driver enables it only on
 * alternate passes, so one run also measures what tracing costs.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Process-wide span and counter store (single-threaded use). */
class Tracer
{
  public:
    /** Index of a recorded span; -1 for "no span". */
    using SpanId = std::int32_t;

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span under the innermost open span; -1 when disabled. */
    SpanId open(std::string_view name);
    /** Close a span returned by open(). */
    void close(SpanId id);

    /** Record a finished span with explicit times and parent. */
    void record(std::string_view name, Clock::time_point start,
                Clock::time_point end, SpanId parent);

    /** The innermost open span, or -1. */
    SpanId current() const
    {
        return stack_.empty() ? -1 : stack_.back();
    }

    /** Add to a named counter (only while enabled). */
    void count(std::string_view name, double value);

    /** Summed duration of closed spans called `name`, seconds. */
    double totalSeconds(std::string_view name) const;
    /** A counter's value (0 when never counted). */
    double counter(std::string_view name) const;

    /**
     * Write all spans and counters as JSON to `path`.
     * @return false when the file cannot be written
     */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        std::uint32_t name;
        SpanId parent;
        std::int64_t startNs;
        std::int64_t endNs;
    };

    std::uint32_t intern(std::string_view name);
    std::int64_t sinceOrigin(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - origin_)
            .count();
    }

    bool enabled_ = false;
    Clock::time_point origin_ = Clock::now();
    std::vector<std::string> names_;
    std::unordered_map<std::string, std::uint32_t> ids_;
    std::vector<Span> spans_;
    std::vector<SpanId> stack_;
    /** Summed seconds of closed spans, per name. */
    std::vector<double> nameSeconds_;
    std::map<std::string, double, std::less<>> counters_;
};

/** The driver's tracer. */
Tracer &tracer();

/** RAII span around one library call. */
class Span
{
  public:
    explicit Span(std::string_view name) : id_(tracer().open(name)) {}
    ~Span() { tracer().close(id_); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer::SpanId id_;
};

/**
 * Run `fn` as one span called `name` and return its duration in
 * seconds; the duration is measured whether or not tracing is on.
 */
template <typename Fn>
double
timed(std::string_view name, Fn &&fn)
{
    Tracer &t = tracer();
    const Tracer::SpanId parent = t.current();
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    t.record(name, start, end, parent);
    return secondsBetween(start, end);
}

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
