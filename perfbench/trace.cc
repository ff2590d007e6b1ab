#include "trace.hh"

#include <cstdio>

namespace perfbench {

Tracer &
tracer()
{
    static Tracer instance;
    return instance;
}

std::uint32_t
Tracer::intern(std::string_view name)
{
    const auto it = ids_.find(std::string(name));
    if (it != ids_.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(names_.back(), id);
    nameSeconds_.push_back(0.0);
    return id;
}

Tracer::SpanId
Tracer::open(std::string_view name)
{
    if (!enabled_)
        return -1;
    const auto id = static_cast<SpanId>(spans_.size());
    spans_.push_back({intern(name), current(),
                      sinceOrigin(Clock::now()), -1});
    stack_.push_back(id);
    return id;
}

void
Tracer::close(SpanId id)
{
    if (id < 0)
        return;
    Span &s = spans_[static_cast<std::size_t>(id)];
    s.endNs = sinceOrigin(Clock::now());
    nameSeconds_[s.name] += static_cast<double>(s.endNs - s.startNs) * 1e-9;
    // Spans close in LIFO order; tolerate a missed close by unwinding.
    while (!stack_.empty()) {
        const SpanId top = stack_.back();
        stack_.pop_back();
        if (top == id)
            break;
    }
}

void
Tracer::record(std::string_view name, Clock::time_point start,
               Clock::time_point end, SpanId parent)
{
    if (!enabled_)
        return;
    const std::uint32_t n = intern(name);
    spans_.push_back({n, parent, sinceOrigin(start), sinceOrigin(end)});
    nameSeconds_[n] += secondsBetween(start, end);
}

void
Tracer::count(std::string_view name, double value)
{
    if (!enabled_)
        return;
    auto it = counters_.find(name);
    if (it == counters_.end())
        counters_.emplace(std::string(name), value);
    else
        it->second += value;
}

double
Tracer::totalSeconds(std::string_view name) const
{
    const auto it = ids_.find(std::string(name));
    return it == ids_.end() ? 0.0 : nameSeconds_[it->second];
}

double
Tracer::counter(std::string_view name) const
{
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    // Compact layout: a name table, then one [name, parent, start_ns,
    // end_ns] row per span (parent -1 = root), then the counters.
    std::fprintf(f, "{\"names\":[");
    for (std::size_t i = 0; i < names_.size(); ++i)
        std::fprintf(f, "%s\"%s\"", i ? "," : "", names_[i].c_str());
    std::fprintf(f, "],\n\"spans\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f, "%s[%u,%d,%lld,%lld]", i ? ",\n" : "\n", s.name,
                     s.parent, static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs));
    }
    std::fprintf(f, "],\n\"counters\":{");
    bool first = true;
    for (const auto &[name, value] : counters_) {
        std::fprintf(f, "%s\"%s\":%.17g", first ? "" : ",", name.c_str(),
                     value);
        first = false;
    }
    std::fprintf(f, "}}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
