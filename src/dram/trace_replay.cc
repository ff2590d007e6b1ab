#include "trace_replay.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "dram/scheduler.hh"

namespace pccs::dram {

std::vector<TraceEntry>
loadTrace(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file '%s'", path.c_str());

    std::vector<TraceEntry> trace;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream ls(line);
        std::string first;
        if (!(ls >> first))
            continue; // blank / comment-only

        TraceEntry e;
        std::string addr_str = first;
        if (first == "R" || first == "r" || first == "W" ||
            first == "w") {
            e.isWrite = (first == "W" || first == "w");
            if (!(ls >> addr_str)) {
                warn("trace %s:%zu: missing address", path.c_str(),
                     lineno);
                continue;
            }
        }
        try {
            e.addr = std::stoull(addr_str, nullptr, 0);
        } catch (const std::exception &) {
            warn("trace %s:%zu: bad address '%s'", path.c_str(),
                 lineno, addr_str.c_str());
            continue;
        }
        trace.push_back(e);
    }
    return trace;
}

TraceReplayGenerator::TraceReplayGenerator(const ReplayParams &params,
                                           std::vector<TraceEntry> trace,
                                           MemoryPort &port)
    : params_(params), trace_(std::move(trace)), port_(port),
      bucket_(params.demand * bytesPerGB * port.cycleSeconds(),
              port.lineBytes())
{
    PCCS_ASSERT(!trace_.empty(), "replay needs a non-empty trace");
    PCCS_ASSERT(params_.demand > 0.0, "replay demand must be positive");
    PCCS_ASSERT(params_.mlp > 0, "replay mlp must be positive");
    PCCS_ASSERT(params_.source < Scheduler::maxSources,
                "source id %u out of range", params_.source);
    // Keep addresses inside the port's space and line-aligned.
    const Addr mask = ~Addr{port_.lineBytes() - 1};
    for (auto &e : trace_)
        e.addr = (e.addr % port_.addressSpan()) & mask;
}

bool
TraceReplayGenerator::tick(Cycles now)
{
    bucket_.accrueThrough(now);
    bool issued = false;
    while (bucket_.holdsLine() && outstanding_ < params_.mlp) {
        if (position_ >= trace_.size()) {
            if (!params_.loop)
                break;
            position_ = 0;
        }
        const TraceEntry &e = trace_[position_];
        if (!port_.enqueue(params_.source, e.addr, e.isWrite, now)) {
            // Backpressure: retry the same entry once there is room.
            if (!blockedOn_) // same entry, same queue as last time
                blockedOn_ = &port_.requestQueue(e.addr);
            ++rejectedEnqueues_;
            break;
        }
        blockedOn_ = nullptr;
        ++position_;
        bucket_.spendLine();
        ++outstanding_;
        ++issuedLines_;
        issued = true;
    }
    bucket_.settle();
    return issued;
}

Cycles
TraceReplayGenerator::nextIssueEvent(Cycles now) const
{
    // Queue backpressure and the MLP limit only clear through
    // controller activity (a CAS dequeue / a completion), which is
    // itself a wake; an exhausted non-looping trace never issues
    // again. Rejected enqueues change no controller state, and the
    // event-driven loops skip them entirely (idleAt()).
    if (exhausted() || outstanding_ >= params_.mlp || blockedOn_)
        return kNoEvent;
    return std::max(bucket_.lineReadyAt(), now + 1);
}

void
TraceReplayGenerator::onComplete(const Request &req)
{
    PCCS_ASSERT(req.source == params_.source,
                "completion for source %u routed to source %u",
                req.source, params_.source);
    PCCS_ASSERT(outstanding_ > 0, "completion with no outstanding request");
    --outstanding_;
    ++completedLines_;
}

void
TraceReplayGenerator::resetMeasurement()
{
    completedLines_ = 0;
    issuedLines_ = 0;
    rejectedEnqueues_ = 0;
}

} // namespace pccs::dram
