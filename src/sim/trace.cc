#include "sim/trace.hh"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>

namespace flick
{

const char *
tracePointName(TracePoint p)
{
    switch (p) {
      case TracePoint::callEntry: return "callEntry";
      case TracePoint::hostNxFault: return "hostNxFault";
      case TracePoint::hostDescBuild: return "hostDescBuild";
      case TracePoint::dmaToNxpStart: return "dmaToNxpStart";
      case TracePoint::dmaToNxpDone: return "dmaToNxpDone";
      case TracePoint::nxpCallStart: return "nxpCallStart";
      case TracePoint::nxpResume: return "nxpResume";
      case TracePoint::nxpFault: return "nxpFault";
      case TracePoint::nxpDescBuild: return "nxpDescBuild";
      case TracePoint::dmaToHostStart: return "dmaToHostStart";
      case TracePoint::dmaToHostDone: return "dmaToHostDone";
      case TracePoint::hostWake: return "hostWake";
      case TracePoint::hostCallStart: return "hostCallStart";
      case TracePoint::hostResume: return "hostResume";
      case TracePoint::hostForward: return "hostForward";
      case TracePoint::hostFallback: return "hostFallback";
      case TracePoint::hostSteered: return "hostSteered";
      case TracePoint::callComplete: return "callComplete";
      case TracePoint::callFailed: return "callFailed";
      case TracePoint::kernelSuspend: return "kernelSuspend";
      case TracePoint::kernelWake: return "kernelWake";
      case TracePoint::kernelResume: return "kernelResume";
      case TracePoint::nxpStackAlloc: return "nxpStackAlloc";
      case TracePoint::qosAdmit: return "qosAdmit";
      case TracePoint::qosQueue: return "qosQueue";
      case TracePoint::qosShed: return "qosShed";
      case TracePoint::qosDequeue: return "qosDequeue";
      case TracePoint::qosCancel: return "qosCancel";
    }
    return "?";
}

const char *
tracePhaseName(TracePhase ph)
{
    switch (ph) {
      case TracePhase::hostExec: return "hostExec";
      case TracePhase::nxFault: return "nxFault";
      case TracePhase::hostDescBuild: return "hostDescBuild";
      case TracePhase::dmaToNxp: return "dmaToNxp";
      case TracePhase::nxpDispatch: return "nxpDispatch";
      case TracePhase::nxpExec: return "nxpExec";
      case TracePhase::nxpDescBuild: return "nxpDescBuild";
      case TracePhase::dmaToHost: return "dmaToHost";
      case TracePhase::msiDelivery: return "msiDelivery";
      case TracePhase::hostDispatch: return "hostDispatch";
      case TracePhase::none: return "none";
    }
    return "?";
}

const char *
traceGaugeName(TraceGauge g)
{
    switch (g) {
      case TraceGauge::h2dRing: return "h2d_ring";
      case TraceGauge::d2hRing: return "d2h_ring";
      case TraceGauge::dmaQueue: return "dma_queue";
      case TraceGauge::inFlightCalls: return "in_flight_calls";
    }
    return "?";
}

TracePhase
tracePointPhase(TracePoint p)
{
    switch (p) {
      case TracePoint::callEntry: return TracePhase::hostExec;
      case TracePoint::hostNxFault: return TracePhase::nxFault;
      case TracePoint::hostDescBuild: return TracePhase::hostDescBuild;
      case TracePoint::dmaToNxpStart: return TracePhase::dmaToNxp;
      case TracePoint::dmaToNxpDone: return TracePhase::nxpDispatch;
      case TracePoint::nxpCallStart: return TracePhase::nxpExec;
      case TracePoint::nxpResume: return TracePhase::nxpExec;
      case TracePoint::nxpFault: return TracePhase::nxFault;
      case TracePoint::nxpDescBuild: return TracePhase::nxpDescBuild;
      case TracePoint::dmaToHostStart: return TracePhase::dmaToHost;
      case TracePoint::dmaToHostDone: return TracePhase::msiDelivery;
      case TracePoint::hostWake: return TracePhase::hostDispatch;
      case TracePoint::hostCallStart: return TracePhase::hostExec;
      case TracePoint::hostResume: return TracePhase::hostExec;
      case TracePoint::hostForward: return TracePhase::hostDescBuild;
      case TracePoint::hostFallback: return TracePhase::hostExec;
      case TracePoint::hostSteered: return TracePhase::hostExec;
      case TracePoint::callComplete:
      case TracePoint::callFailed:
      case TracePoint::kernelSuspend:
      case TracePoint::kernelWake:
      case TracePoint::kernelResume:
      case TracePoint::nxpStackAlloc:
      case TracePoint::qosAdmit:
      case TracePoint::qosQueue:
      case TracePoint::qosShed:
      case TracePoint::qosDequeue:
      case TracePoint::qosCancel:
        return TracePhase::none;
    }
    return TracePhase::none;
}

namespace
{

bool
isTerminal(TracePoint p)
{
    return p == TracePoint::callComplete || p == TracePoint::callFailed;
}

bool
isInstant(TracePoint p)
{
    return tracePointPhase(p) == TracePhase::none && !isTerminal(p);
}

/**
 * Perfetto track for the milestone: the slice for the phase a milestone
 * opens is drawn on this track. JSON pid 1 is the host machine (tid 1
 * the core, tid 2 the kernel); pid 10+d is NxP device d (tid 1 the core,
 * tid 2 its DMA engine).
 */
struct TrackRef
{
    int pid;
    int tid;
};

TrackRef
pointTrack(TracePoint p, unsigned device)
{
    switch (p) {
      case TracePoint::callEntry:
      case TracePoint::hostNxFault:
      case TracePoint::hostDescBuild:
      case TracePoint::dmaToHostDone:
      case TracePoint::hostWake:
      case TracePoint::hostCallStart:
      case TracePoint::hostResume:
      case TracePoint::hostForward:
      case TracePoint::hostFallback:
      case TracePoint::hostSteered:
      case TracePoint::callComplete:
      case TracePoint::callFailed:
        return {1, 1};
      case TracePoint::kernelSuspend:
      case TracePoint::kernelWake:
      case TracePoint::kernelResume:
      case TracePoint::nxpStackAlloc:
      case TracePoint::qosAdmit:
      case TracePoint::qosQueue:
      case TracePoint::qosShed:
      case TracePoint::qosDequeue:
      case TracePoint::qosCancel:
        return {1, 2};
      case TracePoint::dmaToNxpStart:
      case TracePoint::dmaToHostStart:
        return {10 + static_cast<int>(device), 2};
      case TracePoint::dmaToNxpDone:
      case TracePoint::nxpCallStart:
      case TracePoint::nxpResume:
      case TracePoint::nxpFault:
      case TracePoint::nxpDescBuild:
        return {10 + static_cast<int>(device), 1};
    }
    return {1, 1};
}

/** Format a tick as a Chrome-trace microsecond timestamp (ps precision). */
std::string
usStr(Tick t)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%06" PRIu64, t / 1000000,
                  t % 1000000);
    return buf;
}

} // namespace

void
Tracer::reset()
{
    _events.clear();
    _gauges.clear();
    _open.clear();
    _phases = {};
    _calls.clear();
}

void
Tracer::closePhase(std::uint64_t call_id, Tick now)
{
    auto it = _open.find(call_id);
    if (it == _open.end() || it->second.phase == TracePhase::none)
        return;
    Tick d = now - it->second.since;
    auto idx = static_cast<unsigned>(it->second.phase);
    auto &h = _phases[idx];
    ++h.count;
    h.total += d;
    if (d < h.min)
        h.min = d;
    if (d > h.max)
        h.max = d;
    std::uint64_t ns = d / 1000;
    unsigned b = 0;
    while (ns) {
        ns >>= 1;
        ++b;
    }
    ++h.buckets[b < h.buckets.size() ? b : h.buckets.size() - 1];
    _calls[call_id].phaseTicks[idx] += d;
}

void
Tracer::record(TracePoint p, Tick now, int pid, std::uint64_t call_id,
               unsigned device, std::uint64_t arg)
{
    if (!isInstant(p)) {
        if (p == TracePoint::callEntry) {
            auto &cs = _calls[call_id];
            cs.pid = pid;
            cs.start = now;
        } else {
            // Ignore milestones of calls we never saw enter or that
            // already finished (stale descriptors of failed calls).
            auto it = _calls.find(call_id);
            if (it == _calls.end() || it->second.end != 0)
                return;
        }
        closePhase(call_id, now);
        if (isTerminal(p)) {
            auto &cs = _calls[call_id];
            cs.end = now;
            cs.failed = (p == TracePoint::callFailed);
            _open.erase(call_id);
        } else {
            _open[call_id] = {tracePointPhase(p), now};
        }
    }
    _events.push_back({now, p, static_cast<std::uint8_t>(device), pid,
                       call_id, arg});
}

void
Tracer::recordGauge(TraceGauge g, Tick now, unsigned device,
                    std::uint64_t value)
{
    _gauges.push_back({now, g, static_cast<std::uint8_t>(device), value});
}

void
Tracer::dumpJson(std::ostream &os) const
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    auto emit = [&](const std::string &ev) {
        if (!first)
            os << ',';
        first = false;
        os << '\n' << ev;
    };
    char buf[256];

    // Process / thread name metadata. Devices present = max index seen.
    unsigned devices = 0;
    for (const auto &e : _events)
        if (e.device + 1u > devices)
            devices = e.device + 1u;
    for (const auto &g : _gauges)
        if (g.gauge != TraceGauge::inFlightCalls && g.device + 1u > devices)
            devices = g.device + 1u;

    emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
         "\"args\":{\"name\":\"host\"}}");
    emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"host core\"}}");
    emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
         "\"args\":{\"name\":\"host kernel\"}}");
    for (unsigned d = 0; d < devices; ++d) {
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                      "\"args\":{\"name\":\"nxp%u\"}}",
                      10 + d, d);
        emit(buf);
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,"
                      "\"tid\":1,\"args\":{\"name\":\"nxp%u core\"}}",
                      10 + d, d);
        emit(buf);
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,"
                      "\"tid\":2,\"args\":{\"name\":\"nxp%u dma\"}}",
                      10 + d, d);
        emit(buf);
    }

    // Replay the milestone stream: each milestone closes the call's open
    // slice (drawn on the track of the milestone that opened it) and, for
    // non-terminal points, opens the next one. Track transitions become
    // flow arrows keyed by callId.
    struct OpenSlice
    {
        TracePhase phase;
        Tick since;
        TrackRef track;
    };
    std::unordered_map<std::uint64_t, OpenSlice> open;
    std::unordered_map<std::uint64_t, TrackRef> lastTrack;

    for (const auto &e : _events) {
        TrackRef tr = pointTrack(e.point, e.device);
        if (isInstant(e.point)) {
            std::snprintf(buf, sizeof(buf),
                          "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
                          "\"ts\":%s,\"pid\":%d,\"tid\":%d,"
                          "\"args\":{\"task\":%d,\"arg\":%" PRIu64 "}}",
                          tracePointName(e.point), usStr(e.tick).c_str(),
                          tr.pid, tr.tid, e.pid, e.arg);
            emit(buf);
            continue;
        }
        auto oit = open.find(e.callId);
        if (oit != open.end()) {
            const OpenSlice &s = oit->second;
            std::snprintf(buf, sizeof(buf),
                          "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%s,"
                          "\"dur\":%s,\"pid\":%d,\"tid\":%d,"
                          "\"args\":{\"callId\":%" PRIu64 ",\"task\":%d}}",
                          tracePhaseName(s.phase), usStr(s.since).c_str(),
                          usStr(e.tick - s.since).c_str(), s.track.pid,
                          s.track.tid, e.callId, e.pid);
            emit(buf);
            open.erase(oit);
        }
        // Flow arrows: start at the first milestone, step on every track
        // change, finish at the terminal milestone.
        auto lit = lastTrack.find(e.callId);
        if (lit == lastTrack.end()) {
            std::snprintf(buf, sizeof(buf),
                          "{\"name\":\"call\",\"cat\":\"call\",\"ph\":\"s\","
                          "\"id\":%" PRIu64 ",\"ts\":%s,\"pid\":%d,"
                          "\"tid\":%d}",
                          e.callId, usStr(e.tick).c_str(), tr.pid, tr.tid);
            emit(buf);
        } else if (isTerminal(e.point)) {
            std::snprintf(buf, sizeof(buf),
                          "{\"name\":\"call\",\"cat\":\"call\",\"ph\":\"f\","
                          "\"bp\":\"e\",\"id\":%" PRIu64 ",\"ts\":%s,"
                          "\"pid\":%d,\"tid\":%d}",
                          e.callId, usStr(e.tick).c_str(), tr.pid, tr.tid);
            emit(buf);
        } else if (lit->second.pid != tr.pid || lit->second.tid != tr.tid) {
            std::snprintf(buf, sizeof(buf),
                          "{\"name\":\"call\",\"cat\":\"call\",\"ph\":\"t\","
                          "\"id\":%" PRIu64 ",\"ts\":%s,\"pid\":%d,"
                          "\"tid\":%d}",
                          e.callId, usStr(e.tick).c_str(), tr.pid, tr.tid);
            emit(buf);
        }
        lastTrack[e.callId] = tr;
        if (!isTerminal(e.point))
            open[e.callId] = {tracePointPhase(e.point), e.tick, tr};
    }

    // Gauges as counter tracks on their owning machine.
    for (const auto &g : _gauges) {
        int pid = g.gauge == TraceGauge::inFlightCalls
                      ? 1
                      : 10 + static_cast<int>(g.device);
        if (g.gauge == TraceGauge::inFlightCalls) {
            std::snprintf(buf, sizeof(buf),
                          "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%s,"
                          "\"pid\":%d,\"args\":{\"value\":%" PRIu64 "}}",
                          traceGaugeName(g.gauge), usStr(g.tick).c_str(), pid,
                          g.value);
        } else {
            std::snprintf(buf, sizeof(buf),
                          "{\"name\":\"%s_dev%u\",\"ph\":\"C\",\"ts\":%s,"
                          "\"pid\":%d,\"args\":{\"value\":%" PRIu64 "}}",
                          traceGaugeName(g.gauge), g.device,
                          usStr(g.tick).c_str(), pid, g.value);
        }
        emit(buf);
    }

    os << "\n]}\n";
}

bool
Tracer::dumpJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    dumpJson(out);
    return static_cast<bool>(out);
}

void
Tracer::dumpBreakdown(std::ostream &os) const
{
    std::uint64_t done = 0, failed = 0;
    Tick endToEnd = 0;
    for (const auto &kv : _calls) {
        if (kv.second.end == 0)
            continue;
        ++done;
        if (kv.second.failed)
            ++failed;
        endToEnd += kv.second.end - kv.second.start;
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "trace: per-phase breakdown over %" PRIu64
                  " finished calls (%" PRIu64 " failed)\n",
                  done, failed);
    os << buf;
    std::snprintf(buf, sizeof(buf), "  %-14s %9s %10s %10s %10s %7s\n",
                  "phase", "count", "mean_us", "min_us", "max_us", "share");
    os << buf;
    Tick phaseSum = 0;
    for (unsigned i = 0; i < numTracePhases; ++i) {
        const auto &h = _phases[i];
        if (!h.count)
            continue;
        phaseSum += h.total;
        std::snprintf(buf, sizeof(buf),
                      "  %-14s %9" PRIu64 " %10.3f %10.3f %10.3f %6.1f%%\n",
                      tracePhaseName(static_cast<TracePhase>(i)), h.count,
                      h.meanUs(), ticksToUs(h.min), ticksToUs(h.max),
                      endToEnd ? 100.0 * static_cast<double>(h.total) /
                                     static_cast<double>(endToEnd)
                               : 0.0);
        os << buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "  phase sum %.3f us, end-to-end %.3f us over finished "
                  "calls\n",
                  ticksToUs(phaseSum), ticksToUs(endToEnd));
    os << buf;
}

} // namespace flick
