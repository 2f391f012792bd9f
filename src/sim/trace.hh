/**
 * @file
 * Structured event tracing and latency attribution for the migration path.
 *
 * The Tracer records a timestamped TraceEvent at every protocol milestone
 * of a cross-ISA call — NX fault entry, descriptor build, DMA start and
 * completion, MSI delivery, NxP dispatch, function entry/exit, return
 * descriptor, future completion — plus gauge samples (ring occupancy, DMA
 * queue depth, in-flight calls) taken at those same points.
 *
 * Attribution model: the milestones of one call form a chain in time, and
 * each milestone *opens* a phase that the next milestone *closes*. The
 * interval between two consecutive milestones is charged to the phase the
 * earlier one opened, so the per-call phase durations sum exactly to the
 * end-to-end latency by construction — the property bench_table3_breakdown
 * and tests/trace_test.cpp validate. Closed intervals feed per-phase
 * histograms (count / total / min / max / log2 buckets) that dumpBreakdown()
 * renders as a Table-III-style decomposition.
 *
 * The Tracer is strictly passive: it never schedules events on the
 * EventQueue and never alters component behaviour, so a traced run is
 * tick-for-tick identical to an untraced one. When disabled (the default),
 * every emit path returns before touching any container — zero allocations,
 * same discipline the chaos and heartbeat layers follow (DESIGN.md §10).
 */

#ifndef FLICK_SIM_TRACE_HH
#define FLICK_SIM_TRACE_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/ticks.hh"

namespace flick
{

/**
 * Protocol milestones instrumented along the migration path. Each
 * milestone both closes the call's currently open phase and (except the
 * terminal ones) opens the phase tracePointPhase() maps it to. Instants
 * (the points that open no phase and are not terminal) are markers that
 * do not shift phases; the qos* instants record QoS front-door
 * decisions (DESIGN.md §14).
 */
enum class TracePoint : std::uint8_t
{
    callEntry,      ///< submit()-ed call starts executing on the host
    hostNxFault,    ///< host core hits the NX fault on an NxP symbol
    hostDescBuild,  ///< host kernel starts packing a descriptor
    dmaToNxpStart,  ///< h2d descriptor handed to the DMA engine
    dmaToNxpDone,   ///< h2d DMA complete; doorbell visible to the NxP
    nxpCallStart,   ///< NxP handler dispatches the migrated function
    nxpResume,      ///< NxP resumes a frame after a nested return
    nxpFault,       ///< NxP core faults on a host symbol (return/call-back)
    nxpDescBuild,   ///< NxP handler starts packing a return/call descriptor
    dmaToHostStart, ///< d2h descriptor handed to the DMA engine
    dmaToHostDone,  ///< d2h DMA complete; MSI raised toward the host
    hostWake,       ///< host IRQ handler wakes the suspended task
    hostCallStart,  ///< host dispatches a callback from an NxP
    hostResume,     ///< host resumes the original frame after the return
    hostForward,    ///< host kernel forwards a device-to-device call
    hostFallback,   ///< host re-dispatches a failed call to its host twin
    hostSteered,    ///< placement policy runs the host twin instead
    callComplete,   ///< future completed; closes the call
    callFailed,     ///< call failed (deadline/cancel/device lost)
    kernelSuspend,  ///< instant: kernel suspends a task for migration
    kernelWake,     ///< instant: kernel marks a suspended task runnable
    kernelResume,   ///< instant: kernel switches a woken task back in
    nxpStackAlloc,  ///< instant: first migration allocated an NxP stack
    qosAdmit,       ///< instant: front door admitted the call
    qosQueue,       ///< instant: call parked in its tenant's queue
    qosShed,        ///< instant: call refused (arg is the ShedReason)
    qosDequeue,     ///< instant: queued call left the queue, admitted
    qosCancel,      ///< instant: cancel() lifted a queued call out
};

/** Latency-attribution phases a round trip decomposes into (Table III). */
enum class TracePhase : std::uint8_t
{
    hostExec,      ///< executing on the host core
    nxFault,       ///< NX-fault service + trap exit (either side)
    hostDescBuild, ///< host kernel: ioctl entry, packing, suspend
    dmaToNxp,      ///< descriptor burst DMA, host -> NxP
    nxpDispatch,   ///< NxP poll/pickup until the handler runs the call
    nxpExec,       ///< executing on the NxP core
    nxpDescBuild,  ///< NxP handler: descriptor build + doorbell
    dmaToHost,     ///< descriptor burst DMA, NxP -> host
    msiDelivery,   ///< MSI propagation + host IRQ entry + task wake
    hostDispatch,  ///< scheduler wakeup-to-run + ioctl exit
    none,          ///< terminal / instant points open no phase
};

/** Number of real phases (excludes TracePhase::none). */
constexpr unsigned numTracePhases = 10;

/** Gauges sampled at trace points (exported as Perfetto counter tracks). */
enum class TraceGauge : std::uint8_t
{
    h2dRing,       ///< host->device descriptor-ring occupancy (per device)
    d2hRing,       ///< device->host descriptor-ring occupancy (per device)
    dmaQueue,      ///< DMA engine queue depth incl. active (per engine)
    inFlightCalls, ///< calls submitted but not yet completed/failed
};

/** Stable lowerCamel names ("?" for a value outside the enum). */
const char *tracePointName(TracePoint p);
const char *tracePhaseName(TracePhase ph);
const char *traceGaugeName(TraceGauge g);

/** Phase a milestone opens (none for terminal and instant points). */
TracePhase tracePointPhase(TracePoint p);

/** One recorded milestone or instant. */
struct TraceEvent
{
    Tick tick = 0;            ///< simulated time of the milestone
    TracePoint point{};       ///< which milestone
    std::uint8_t device = 0;  ///< device index (0 for host-side points)
    int pid = 0;              ///< task the call belongs to
    std::uint64_t callId = 0; ///< generation token following the call
    /// Point-specific detail: target VA, return value, NxP stack top,
    /// or for QoS decisions the admission estimate in ticks (the
    /// ShedReason for qosShed).
    std::uint64_t arg = 0;
};

/** One gauge sample. */
struct TraceGaugeSample
{
    Tick tick = 0;
    TraceGauge gauge{};
    std::uint8_t device = 0; ///< device / engine index the gauge belongs to
    std::uint64_t value = 0;
};

/** Aggregated per-phase latency histogram. */
struct TracePhaseStats
{
    std::uint64_t count = 0; ///< closed intervals attributed to the phase
    Tick total = 0;          ///< sum of interval lengths
    Tick min = maxTick;      ///< shortest interval (maxTick when count==0)
    Tick max = 0;            ///< longest interval
    /// log2 buckets over the interval length in nanoseconds:
    /// bucket[i] counts intervals with ns in [2^(i-1), 2^i), bucket[0] < 1ns.
    std::array<std::uint64_t, 40> buckets{};

    double meanUs() const
    {
        return count ? ticksToUs(total) / static_cast<double>(count) : 0.0;
    }
};

/** Retained per-call summary: start/end plus the phase decomposition. */
struct TraceCallSummary
{
    int pid = 0;
    Tick start = 0; ///< callEntry time
    Tick end = 0;   ///< callComplete/callFailed time (0 while in flight)
    bool failed = false;
    std::array<Tick, numTracePhases> phaseTicks{}; ///< indexed by TracePhase

    /** Sum of all phase durations; equals end-start for finished calls. */
    Tick
    phaseSum() const
    {
        Tick s = 0;
        for (Tick t : phaseTicks)
            s += t;
        return s;
    }
};

/**
 * The event-tracing and latency-attribution subsystem.
 *
 * Components hold a `Tracer *` and call point()/gauge() at milestones;
 * both are no-ops returning before any allocation unless enable()-d
 * (SystemConfig::withTrace()). The FlickSystem owns one Tracer and
 * exposes it via debug().trace().
 */
class Tracer
{
  public:
    /** Whether tracing is recording. */
    bool on() const { return _on; }

    /** Start recording (SystemConfig::withTrace() calls this). */
    void enable() { _on = true; }

    /**
     * Drop all recorded events, gauges, histograms and call summaries
     * (recording state is kept). Benches use this to exclude warmup.
     */
    void reset();

    /**
     * Record milestone @p p for call @p callId of task @p pid at @p now.
     * Closes the call's open phase, opens the milestone's phase, and
     * appends a TraceEvent. Points for calls that never hit callEntry or
     * already finished are ignored (stale descriptors of dead calls).
     */
    void
    point(TracePoint p, Tick now, int pid, std::uint64_t call_id,
          unsigned device = 0, std::uint64_t arg = 0)
    {
        if (!_on)
            return;
        record(p, now, pid, call_id, device, arg);
    }

    /** Record gauge sample @p value for @p g on @p device at @p now. */
    void
    gauge(TraceGauge g, Tick now, unsigned device, std::uint64_t value)
    {
        if (!_on)
            return;
        recordGauge(g, now, device, value);
    }

    /** All recorded milestones, in emission order. */
    const std::vector<TraceEvent> &events() const { return _events; }

    /** All recorded gauge samples, in emission order. */
    const std::vector<TraceGaugeSample> &gauges() const { return _gauges; }

    /** Per-phase aggregate histogram. */
    const TracePhaseStats &
    phaseStats(TracePhase ph) const
    {
        return _phases[static_cast<unsigned>(ph)];
    }

    /** Retained call summaries, keyed by callId (sorted for determinism). */
    const std::map<std::uint64_t, TraceCallSummary> &calls() const
    {
        return _calls;
    }

    /**
     * Write a Chrome/Perfetto `trace_event` JSON document: one process
     * per machine, one track per core / DMA engine, "X" slices for
     * phases, flow arrows ("s"/"t"/"f") following callId across
     * machines, counter tracks for the gauges and instant markers (with
     * their task and arg) for the instant points. Load in
     * ui.perfetto.dev or chrome://tracing.
     */
    void dumpJson(std::ostream &os) const;

    /** Convenience: dumpJson to @p path; returns false on I/O failure. */
    bool dumpJson(const std::string &path) const;

    /** Print the Table-III-style per-phase breakdown (dumpStats hook). */
    void dumpBreakdown(std::ostream &os) const;

  private:
    void record(TracePoint p, Tick now, int pid, std::uint64_t call_id,
                unsigned device, std::uint64_t arg);
    void recordGauge(TraceGauge g, Tick now, unsigned device,
                     std::uint64_t value);
    void closePhase(std::uint64_t call_id, Tick now);

    /** The call's currently open phase, opened at tick `since`. */
    struct OpenPhase
    {
        TracePhase phase = TracePhase::none;
        Tick since = 0;
    };

    bool _on = false;
    std::vector<TraceEvent> _events;
    std::vector<TraceGaugeSample> _gauges;
    std::unordered_map<std::uint64_t, OpenPhase> _open;
    std::array<TracePhaseStats, numTracePhases> _phases{};
    std::map<std::uint64_t, TraceCallSummary> _calls;
};

} // namespace flick

#endif // FLICK_SIM_TRACE_HH
