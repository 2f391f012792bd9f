/**
 * @file
 * Protocol trace: watch Figure 2 happen.
 *
 * Runs one nested bidirectional call — the host calls an NxP function
 * which calls a host function — with tracing enabled, and prints every
 * trace point with its simulated timestamp: the NX fault, the descriptor
 * DMA (fired only after the host thread is suspended), the NxP dispatch,
 * the reverse call, and both returns.
 *
 * This example uses the synchronous call() API (submit + wait); the
 * other examples use submit()/CallFuture directly.
 */

#include <cstdio>

#include "flick/system.hh"
#include "workloads/microbench.hh"

using namespace flick;

namespace
{

/** Where a trace point sits in Figure 2's (a)..(g) walkthrough. */
const char *
describe(TracePoint p)
{
    switch (p) {
      case TracePoint::callEntry: return "    call starts on the host";
      case TracePoint::hostNxFault:
        return "(a) host fetched NxP text: NX page fault";
      case TracePoint::hostDescBuild:
        return "    host kernel packs a call/return descriptor";
      case TracePoint::kernelSuspend: return "    thread suspended";
      case TracePoint::dmaToNxpStart:
        return "    descriptor DMA fired (after the suspend!)";
      case TracePoint::dmaToNxpDone:
        return "    descriptor landed in the NxP inbox";
      case TracePoint::nxpCallStart:
        return "(b) target function entered on the NxP";
      case TracePoint::nxpFault: return "(c) NxP fetched host text: fault";
      case TracePoint::nxpDescBuild:
        return "    NxP packs a call/return descriptor";
      case TracePoint::dmaToHostStart:
        return "    descriptor DMA to the host fired";
      case TracePoint::dmaToHostDone: return "    DMA done, MSI raised";
      case TracePoint::kernelWake: return "    thread marked runnable";
      case TracePoint::hostWake: return "    host woken by the DMA interrupt";
      case TracePoint::kernelResume: return "    thread switched back in";
      case TracePoint::hostCallStart:
        return "(d) target host function entered";
      case TracePoint::nxpResume:
        return "(f) NxP resumed the original function";
      case TracePoint::hostResume:
        return "(g) host resumed with the return value";
      case TracePoint::callComplete: return "    call complete";
      default: return "";
    }
}

} // namespace

int
main()
{
    FlickSystem sys(SystemConfig{}.withTrace());
    Program prog;
    workloads::addMicrobench(prog);
    Process &proc = sys.load(prog);

    sys.call(proc, "nxp_noop"); // one-time NxP stack allocation
    sys.debug().trace().reset();

    Tick t0 = sys.now();
    sys.call(proc, "nxp_calls_host", {1});

    std::printf("one nested cross-ISA call (Figure 2's full walkthrough)"
                ":\n\n");
    std::printf("%10s  %-14s  %s\n", "t (us)", "point", "detail");
    for (const TraceEvent &e : sys.debug().trace().events()) {
        std::printf("%10.2f  %-14s  %s\n", ticksToUs(e.tick - t0),
                    tracePointName(e.point), describe(e.point));
    }

    std::printf("\ntotal: %.1f us for host->NxP->host->NxP->host\n",
                ticksToUs(sys.now() - t0));
    return 0;
}
