/**
 * @file
 * Protocol trace: watch Figure 2 happen.
 *
 * Runs one nested bidirectional call — the host calls an NxP function
 * which calls a host function — with the migration journal enabled, and
 * prints every protocol step with its simulated timestamp: the NX fault,
 * the descriptor DMA (fired only after the host thread is suspended),
 * the NxP pickup, the reverse call, and both returns.
 *
 * This example uses the synchronous call() API (submit + wait); the
 * other examples use submit()/CallFuture directly.
 */

#include <cstdio>

#include "flick/system.hh"
#include "workloads/microbench.hh"

using namespace flick;

int
main()
{
    FlickSystem sys;
    Program prog;
    workloads::addMicrobench(prog);
    Process &proc = sys.load(prog);

    sys.call(proc, "nxp_noop"); // one-time NxP stack allocation
    sys.debug().engine().enableJournal();

    Tick t0 = sys.now();
    sys.call(proc, "nxp_calls_host", {1});

    std::printf("one nested cross-ISA call (Figure 2's full walkthrough)"
                ":\n\n");
    std::printf("%10s  %-14s  %s\n", "t (us)", "step", "detail");
    const char *detail[] = {
        "(a) host fetched NxP text: NX page fault",
        "    first-migration NxP stack allocation",
        "(a) call descriptor packaged, thread suspended",
        "    descriptor DMA fired (after the suspend!)",
        "(b) NxP scheduler picked the descriptor up",
        "(b) target function entered on the NxP",
        "(c) NxP fetched host text: fault",
        "(c) NxP-to-host call descriptor sent",
        "(d) host woken by the DMA interrupt",
        "(d) target host function entered",
        "(e) host-to-NxP return descriptor sent",
        "(f) NxP resumed the original function",
        "(f) NxP-to-host return descriptor sent",
        "(g) host resumed with the return value",
    };
    for (const ProtocolEvent &e : sys.debug().engine().journal()) {
        std::printf("%10.2f  %-14s  %s\n", ticksToUs(e.when - t0),
                    protocolStepName(e.step),
                    detail[static_cast<int>(e.step)]);
    }

    std::printf("\ntotal: %.1f us for host->NxP->host->NxP->host\n",
                ticksToUs(sys.now() - t0));
    return 0;
}
