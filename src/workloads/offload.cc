#include "workloads/offload.hh"

#include "sim/logging.hh"

namespace flick::workloads
{

OffloadRunner::OffloadRunner(FlickSystem &sys, Process &process)
    : _sys(sys), _process(process)
{
    _jobSlot = sys.nxpMalloc(128, 128);
    _completion = sys.nxpMalloc(16, 16);
    _nxpStack = sys.nxpMalloc(64 * 1024, 16) + 64 * 1024;
}

std::uint64_t
OffloadRunner::call(VAddr target, const std::vector<std::uint64_t> &args,
                    OffloadWait wait)
{
    const TimingConfig &t = _sys.config().timing;
    ClockDomain nxp_clk = t.nxpClock();
    ++_jobs;

    // --- Host side: marshal the job descriptor --------------------------
    // The developer packs function id and arguments by hand; the
    // descriptor ships in one DMA burst (an optimized offload stack; a
    // naive one would use 16 PIO stores at 825 ns each).
    _sys.writeVa(_process, _jobSlot, target);
    _sys.writeVa(_process, _jobSlot + 8, args.size());
    for (std::size_t i = 0; i < args.size(); ++i)
        _sys.writeVa(_process, _jobSlot + 16 + 8 * i, args[i]);
    _sys.writeVa(_process, _completion, 0); // clear the completion word
    _sys.advanceTime(t.hostClock().cycles(120)); // marshalling code
    _sys.advanceTime(t.dmaTransfer(128));        // descriptor burst
    _sys.advanceTime(t.hostToNxpMmio);           // doorbell

    // --- NxP side: firmware picks the job up ---------------------------
    _sys.advanceTime(nxp_clk.cycles(t.nxpPollCycles) + t.nxpToLocalMmio);
    _sys.advanceTime(nxp_clk.cycles(t.nxpDescriptorCycles) +
                     t.nxpToNxpDram);

    Rv64Core &core = _sys.debug().nxpCore();
    core.mmu().setCr3(_process.image.cr3);
    core.setStackPointer(_nxpStack & ~std::uint64_t(15));
    core.setupCall(target, args);
    RunResult r = core.run();
    _sys.advanceTime(r.elapsed);
    if (r.stop != Fault::trampoline) {
        fatal("offload job stopped with %s at %#llx: the offload model "
              "cannot call host code (use Flick for that)",
              faultName(r.stop), (unsigned long long)r.faultVa);
    }
    std::uint64_t result = core.retVal();

    // Firmware posts result + completion word to local memory.
    _sys.writeVa(_process, _completion + 8, result);
    _sys.writeVa(_process, _completion, 1);
    _sys.advanceTime(nxp_clk.cycles(24) + t.nxpToNxpDram);

    // --- Host side: wait for completion ---------------------------------
    if (wait == OffloadWait::busyPoll) {
        // The host spins on the completion word across PCIe. On average
        // the last poll is in flight when the word flips: charge one
        // full poll round trip plus the result read.
        _sys.advanceTime(t.hostToNxpDram);     // final poll observes done
        _sys.advanceTime(t.hostToNxpDram);     // read the result word
    } else {
        // Interrupt-driven: the same device IRQ + kernel wake-up path a
        // migrating thread pays.
        _sys.advanceTime(t.irqDelivery + t.irqWake + t.wakeupToRun +
                         t.ioctlExit);
        _sys.advanceTime(t.hostToNxpDram); // read the result word
    }
    return result;
}

} // namespace flick::workloads
