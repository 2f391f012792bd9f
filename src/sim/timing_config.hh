/**
 * @file
 * Timing model parameters for the simulated heterogeneous-ISA platform.
 *
 * Every latency in the simulation comes from this struct, so calibration
 * and ablation studies only ever touch one place. Defaults reproduce the
 * paper's prototype (Table I and the measurements quoted in Section V):
 * a 2.4 GHz Xeon-class host, a 200 MHz RV64I NxP behind PCIe 3.0 x8,
 * 825 ns host->NxP-DRAM and 267 ns NxP->local-DRAM round trips.
 */

#ifndef FLICK_SIM_TIMING_CONFIG_HH
#define FLICK_SIM_TIMING_CONFIG_HH

#include <cstdint>

#include "sim/ticks.hh"

namespace flick
{

/**
 * All tunable latencies and frequencies of the simulated platform.
 *
 * Members are grouped by subsystem. The "kernel charge" group models the
 * cost of the paper's (<2 kLoC) Linux modifications; these are charged as
 * fixed time rather than executed instruction-by-instruction, with values
 * calibrated so the Table III microbenchmark reproduces the paper's
 * 18.3 us / 16.9 us round trips (see EXPERIMENTS.md for the calibration).
 */
struct TimingConfig
{
    // --- Clock domains -----------------------------------------------
    /** Host core frequency (Xeon E5-2620v3 class). */
    std::uint64_t hostFreqHz = 2'400'000'000ull;
    /** NxP core frequency (RV12 soft core on the FPGA). */
    std::uint64_t nxpFreqHz = 200'000'000ull;

    // --- Memory access round trips (requester -> target) -------------
    /** Host core to host DRAM. */
    Tick hostToHostDram = ns(90);
    /** Host core to NxP DRAM through the PCIe BAR (paper: ~825 ns). */
    Tick hostToNxpDram = ns(825);
    /** NxP core to its local DRAM (paper: ~267 ns). */
    Tick nxpToNxpDram = ns(267);
    /** NxP core to host DRAM through the PCIe bridge. */
    Tick nxpToHostDram = ns(810);
    /** NxP core to a local device register (on-FPGA interconnect). */
    Tick nxpToLocalMmio = ns(40);
    /** Host core to an NxP device register (PCIe posted/non-posted). */
    Tick hostToNxpMmio = ns(825);

    // --- Caches --------------------------------------------------------
    /** NxP instruction cache: line size in bytes. */
    std::uint32_t nxpIcacheLineBytes = 64;
    /** NxP instruction cache: number of lines (direct mapped). */
    std::uint32_t nxpIcacheLines = 256;

    // --- Address translation ------------------------------------------
    /** Host TLB entries (modelled as one level, fully associative). */
    std::uint32_t hostTlbEntries = 1536;
    /** NxP L1 I-TLB entries (paper: 16, one-cycle). */
    std::uint32_t nxpItlbEntries = 16;
    /** NxP L1 D-TLB entries (paper: 16, one-cycle). */
    std::uint32_t nxpDtlbEntries = 16;
    /**
     * Programmable-MMU (MicroBlaze) fixed overhead per walk, on top of
     * the per-level page table reads from host memory.
     */
    Tick nxpMmuWalkOverhead = ns(400);
    /** Host hardware walker overhead per walk. */
    Tick hostMmuWalkOverhead = ns(20);

    // --- PCIe DMA engine and interrupts --------------------------------
    /** Fixed setup latency of one DMA burst transfer. */
    Tick dmaSetup = ns(1250);
    /** DMA per-byte cost (PCIe 3.0 x8 ~ 7.9 GB/s effective). */
    Tick dmaPerByte = ps(127);
    /** MSI interrupt delivery latency, device to host core. */
    Tick irqDelivery = ns(900);
    /**
     * Driver watchdog period for an outstanding device->host descriptor:
     * if the completion MSI was lost, a poll after this long finds the
     * landed descriptor and services it. Only armed when fault injection
     * is active, so the fault-free event stream is unchanged.
     */
    Tick descriptorTimeout = us(60);
    /**
     * Device health heartbeat: how often the driver checks that every
     * busy NxP device made forward progress (instructions retired, DMA
     * completed, descriptors consumed). Only armed when endpoint fault
     * injection or a call deadline is configured, so the fault-free
     * event stream is unchanged.
     */
    Tick deviceHeartbeat = us(60);

    // --- Kernel charges (the paper's Linux modifications) --------------
    /**
     * NX instruction page fault service: trap entry, fault decode,
     * return-address hijack (paper: the page fault accounts for 0.7 us
     * of the total migration overhead).
     */
    Tick nxFaultService = ns(700);
    /**
     * Trap exit and re-entry into the hijacked user-space handler after
     * the NX fault (host-initiated migrations only; this is what makes
     * Host-NxP-Host slower than NxP-Host-NxP in Table III).
     */
    Tick faultTrapExit = ns(700);
    /** ioctl() entry from user space into the migration driver. */
    Tick ioctlEntry = ns(800);
    /** ioctl() return back to user space. */
    Tick ioctlExit = ns(400);
    /** Descriptor packaging inside the driver (task_struct reads etc.). */
    Tick descriptorPack = ns(700);
    /** Suspend thread (TASK_KILLABLE) and context switch away. */
    Tick suspendSwitch = ns(2200);
    /** IRQ handler: find task by PID and mark runnable. */
    Tick irqWake = ns(1600);
    /** Scheduler latency from wakeup until the thread runs again. */
    Tick wakeupToRun = ns(4600);

    // --- NxP runtime charges (scheduler + migration handler) -----------
    /** NxP scheduler: poll loop iteration reading the DMA status reg. */
    std::uint32_t nxpPollCycles = 24;
    /** NxP context switch (save/restore integer state) in cycles. */
    std::uint32_t nxpCtxSwitchCycles = 96;
    /** NxP descriptor read/parse or build/write, in cycles. */
    std::uint32_t nxpDescriptorCycles = 120;

    // --- Host runtime charges (user-space migration handler) -----------
    /** Host migration handler prologue/argument gathering in cycles. */
    std::uint32_t hostHandlerCycles = 320;
    /** First-migration NxP stack allocation (one-time, per thread). */
    Tick nxpStackAllocate = us(4);

    /** Clock domain helper for the host. */
    ClockDomain hostClock() const { return ClockDomain(hostFreqHz); }
    /** Clock domain helper for the NxP. */
    ClockDomain nxpClock() const { return ClockDomain(nxpFreqHz); }

    /** Cost of a DMA burst of @p bytes. */
    Tick
    dmaTransfer(std::uint64_t bytes) const
    {
        return dmaSetup + bytes * dmaPerByte;
    }
};

} // namespace flick

#endif // FLICK_SIM_TIMING_CONFIG_HH
