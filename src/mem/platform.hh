/**
 * @file
 * Physical address map of the simulated heterogeneous-ISA platform.
 *
 * The platform reproduces Figure 3 of the paper: the host sees its own
 * DRAM at low addresses and the NxP's local DRAM through a PCIe BAR
 * (default 0xA0000000); the NxP sees host DRAM at the host's own addresses
 * through the PCIe bridge and its local DRAM at 0x80000000. The
 * BAR-to-local offset that the NxP TLB must subtract is barRemapOffset().
 */

#ifndef FLICK_MEM_PLATFORM_HH
#define FLICK_MEM_PLATFORM_HH

#include <cstdint>

#include "mem/sparse_memory.hh"

namespace flick
{

/**
 * Sizes and base addresses of every region in the platform.
 *
 * Defaults mirror the paper's prototype: 4 GB of NxP-side DDR3 exposed as
 * a BAR, NxP local DRAM at 0x80000000, and a remap offset of 0x40000000 —
 * the offset in Section IV-A's worked example. (The BAR therefore sits at
 * 0xC0000000; the paper's figure draws it at 0xA0000000 while its text
 * computes offset 0x40000000 — we follow the text, which also keeps the
 * BAR 1 GB-aligned as required for the prototype's 1 GB huge-page maps.)
 */
struct PlatformConfig
{
    /** Host DRAM size (kept below the PCI hole; sparse, so cheap). */
    std::uint64_t hostDramBytes = 2ull << 30;
    /** NxP local DRAM size (paper: 4 GB DDR3 DIMM). */
    std::uint64_t nxpDramBytes = 4ull << 30;
    /** Host-side physical base of BAR0 (the NxP DRAM window). */
    Addr bar0Base = 0xC0000000ull;
    /** NxP-side physical base of the local DRAM. */
    Addr nxpDramLocalBase = 0x80000000ull;
    /** NxP-side physical base of the local control/peripheral window. */
    Addr nxpCtrlLocalBase = 0x60000000ull;
    /** Size of the control window (one page of registers). */
    std::uint64_t nxpCtrlBytes = 4096;
    /**
     * Bytes at the start of every device's local DRAM reserved for the
     * platform (the descriptor mailbox rings); allocations start past
     * them.
     */
    static constexpr std::uint64_t nxpReservedBytes = 1ull << 20;

    /**
     * Number of NxP devices in the system. Every device — think a fabric
     * of near-NIC and near-storage processors — has the same device-local
     * layout; device 0 is exposed to the host at bar0Base and device k >= 1
     * at bar2Base + (k-1) * barStride.
     */
    unsigned nxpDeviceCount = 1;
    /** Local DRAM size of devices beyond the first. */
    std::uint64_t nxp2DramBytes = 4ull << 30;
    /** Host-side physical base of the second device's DRAM window. */
    Addr bar2Base = 0x200000000ull;
    /** Host-side BAR spacing between consecutive devices beyond the first. */
    std::uint64_t barStride = 0x200000000ull;
    /** Local DRAM size of device @p device. */
    std::uint64_t
    deviceDramBytes(unsigned device) const
    {
        return device == 0 ? nxpDramBytes : nxp2DramBytes;
    }

    /** Host-side physical base of device @p device's DRAM window. */
    Addr
    barBase(unsigned device) const
    {
        return device == 0 ? bar0Base : bar2Base + (device - 1) * barStride;
    }

    /** Host-side physical base of device @p device's control window. */
    Addr ctrlBase(unsigned device) const
    {
        return barBase(device) + deviceDramBytes(device);
    }

    /**
     * Offset device @p device's TLB subtracts from its BAR-range physical
     * addresses to form local addresses (written into the TLB control
     * register by the host driver, per Section IV-A).
     */
    Addr barRemapOffsetFor(unsigned device) const
    {
        return barBase(device) - nxpDramLocalBase;
    }

    /** Host-side physical base of BAR1 (device 0's control window). */
    Addr bar1Base() const { return ctrlBase(0); }

    /** Host-side physical base of the second device's control window. */
    Addr bar3Base() const { return ctrlBase(1); }

    /** Remap offset for the second device's TLBs. */
    Addr barRemapOffset2() const { return barRemapOffsetFor(1); }

    /** Remap offset for device 0's TLBs (Section IV-A's worked example). */
    Addr barRemapOffset() const { return barRemapOffsetFor(0); }

    /**
     * Find the device whose host-side DRAM window contains @p pa.
     * @return true and sets @p device on a hit.
     */
    bool
    inBarDram(Addr pa, unsigned &device) const
    {
        for (unsigned k = 0; k < nxpDeviceCount; ++k) {
            if (pa >= barBase(k) && pa < barBase(k) + deviceDramBytes(k)) {
                device = k;
                return true;
            }
        }
        return false;
    }

    /**
     * Find the device whose host-side control window contains @p pa.
     * @return true and sets @p device on a hit.
     */
    bool
    inBarCtrl(Addr pa, unsigned &device) const
    {
        for (unsigned k = 0; k < nxpDeviceCount; ++k) {
            if (pa >= ctrlBase(k) && pa < ctrlBase(k) + nxpCtrlBytes) {
                device = k;
                return true;
            }
        }
        return false;
    }

    /** True if @p pa lies in host DRAM. */
    bool
    inHostDram(Addr pa) const
    {
        return pa < hostDramBytes;
    }

    /** True if @p pa lies in the host-side BAR0 window. */
    bool
    inBar0(Addr pa) const
    {
        return pa >= barBase(0) && pa < barBase(0) + deviceDramBytes(0);
    }

    /** True if @p pa lies in the host-side BAR1 window. */
    bool
    inBar1(Addr pa) const
    {
        return pa >= bar1Base() && pa < bar1Base() + nxpCtrlBytes;
    }

    /** True if @p pa lies in the second device's DRAM window. */
    bool
    inBar2(Addr pa) const
    {
        return nxpDeviceCount > 1 && pa >= barBase(1) &&
               pa < barBase(1) + deviceDramBytes(1);
    }

    /** True if @p pa lies in the second device's control window. */
    bool
    inBar3(Addr pa) const
    {
        return nxpDeviceCount > 1 && pa >= bar3Base() &&
               pa < bar3Base() + nxpCtrlBytes;
    }

    /** True if @p pa lies in the NxP-side local DRAM window. */
    bool
    inNxpLocalDram(Addr pa) const
    {
        return pa >= nxpDramLocalBase && pa < nxpDramLocalBase + nxpDramBytes;
    }

    /** True if @p pa lies in the NxP-side control window. */
    bool
    inNxpCtrl(Addr pa) const
    {
        return pa >= nxpCtrlLocalBase && pa < nxpCtrlLocalBase + nxpCtrlBytes;
    }
};

} // namespace flick

#endif // FLICK_MEM_PLATFORM_HH
