/**
 * @file
 * The NxP platform control block.
 *
 * Models the FPGA-side device registers of the prototype (Figure 4): the
 * DMA status register the NxP scheduler polls for inbound migration
 * descriptors, the acknowledge register, and the TLB BAR-remap control
 * register written by the host driver at bring-up (Section IV-A). Visible
 * to the NxP at the local control window and to the host through BAR1.
 */

#ifndef FLICK_FLICK_NXP_PLATFORM_HH
#define FLICK_FLICK_NXP_PLATFORM_HH

#include "mem/device.hh"
#include "mem/mem_system.hh"
#include "sim/stats.hh"
#include "vm/mmu.hh"

namespace flick
{

/**
 * Control registers plus the descriptor mailbox bookkeeping.
 */
class NxpPlatform : public MmioDevice
{
  public:
    // Register offsets within the 4 KB control window.
    static constexpr Addr regStatus = 0x00;   //!< RO: pending descriptors.
    static constexpr Addr regAck = 0x08;      //!< WO: consume one.
    static constexpr Addr regBarRemap = 0x10; //!< WO: TLB remap offset.

    explicit NxpPlatform(MemSystem &mem, unsigned device = 0)
        : _mem(mem), _device(device),
          _stats(device == 0
                     ? "nxp_platform"
                     : "nxp" + std::to_string(device + 1) + "_platform")
    {
        _mem.mapControlDevice(this, device);
    }

    /** Which NxP device this control block belongs to. */
    unsigned device() const { return _device; }

    /** Attach the NxP core's MMU so regBarRemap can program its TLBs. */
    void setNxpMmu(Mmu *mmu) { _nxpMmu = mmu; }

    /**
     * Local physical address of the inbound descriptor ring (slot 0).
     * The single-slot accessors below are the ring's first slot, which
     * keeps the serial (one in-flight descriptor) layout unchanged.
     */
    Addr
    inboxLocalPa() const
    {
        return _mem.platform().nxpDramLocalBase;
    }

    /** Local physical address of the outbound descriptor ring (slot 0). */
    Addr
    outboxLocalPa() const
    {
        return _mem.platform().nxpDramLocalBase + 0x1000;
    }

    /** Largest ring the 4 KB mailbox windows can hold. */
    static constexpr unsigned maxRingSlots = 32;

    /** Local physical address of inbound ring slot @p slot. */
    Addr
    inboxSlotPa(unsigned slot) const
    {
        return inboxLocalPa() + slot * 128;
    }

    /** Local physical address of outbound ring slot @p slot. */
    Addr
    outboxSlotPa(unsigned slot) const
    {
        return outboxLocalPa() + slot * 128;
    }

    /** DMA completion callback: a descriptor landed in the inbox. */
    void
    inboxArrived()
    {
        ++_pending;
        _inboxArrivals.inc();
    }

    unsigned pendingInbox() const { return _pending; }

    /** Consume one inbound descriptor (the scheduler's ACK). */
    void consumeInbox();

    // MmioDevice interface.
    std::uint64_t mmioRead(Addr offset, unsigned len) override;
    void mmioWrite(Addr offset, std::uint64_t value, unsigned len) override;

    StatGroup &stats() { return _stats; }

  private:
    MemSystem &_mem;
    unsigned _device = 0;
    Mmu *_nxpMmu = nullptr;
    unsigned _pending = 0;
    StatGroup _stats;
    // Bumped once per crossing, so resolved once (DESIGN.md §17).
    StatGroup::Counter _inboxArrivals{_stats, "inbox_arrivals"};
    StatGroup::Counter _inboxAcks{_stats, "inbox_acks"};
    StatGroup::Counter _statusReads{_stats, "status_reads"};
};

} // namespace flick

#endif // FLICK_FLICK_NXP_PLATFORM_HH
