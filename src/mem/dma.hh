/**
 * @file
 * PCIe burst DMA engine.
 *
 * Flick transfers migration descriptors in a single PCIe burst rather than
 * word-by-word stores (Section IV-B); this engine models that: a transfer
 * has a fixed setup cost plus a per-byte cost, bytes land at completion
 * time, and completion may raise a host interrupt. Transfers issued while
 * the engine is busy queue FIFO behind the current one.
 */

#ifndef FLICK_MEM_DMA_HH
#define FLICK_MEM_DMA_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "mem/mem_system.hh"
#include "sim/event_queue.hh"
#include "sim/inline_callback.hh"
#include "sim/stats.hh"

namespace flick
{

class ChaosController;
class IrqController;
class Tracer;

/**
 * The FPGA-side DMA engine, bus master on both the PCIe link and the
 * local memory interconnect.
 */
class DmaEngine
{
  public:
    using Callback = InlineCallback;

    /**
     * @param nxp_device Which NxP device this engine belongs to; its
     *        local addresses resolve into that device's DRAM.
     */
    DmaEngine(EventQueue &events, MemSystem &mem, IrqController *irq,
              unsigned nxp_device = 0)
        : _events(events), _mem(mem), _irq(irq), _device(nxp_device),
          _stats(nxp_device == 0 ? "dma"
                                 : "dma" + std::to_string(nxp_device + 1))
    {}

    /**
     * Copy @p len bytes from host DRAM to NxP local DRAM.
     *
     * @param host_pa Source, host physical address space.
     * @param nxp_local_pa Destination, NxP-local physical address space.
     * @param done Runs at completion (after data is visible).
     */
    void copyHostToNxp(Addr host_pa, Addr nxp_local_pa, std::uint64_t len,
                       Callback done = nullptr);

    /**
     * Copy @p len bytes from NxP local DRAM to host DRAM.
     *
     * @param irq_vector If non-negative, raise this host IRQ vector at
     *        completion (the mechanism waking suspended threads).
     */
    void copyNxpToHost(Addr nxp_local_pa, Addr host_pa, std::uint64_t len,
                       int irq_vector = -1, Callback done = nullptr);

    /** True while a transfer is in flight. */
    bool busy() const { return _busy; }

    /**
     * Attach the machine's chaos controller. When attached and enabled,
     * transfers may land with flipped payload bits and may be charged
     * extra latency; the destination bytes are corrupted, never the
     * sender's staging copy (faults happen on the link, not in the
     * source buffer), so a retransmission of the same slot can recover.
     */
    void setChaos(ChaosController *chaos) { _chaos = chaos; }

    /**
     * Attach the tracer; the engine then samples its queue depth
     * (active + pending transfers) whenever a transfer is accepted or
     * retired. Passive — transfer behaviour and timing are unchanged.
     */
    void setTracer(Tracer *tracer) { _tracer = tracer; }

    StatGroup &stats() { return _stats; }

  private:
    struct Transfer
    {
        bool to_nxp;
        Addr src;
        Addr dst;
        std::uint64_t len;
        int irq_vector;
        Callback done;
    };

    void enqueue(Transfer t);
    /** Start _active: charge it and schedule its completion. */
    void start();
    /** Land _active's bytes, run its callback, start the next one. */
    void complete();
    /** Sample the queue-depth gauge (no-op without an enabled tracer). */
    void traceQueueDepth();
    /** Maybe flip bits in an in-flight payload of @p len bytes (chaos). */
    void corrupt(std::uint8_t *buf, std::uint64_t len);

    EventQueue &_events;
    MemSystem &_mem;
    IrqController *_irq;
    ChaosController *_chaos = nullptr;
    Tracer *_tracer = nullptr;
    unsigned _device;
    bool _busy = false;
    //! The transfer in flight while _busy, so its completion event
    //! captures only the engine.
    Transfer _active{};
    std::deque<Transfer> _pending;
    /** Landing buffer for complete(), reused by every transfer. */
    std::vector<std::uint8_t> _bounce;
    StatGroup _stats;
    // Bumped once per transfer, so resolved once (DESIGN.md §17).
    StatGroup::Counter _queued{_stats, "queued"};
    StatGroup::Counter _transfers{_stats, "transfers"};
    StatGroup::Counter _bytes{_stats, "bytes"};
};

} // namespace flick

#endif // FLICK_MEM_DMA_HH
