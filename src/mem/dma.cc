#include "mem/dma.hh"

#include "mem/irq.hh"
#include "sim/chaos.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace flick
{

void
DmaEngine::copyHostToNxp(Addr host_pa, Addr nxp_local_pa, std::uint64_t len,
                         Callback done)
{
    enqueue({true, host_pa, nxp_local_pa, len, -1, std::move(done)});
}

void
DmaEngine::copyNxpToHost(Addr nxp_local_pa, Addr host_pa, std::uint64_t len,
                         int irq_vector, Callback done)
{
    enqueue({false, nxp_local_pa, host_pa, len, irq_vector,
             std::move(done)});
}

void
DmaEngine::traceQueueDepth()
{
    if (_tracer)
        _tracer->gauge(TraceGauge::dmaQueue, _events.now(), _device,
                       _pending.size() + (_busy ? 1 : 0));
}

void
DmaEngine::enqueue(Transfer t)
{
    if (_busy) {
        _queued.inc();
        _pending.push_back(std::move(t));
        traceQueueDepth();
        return;
    }
    _active = std::move(t);
    start();
    traceQueueDepth();
}

void
DmaEngine::start()
{
    const Transfer &t = _active;
    _busy = true;
    _transfers.inc();
    _bytes.inc(t.len);
    if (_chaos && _chaos->shouldStickDma()) {
        // The engine wedges: this transfer never completes, its bytes
        // never land, and everything queued behind it stalls with it.
        // No completion event is scheduled — recovery is the migration
        // engine's health watchdog quarantining the device, not a
        // retransmission (nothing was NAKed, nothing will be).
        _stats.inc("chaos_stuck");
        return;
    }
    Tick latency = _mem.timing().dmaTransfer(t.len);
    if (_chaos) {
        Tick extra = _chaos->extraDmaDelay();
        if (extra) {
            latency += extra;
            _stats.inc("chaos_delays");
        }
    }
    _events.scheduleIn(latency, t.to_nxp ? "dmaToNxp" : "dmaToHost",
                       [this] { complete(); });
}

void
DmaEngine::corrupt(std::uint8_t *buf, std::uint64_t len)
{
    if (!_chaos || len == 0 || !_chaos->shouldCorruptDma())
        return;
    unsigned bits = _chaos->corruptBitCount();
    for (unsigned i = 0; i < bits; ++i) {
        std::uint64_t bit = _chaos->pick(len * 8);
        buf[bit / 8] ^= std::uint8_t(1u << (bit % 8));
    }
    _stats.inc("chaos_corruptions");
}

void
DmaEngine::complete()
{
    const PlatformConfig &p = _mem.platform();
    Transfer &t = _active;

    // Move the bytes between backing stores. The engine addresses host
    // memory with host physical addresses and local memory with NxP-local
    // physical addresses, exactly like the FPGA bus master would.
    if (_bounce.size() < t.len)
        _bounce.resize(t.len);
    std::uint8_t *buf = _bounce.data();
    if (t.to_nxp) {
        if (!p.inHostDram(t.src) || !p.inNxpLocalDram(t.dst))
            panic("DMA host->NxP with bad addresses src=%#llx dst=%#llx",
                  (unsigned long long)t.src, (unsigned long long)t.dst);
        _mem.hostDram().read(t.src, buf, t.len);
        corrupt(buf, t.len);
        _mem.nxpDram(_device).write(t.dst - p.nxpDramLocalBase, buf,
                                    t.len);
    } else {
        if (!p.inNxpLocalDram(t.src) || !p.inHostDram(t.dst))
            panic("DMA NxP->host with bad addresses src=%#llx dst=%#llx",
                  (unsigned long long)t.src, (unsigned long long)t.dst);
        _mem.nxpDram(_device).read(t.src - p.nxpDramLocalBase, buf,
                                   t.len);
        corrupt(buf, t.len);
        _mem.hostDram().write(t.dst, buf, t.len);
    }

    if (t.irq_vector >= 0) {
        if (!_irq)
            panic("DMA completion IRQ requested with no IRQ controller");
        _irq->raise(static_cast<unsigned>(t.irq_vector));
    }
    // While the callback runs the engine is still busy, so a transfer it
    // issues queues behind this one and _active stays put.
    if (t.done) {
        t.done();
        t.done = nullptr;
    }

    _busy = false;
    if (!_pending.empty()) {
        _active = std::move(_pending.front());
        _pending.pop_front();
        start();
    }
    traceQueueDepth();
}

} // namespace flick
