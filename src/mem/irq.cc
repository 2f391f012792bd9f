#include "mem/irq.hh"

#include "sim/chaos.hh"
#include "sim/logging.hh"

namespace flick
{

void
IrqController::raise(unsigned vector)
{
    auto it = _handlers.find(vector);
    if (it == _handlers.end())
        panic("IRQ vector %u raised with no handler connected", vector);
    _raised.inc();
    if (_chaos && _chaos->shouldDropIrq()) {
        _stats.inc("dropped");
        return;
    }
    Tick latency = _timing.irqDelivery;
    if (_chaos) {
        Tick extra = _chaos->extraIrqDelay();
        if (extra) {
            latency += extra;
            _stats.inc("chaos_delays");
        }
    }
    Handler &h = it->second;
    _events.scheduleIn(latency, "irq", [&h] { h(); });
    if (_chaos && _chaos->shouldDuplicateIrq()) {
        _stats.inc("duplicated");
        // The ghost copy lands shortly after the real one.
        _events.scheduleIn(latency + _timing.irqDelivery / 4, "irq-dup",
                           [&h] { h(); });
    }
}

} // namespace flick
