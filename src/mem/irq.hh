/**
 * @file
 * Host interrupt controller model.
 *
 * Devices raise MSI-style vectors; delivery is charged the configured
 * latency and then runs the registered handler (the kernel's IRQ service
 * routine) in event context.
 */

#ifndef FLICK_MEM_IRQ_HH
#define FLICK_MEM_IRQ_HH

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/timing_config.hh"

namespace flick
{

class ChaosController;

/**
 * Delivers device interrupts to host-side handlers.
 */
class IrqController
{
  public:
    using Handler = std::function<void()>;

    IrqController(EventQueue &events, const TimingConfig &timing)
        : _events(events), _timing(timing), _stats("irq")
    {}

    /** Register (or replace) the handler for @p vector. */
    void
    connect(unsigned vector, Handler handler)
    {
        _handlers[vector] = std::move(handler);
    }

    /**
     * Raise @p vector; the handler runs after the delivery latency.
     * Raising an unconnected vector panics (a wiring bug).
     */
    void raise(unsigned vector);

    /**
     * Attach the machine's chaos controller. When attached and enabled,
     * a raised vector may be silently dropped (the receiver's timeout
     * path must recover), delivered twice, or delayed.
     */
    void setChaos(ChaosController *chaos) { _chaos = chaos; }

    StatGroup &stats() { return _stats; }

  private:
    EventQueue &_events;
    const TimingConfig &_timing;
    ChaosController *_chaos = nullptr;
    std::unordered_map<unsigned, Handler> _handlers;
    StatGroup _stats;
    /** Bumped once per crossing, so resolved once (DESIGN.md §17). */
    StatGroup::Counter _raised{_stats, "raised"};
};

} // namespace flick

#endif // FLICK_MEM_IRQ_HH
