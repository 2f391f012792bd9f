/**
 * @file
 * Discrete-event simulation queue.
 *
 * The EventQueue is the heart of the simulated machine: every core quantum,
 * DMA completion, interrupt delivery and timer expiry is an event. Events
 * scheduled for the same Tick fire in FIFO order of scheduling, which keeps
 * the simulation deterministic.
 */

#ifndef FLICK_SIM_EVENT_QUEUE_HH
#define FLICK_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "sim/ticks.hh"

namespace flick
{

/**
 * A time-ordered queue of callbacks driving the simulation forward.
 *
 * The queue is single-threaded and cooperative: callbacks run to completion
 * and may schedule further events (including at the current tick, which run
 * after all previously scheduled same-tick events).
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Opaque handle identifying a scheduled event, for deschedule(). */
    using EventId = std::uint64_t;

    EventQueue() = default;
    /** Frees every still-pending event (its callback never runs). */
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p cb to run at absolute time @p when.
     *
     * @param when Absolute tick; must not be in the past.
     * @param name Debug label, retained for diagnostics.
     * @param cb Callback to invoke.
     * @return Handle usable with deschedule().
     */
    EventId schedule(Tick when, std::string name, Callback cb);

    /** Schedule @p cb to run @p delay ticks from now. */
    EventId
    scheduleIn(Tick delay, std::string name, Callback cb)
    {
        return schedule(_now + delay, std::move(name), std::move(cb));
    }

    /**
     * Cancel a previously scheduled event.
     *
     * @return true if the event was pending and is now cancelled; false if
     *         it already fired or was already cancelled.
     */
    bool deschedule(EventId id);

    /** True when no events are pending. */
    bool empty() const { return _live == 0; }

    /** Number of pending (non-cancelled) events. */
    std::size_t pending() const { return _live; }

    /** Time of the earliest pending event, or maxTick if none. */
    Tick nextEventTime() const;

    /**
     * Run the earliest pending event.
     *
     * @return true if an event ran, false if the queue was empty.
     */
    bool step();

    /** Run until the queue drains. Returns the number of events run. */
    std::uint64_t run();

    /**
     * Run events with time <= @p limit; time stops at the last event run
     * (or advances to @p limit if advance_to_limit is set).
     *
     * @return Number of events run.
     */
    std::uint64_t runUntil(Tick limit, bool advance_to_limit = false);

    /** Total number of events executed over the queue's lifetime. */
    std::uint64_t eventsRun() const { return _eventsRun; }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq; //!< FIFO tie-break for same-tick events.
        EventId id;
        std::string name;
        Callback cb;
        bool cancelled = false;
    };

    struct Cmp
    {
        bool
        operator()(const Entry *a, const Entry *b) const
        {
            if (a->when != b->when)
                return a->when > b->when;
            return a->seq > b->seq;
        }
    };

    Entry *popNextLive();

    Tick _now = 0;
    std::uint64_t _seq = 0;
    EventId _nextId = 1;
    std::size_t _live = 0;
    std::uint64_t _eventsRun = 0;
    std::priority_queue<Entry *, std::vector<Entry *>, Cmp> _queue;
};

} // namespace flick

#endif // FLICK_SIM_EVENT_QUEUE_HH
