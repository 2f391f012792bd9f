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
#include <memory>
#include <vector>

#include "sim/inline_callback.hh"
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
    using Callback = InlineCallback;

    /** Opaque handle identifying a scheduled event, for deschedule(). */
    using EventId = std::uint64_t;

    EventQueue() = default;
    /** Frees every still-pending event (its callback never runs). */
    ~EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p cb to run at absolute time @p when. The closure is
     * built straight into the event's slot.
     *
     * @param when Absolute tick; must not be in the past.
     * @param name Debug label (a string with static storage, typically a
     *        literal), retained for diagnostics.
     * @param cb Callback to invoke: a closure or a Callback.
     * @return Handle usable with deschedule().
     */
    template <class F>
    EventId
    schedule(Tick when, const char *name, F &&cb)
    {
        Slot &s = claim(when, name);
        s.cb = std::forward<F>(cb);
        return _seq; // claim() took seq _seq - 1, whose id is _seq
    }

    /** Schedule @p cb to run @p delay ticks from now. */
    template <class F>
    EventId
    scheduleIn(Tick delay, const char *name, F &&cb)
    {
        return schedule(_now + delay, name, std::forward<F>(cb));
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

    /**
     * Time of the earliest pending event, or maxTick if none. Discards
     * cancelled events sitting at the head of the queue on the way.
     */
    Tick nextEventTime();

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
    /**
     * A pooled event. Slots are reused through a free list once their
     * event has fired or its cancellation has been popped, so scheduling
     * allocates no entry per event.
     */
    struct Slot
    {
        Callback cb;
        const char *name = nullptr;
        bool cancelled = false;
    };

    /** Slots come in chunks that never move, so a callback runs where
     *  it lies while the events it schedules add chunks. */
    static constexpr unsigned chunkShift = 6;
    static constexpr std::uint32_t chunkSlots = 1u << chunkShift;

    Slot &
    slot(std::uint32_t i)
    {
        return _chunks[i >> chunkShift][i & (chunkSlots - 1)];
    }

    /**
     * Take a free slot for an event at @p when, label it and push its
     * key; schedule() then stores the callback in it.
     */
    Slot &claim(Tick when, const char *name);

    /**
     * Heap key: the firing order (when, then FIFO seq) plus the slot, so
     * a sift moves 24 bytes and compares without touching the slot.
     */
    struct Key
    {
        Tick when;
        std::uint64_t seq; //!< The event's id is seq + 1.
        std::uint32_t slot;
    };

    /** Heap order: true when @p a fires after @p b (a min-heap). */
    static bool
    later(const Key &a, const Key &b)
    {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }

    /** Remove the head key and return its slot to the free list. */
    void popHead();

    /** Discard cancelled events at the head; true if one is left. */
    bool liveHead();

    Tick _now = 0;
    std::uint64_t _seq = 0;
    std::size_t _live = 0;
    std::uint64_t _eventsRun = 0;
    std::vector<std::unique_ptr<Slot[]>> _chunks;
    std::uint32_t _slotCount = 0; //!< Slots handed out so far.
    std::vector<std::uint32_t> _free;
    std::vector<Key> _heap;
};

} // namespace flick

#endif // FLICK_SIM_EVENT_QUEUE_HH
