#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace flick
{

EventQueue::Slot &
EventQueue::claim(Tick when, const char *name)
{
    if (when < _now) {
        panic("event '%s' scheduled in the past (%llu < %llu)", name,
              (unsigned long long)when, (unsigned long long)_now);
    }
    std::uint32_t i;
    if (_free.empty()) {
        i = _slotCount++;
        if ((i & (chunkSlots - 1)) == 0)
            _chunks.push_back(std::make_unique<Slot[]>(chunkSlots));
    } else {
        i = _free.back();
        _free.pop_back();
    }
    Slot &s = slot(i);
    s.name = name;
    s.cancelled = false;
    _heap.push_back({when, _seq++, i});
    std::push_heap(_heap.begin(), _heap.end(), later);
    ++_live;
    return s;
}

bool
EventQueue::deschedule(EventId id)
{
    // Mark-and-skip: the key stays in the heap (and the callback keeps
    // its captures) until it reaches the head and is discarded there.
    // Nothing on the simulator's hot path cancels events, so a scan of
    // the contiguous keys is enough to find it.
    for (const Key &k : _heap) {
        if (k.seq + 1 != id)
            continue;
        Slot &s = slot(k.slot);
        if (s.cancelled)
            return false;
        s.cancelled = true;
        --_live;
        return true;
    }
    return false;
}

void
EventQueue::popHead()
{
    std::uint32_t i = _heap.front().slot;
    std::pop_heap(_heap.begin(), _heap.end(), later);
    _heap.pop_back();
    slot(i).cb = nullptr;
    _free.push_back(i);
}

bool
EventQueue::liveHead()
{
    while (!_heap.empty() && slot(_heap.front().slot).cancelled)
        popHead();
    return !_heap.empty();
}

Tick
EventQueue::nextEventTime()
{
    return liveHead() ? _heap.front().when : maxTick;
}

bool
EventQueue::step()
{
    if (!liveHead())
        return false;
    const Key head = _heap.front();
    std::pop_heap(_heap.begin(), _heap.end(), later);
    _heap.pop_back();
    _now = head.when;
    --_live;
    ++_eventsRun;
    // Run the callback in its slot and recycle the slot afterwards: the
    // events it schedules take other slots, and chunks never move.
    Slot &s = slot(head.slot);
    s.cb();
    s.cb = nullptr;
    _free.push_back(head.slot);
    return true;
}

std::uint64_t
EventQueue::run()
{
    std::uint64_t n = 0;
    while (step())
        ++n;
    return n;
}

std::uint64_t
EventQueue::runUntil(Tick limit, bool advance_to_limit)
{
    std::uint64_t n = 0;
    while (true) {
        Tick next = nextEventTime();
        if (next == maxTick || next > limit)
            break;
        step();
        ++n;
    }
    if (advance_to_limit && _now < limit)
        _now = limit;
    return n;
}

} // namespace flick
