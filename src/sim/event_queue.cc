#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace flick
{

EventQueue::EventId
EventQueue::schedule(Tick when, const char *name, Callback cb)
{
    if (when < _now) {
        panic("event '%s' scheduled in the past (%llu < %llu)", name,
              (unsigned long long)when, (unsigned long long)_now);
    }
    std::uint32_t slot;
    if (_free.empty()) {
        slot = static_cast<std::uint32_t>(_slots.size());
        _slots.emplace_back();
    } else {
        slot = _free.back();
        _free.pop_back();
    }
    Slot &s = _slots[slot];
    s.cb = std::move(cb);
    s.name = name;
    s.cancelled = false;
    const EventId id = _seq + 1;
    _heap.push_back({when, _seq++, slot});
    std::push_heap(_heap.begin(), _heap.end(), later);
    ++_live;
    return id;
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
        Slot &s = _slots[k.slot];
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
    std::uint32_t slot = _heap.front().slot;
    std::pop_heap(_heap.begin(), _heap.end(), later);
    _heap.pop_back();
    _slots[slot].cb = nullptr;
    _free.push_back(slot);
}

bool
EventQueue::liveHead()
{
    while (!_heap.empty() && _slots[_heap.front().slot].cancelled)
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
    // Take the callback out and recycle the slot before running it: the
    // callback may schedule new events, which can reuse this very slot.
    Callback cb = std::move(_slots[head.slot].cb);
    popHead();
    _now = head.when;
    --_live;
    ++_eventsRun;
    cb();
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
