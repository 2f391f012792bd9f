#include "sim/event_queue.hh"

#include "sim/logging.hh"

namespace flick
{

EventQueue::~EventQueue()
{
    // The queue owns its entries: destroying an entry destroys its
    // callback and whatever the callback captured.
    while (!_queue.empty()) {
        delete _queue.top();
        _queue.pop();
    }
}

EventQueue::EventId
EventQueue::schedule(Tick when, std::string name, Callback cb)
{
    if (when < _now) {
        panic("event '%s' scheduled in the past (%llu < %llu)",
              name.c_str(), (unsigned long long)when,
              (unsigned long long)_now);
    }
    auto *e = new Entry{when, _seq++, _nextId++, std::move(name),
                        std::move(cb), false};
    _queue.push(e);
    ++_live;
    return e->id;
}

bool
EventQueue::deschedule(EventId id)
{
    // The heap cannot be searched efficiently; mark-and-skip instead.
    // We rebuild a temporary view by scanning the underlying container via
    // a copy of the queue. To keep this O(n) rather than O(n log n), we
    // walk the priority_queue's storage through a protected-member trick.
    struct Opener : std::priority_queue<Entry *, std::vector<Entry *>, Cmp>
    {
        static std::vector<Entry *> &
        container(std::priority_queue<Entry *, std::vector<Entry *>, Cmp> &q)
        {
            return static_cast<Opener &>(q).c;
        }
    };
    for (Entry *e : Opener::container(_queue)) {
        if (e->id == id && !e->cancelled) {
            e->cancelled = true;
            --_live;
            return true;
        }
    }
    return false;
}

EventQueue::Entry *
EventQueue::popNextLive()
{
    while (!_queue.empty()) {
        Entry *e = _queue.top();
        _queue.pop();
        if (e->cancelled) {
            delete e;
            continue;
        }
        return e;
    }
    return nullptr;
}

Tick
EventQueue::nextEventTime() const
{
    // Cancelled entries may sit at the top; peek through them without
    // mutating (rare path, small queues in practice).
    auto copy = _queue;
    while (!copy.empty()) {
        Entry *e = copy.top();
        if (!e->cancelled)
            return e->when;
        copy.pop();
    }
    return maxTick;
}

bool
EventQueue::step()
{
    Entry *e = popNextLive();
    if (!e)
        return false;
    _now = e->when;
    --_live;
    ++_eventsRun;
    Callback cb = std::move(e->cb);
    delete e;
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
