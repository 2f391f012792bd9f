#include "vm/tlb.hh"

#include "sim/logging.hh"

namespace flick
{

unsigned
Tlb::granuleIdx(std::uint64_t granule)
{
    switch (granule) {
      case 4096: return 0;
      case 2ull << 20: return 1;
      case 1ull << 30: return 2;
    }
    panic("bad TLB granule %#llx", (unsigned long long)granule);
}

const TlbEntry *
Tlb::lookup(VAddr va)
{
    if (const TlbEntry *e = lookupLastHit(va))
        return e;
    for (unsigned g = 0; g < 3; ++g) {
        if (_granCount[g] == 0)
            continue;
        std::uint64_t granule = 4096ull << (9 * g);
        auto it = _index.find(key(va & ~(granule - 1), g));
        if (it != _index.end()) {
            TlbEntry &e = _slots[it->second];
            e.lastUse = ++_useClock;
            _last = &e;
            ++_hits;
            return &e;
        }
    }
    ++_misses;
    return nullptr;
}

const TlbEntry *
Tlb::peek(VAddr va) const
{
    for (unsigned g = 0; g < 3; ++g) {
        if (_granCount[g] == 0)
            continue;
        std::uint64_t granule = 4096ull << (9 * g);
        auto it = _index.find(key(va & ~(granule - 1), g));
        if (it != _index.end())
            return &_slots[it->second];
    }
    return nullptr;
}

void
Tlb::invalidateSlot(unsigned slot)
{
    TlbEntry &e = _slots[slot];
    if (!e.valid)
        return;
    unsigned g = granuleIdx(e.granule);
    _index.erase(key(e.vbase, g));
    --_granCount[g];
    e.valid = false;
    ++_epoch;
    if (_last == &e)
        _last = nullptr;
    _freeSlots.push_back(slot);
}

void
Tlb::insert(VAddr vbase, Addr pbase, std::uint64_t granule,
            std::uint64_t flags)
{
    unsigned g = granuleIdx(granule);
    if (vbase & (granule - 1))
        panic("TLB insert of unaligned page %#llx", (unsigned long long)vbase);

    unsigned slot;
    auto it = _index.find(key(vbase, g));
    if (it != _index.end()) {
        // Refill of an already-present page (e.g. after a flags change).
        slot = it->second;
    } else if (!_freeSlots.empty()) {
        slot = _freeSlots.back();
        _freeSlots.pop_back();
        _index[key(vbase, g)] = slot;
        ++_granCount[g];
    } else {
        // Evict the LRU entry; infrequent, so a linear scan is fine.
        unsigned victim = 0;
        for (unsigned i = 1; i < _entries; ++i) {
            if (_slots[i].lastUse < _slots[victim].lastUse)
                victim = i;
        }
        invalidateSlot(victim);
        ++_evictions;
        slot = _freeSlots.back();
        _freeSlots.pop_back();
        _index[key(vbase, g)] = slot;
        ++_granCount[g];
    }

    TlbEntry &e = _slots[slot];
    e.valid = true;
    e.vbase = vbase;
    e.pbase = pbase;
    e.granule = granule;
    e.flags = flags;
    e.lastUse = ++_useClock;
    ++_fills;
    ++_epoch;
}

void
Tlb::flushAll()
{
    for (unsigned i = 0; i < _entries; ++i) {
        if (_slots[i].valid)
            invalidateSlot(i);
    }
    ++_flushes;
}

void
Tlb::flushVa(VAddr va)
{
    for (unsigned g = 0; g < 3; ++g) {
        if (_granCount[g] == 0)
            continue;
        std::uint64_t granule = 4096ull << (9 * g);
        auto it = _index.find(key(va & ~(granule - 1), g));
        if (it != _index.end())
            invalidateSlot(it->second);
    }
}

} // namespace flick
