/**
 * @file
 * Translation lookaside buffer with BAR remapping.
 *
 * The NxP TLBs carry the extra remapping stage of Section IV-A: when a
 * translation produces a physical address inside the host-assigned BAR0
 * window, the TLB subtracts the offset programmed by the host driver so the
 * request targets the NxP's local DRAM directly instead of looping back
 * over PCIe. Host TLBs simply leave the remap unconfigured.
 *
 * Functionally the TLB is fully associative with LRU replacement. The
 * implementation keeps a hash index plus a last-hit pointer so interpreter
 * cores can afford a lookup per memory access; neither affects modelled
 * behaviour, only simulator speed.
 */

#ifndef FLICK_VM_TLB_HH
#define FLICK_VM_TLB_HH

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/stats.hh"
#include "vm/pte.hh"

namespace flick
{

/** One cached translation. */
struct TlbEntry
{
    bool valid = false;
    VAddr vbase = 0;            //!< Virtual page base.
    Addr pbase = 0;             //!< Physical page base (pre-remap).
    std::uint64_t granule = 0;  //!< Page size in bytes.
    std::uint64_t flags = 0;    //!< Raw leaf PTE bits.
    std::uint64_t lastUse = 0;  //!< LRU stamp.
};

/**
 * A fully associative, LRU-replaced TLB.
 */
class Tlb
{
  public:
    Tlb(std::string name, unsigned entries)
        : _entries(entries), _stats(std::move(name))
    {
        _slots.resize(entries);
        for (unsigned i = 0; i < entries; ++i)
            _freeSlots.push_back(entries - 1 - i);
    }

    /** Number of slots. */
    unsigned size() const { return _entries; }

    /**
     * Look up @p va; returns the entry and touches LRU state, or nullptr
     * on a miss.
     */
    const TlbEntry *lookup(VAddr va);

    /**
     * The last-hit fast path of lookup(), inline for the interpreter
     * step loop: returns the entry (with identical LRU/stat effects to
     * lookup()) only when the most recently hit entry covers @p va,
     * nullptr otherwise — callers fall back to the full lookup().
     */
    const TlbEntry *
    lookupLastHit(VAddr va)
    {
        if (_last && _last->valid && va >= _last->vbase &&
            va < _last->vbase + _last->granule) {
            _last->lastUse = ++_useClock;
            ++_hits;
            return _last;
        }
        return nullptr;
    }

    /**
     * Count @p n further lookupLastHit() hits on the last-hit entry at
     * once, exactly as @p n separate calls would: Core::runLoop's block
     * dispatch counts its fetches and publishes them here on exit. If
     * the entry was invalidated meanwhile, only the counters move (an
     * invalid slot's stamp is overwritten before it is ever read).
     */
    void
    countLastHits(std::uint64_t n)
    {
        if (n == 0)
            return;
        _useClock += n;
        _hits += n;
        if (_last)
            _last->lastUse = _useClock;
    }

    /** The most recently hit entry, without touching LRU or stats. */
    const TlbEntry *lastHit() const { return _last; }

    /**
     * Bumped by every insert, invalidation and setBarRemap(): a caller
     * that memoized a translation drops it when this moves.
     */
    std::uint64_t epoch() const { return _epoch; }

    /**
     * Inspect the entry covering @p va without touching LRU state or
     * statistics (used by kernel code reading cached PTE bits, e.g. the
     * ISA tag in the fault path).
     */
    const TlbEntry *peek(VAddr va) const;

    /** Install a translation, evicting the LRU slot if needed. */
    void insert(VAddr vbase, Addr pbase, std::uint64_t granule,
                std::uint64_t flags);

    /** Invalidate everything (context switch without ASIDs). */
    void flushAll();

    /** Invalidate any entry covering @p va. */
    void flushVa(VAddr va);

    /**
     * Program the BAR remap window: physical addresses in
     * [bar_base, bar_base+size) have @p offset subtracted.
     * This models the TLB control register written by the host driver.
     */
    void
    setBarRemap(Addr bar_base, std::uint64_t size, Addr offset)
    {
        _remapBase = bar_base;
        _remapSize = size;
        _remapOffset = offset;
        ++_epoch;
    }

    /** Apply the remap stage to a translated physical address. */
    Addr
    applyRemap(Addr pa) const
    {
        if (_remapSize != 0 && pa >= _remapBase &&
            pa < _remapBase + _remapSize) {
            return pa - _remapOffset;
        }
        return pa;
    }

    /** True when applyRemap() moves all of [pa, pa + 4096) alike. */
    bool
    remapUniform(Addr pa) const
    {
        Addr end = _remapBase + _remapSize;
        return _remapSize == 0 || pa + 4096 <= _remapBase || pa >= end ||
               (pa >= _remapBase && pa + 4096 <= end);
    }

    /**
     * Counters, synced on demand. The hot path (one lookup per fetch and
     * per data access) bumps raw integers; string-keyed stats are only
     * materialised when someone asks, so reporting stays off the
     * interpreter's critical path.
     */
    StatGroup &
    stats()
    {
        _stats.set("hits", _hits);
        _stats.set("misses", _misses);
        _stats.set("fills", _fills);
        _stats.set("evictions", _evictions);
        _stats.set("flushes", _flushes);
        return _stats;
    }

  private:
    /** 4K/2M/1G -> 0/1/2, for composing index keys. */
    static unsigned granuleIdx(std::uint64_t granule);

    /** Index key: page base (granule-aligned, low bits free) | granule. */
    static std::uint64_t
    key(VAddr vbase, unsigned gidx)
    {
        return vbase | gidx;
    }

    void invalidateSlot(unsigned slot);

    unsigned _entries;
    std::vector<TlbEntry> _slots;
    std::vector<unsigned> _freeSlots;
    std::unordered_map<std::uint64_t, unsigned> _index;
    std::array<std::uint32_t, 3> _granCount{};
    TlbEntry *_last = nullptr;
    std::uint64_t _useClock = 0;
    std::uint64_t _epoch = 0;
    Addr _remapBase = 0;
    std::uint64_t _remapSize = 0;
    Addr _remapOffset = 0;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _fills = 0;
    std::uint64_t _evictions = 0;
    std::uint64_t _flushes = 0;
    StatGroup _stats;
};

} // namespace flick

#endif // FLICK_VM_TLB_HH
