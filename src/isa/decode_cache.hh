/**
 * @file
 * Per-text-page decoded-instruction caches (DESIGN.md §13).
 *
 * A DecodeCache stores the predecoded form of every instruction on a
 * physical text page so the interpreter's step loop can dispatch through
 * a cached handler pointer instead of re-decoding raw bytes on every
 * fetch. Pages are keyed canonically (MemSystem::canonicalPageKey) so a
 * write through any window — host store, NxP store, DMA burst, loader
 * back door — invalidates the one underlying page no matter which core
 * cached it. Caching is a simulator-speed optimization only: nothing in
 * here is timed, and the step loops charge identical costs with the
 * cache on or off (asserted by tests/interp_diff_test.cpp).
 */

#ifndef FLICK_ISA_DECODE_CACHE_HH
#define FLICK_ISA_DECODE_CACHE_HH

#include <array>
#include <cstdint>
#include <unordered_map>

#include "mem/mem_system.hh"

namespace flick
{

/**
 * Counters shared by both ISA-specific caches.
 *
 * These are raw fields, not StatGroup counters, because the step loop
 * touches them every instruction and StatGroup::inc hashes a string per
 * call; Core::run() syncs them into the core's StatGroup once per slice.
 */
class DecodeCacheBase : public DecodeSink
{
  public:
    std::uint64_t hits = 0;      //!< Dispatched from a cached entry.
    std::uint64_t fills = 0;     //!< Decoded and stored.
    std::uint64_t fallbacks = 0; //!< Decoded fresh (uncacheable).
    std::uint64_t invalidatedPages = 0; //!< Pages dropped by writes.
};

/**
 * One core's decoded-instruction cache.
 *
 * @tparam EntryT Predecoded instruction type; default-constructed
 *         entries must have a null handler pointer (the "empty" mark).
 * @tparam entryShift log2 of the instruction alignment: 0 for HX64
 *         (any byte offset starts an instruction), 2 for RV64.
 */
template <typename EntryT, unsigned entryShift>
class DecodeCache : public DecodeCacheBase
{
  public:
    static constexpr unsigned pageEntries = 4096u >> entryShift;
    static constexpr unsigned shift = entryShift;

    /**
     * Base of the entry array for the page named @p key, or nullptr when
     * the page is uncacheable (noPageKey). Pages are cleared in place and
     * never erased, and unordered_map mapped references are stable across
     * rehash, so the returned pointer stays valid for the cache's
     * lifetime — Core::slotFor() memoizes it per text page.
     */
    EntryT *
    pageBase(std::uint64_t key)
    {
        if (key == MemSystem::noPageKey)
            return nullptr;
        return _pages[key].entries.data();
    }

    void
    invalidatePage(std::uint64_t key) override
    {
        auto it = _pages.find(key);
        if (it == _pages.end())
            return;
        it->second.clear();
        ++invalidatedPages;
    }

    void
    invalidateAll() override
    {
        for (auto &kv : _pages) {
            kv.second.clear();
            ++invalidatedPages;
        }
    }

  private:
    struct Page
    {
        std::array<EntryT, pageEntries> entries{};

        void
        clear()
        {
            entries.fill(EntryT{});
        }
    };

    std::unordered_map<std::uint64_t, Page> _pages;
};

} // namespace flick

#endif // FLICK_ISA_DECODE_CACHE_HH
