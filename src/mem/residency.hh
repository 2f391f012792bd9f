/**
 * @file
 * Per-page access residency counters (DESIGN.md §15).
 *
 * The tracker records, for every touched physical page (named by its
 * canonical page key, see MemSystem::pageKey), how many timed accesses
 * each core-side accessor made: the host core is accessor 0 and NxP
 * device k's core is accessor 1 + k. DMA traffic, MMU table walks and
 * the debug back door are deliberately excluded — residency is about
 * where the *computation* touches data, not about how the data was
 * staged there.
 *
 * Tracking is opt-in (SystemConfig::withResidencyTracking). When no
 * tracker is attached to the MemSystem the counting branch never runs
 * and simulations are tick-for-tick identical to a build without the
 * subsystem; when attached, counting is purely passive (no latency is
 * charged and no event is scheduled), so tracking on/off also cannot
 * change timing — tests/residency_test.cpp asserts both properties.
 */

#ifndef FLICK_MEM_RESIDENCY_HH
#define FLICK_MEM_RESIDENCY_HH

#include <cstdint>
#include <map>
#include <vector>

#include "sim/stats.hh"

namespace flick
{

/**
 * Access counters per (page, accessor), feeding ResidencyAwarePlacement.
 */
class ResidencyTracker
{
  public:
    /** Accessor index of the host core; device k is 1 + k. */
    static constexpr unsigned hostAccessor = 0;

    explicit ResidencyTracker(unsigned devices)
        : _accessors(1 + devices), _totals(1 + devices, 0),
          _stats("flick.residency")
    {}

    /** Record one timed access to page @p key by @p accessor. */
    void
    touch(std::uint64_t key, unsigned accessor)
    {
        std::vector<std::uint64_t> &row = _pages[key];
        if (row.empty())
            row.resize(_accessors, 0);
        ++row[accessor];
        ++_totals[accessor];
    }

    /**
     * Per-accessor counts for page @p key, or nullptr if the page was
     * never touched. The vector has accessors() entries.
     */
    const std::vector<std::uint64_t> *
    counts(std::uint64_t key) const
    {
        auto it = _pages.find(key);
        return it == _pages.end() ? nullptr : &it->second;
    }

    /** Accesses to page @p key by @p accessor (0 if untouched). */
    std::uint64_t
    accesses(std::uint64_t key, unsigned accessor) const
    {
        const std::vector<std::uint64_t> *row = counts(key);
        return row ? (*row)[accessor] : 0;
    }

    /** Total accesses to page @p key across all accessors. */
    std::uint64_t
    pageTotal(std::uint64_t key) const
    {
        const std::vector<std::uint64_t> *row = counts(key);
        if (!row)
            return 0;
        std::uint64_t sum = 0;
        for (std::uint64_t c : *row)
            sum += c;
        return sum;
    }

    /** Number of distinct pages with at least one recorded access. */
    std::size_t pagesTracked() const { return _pages.size(); }

    /** Aggregate accesses recorded for @p accessor. */
    std::uint64_t total(unsigned accessor) const { return _totals[accessor]; }

    /**
     * Refresh the stats group from the live counters. Called from
     * FlickSystem::dumpStats so the flick.residency.* lines are
     * up to date without paying StatGroup string lookups per access.
     */
    void
    syncStats()
    {
        _stats.set("pages_tracked", _pages.size());
        std::uint64_t all = 0;
        for (unsigned a = 0; a < _accessors; ++a)
            all += _totals[a];
        _stats.set("accesses", all);
        _stats.set("accesses_host", _totals[hostAccessor]);
        for (unsigned d = 0; d + 1 < _accessors; ++d)
            _stats.set("accesses_dev" + std::to_string(d), _totals[1 + d]);
    }

    /** The flick.residency.* counter group (call syncStats first). */
    StatGroup &stats() { return _stats; }

  private:
    unsigned _accessors;
    /** page key -> per-accessor counts. */
    std::map<std::uint64_t, std::vector<std::uint64_t>> _pages;
    std::vector<std::uint64_t> _totals;
    StatGroup _stats;
};

} // namespace flick

#endif // FLICK_MEM_RESIDENCY_HH
