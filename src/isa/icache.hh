/**
 * @file
 * Simple direct-mapped instruction cache model.
 *
 * The NxP's text lives in host memory; without an I-cache every fetch
 * would cross PCIe (Section III-D relies on the I-cache making that
 * placement cheap). The model tracks tags only — instruction bytes are
 * read from backing store — and reports hit/miss so the core can charge a
 * line fill on misses.
 */

#ifndef FLICK_ISA_ICACHE_HH
#define FLICK_ISA_ICACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/sparse_memory.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace flick
{

/**
 * Direct-mapped tag array indexed by physical address.
 *
 * Counters are raw fields bumped on the fetch path (a StatGroup inc
 * would hash a key string per fetch) and published lazily by stats(),
 * both under the base keys ("hits", ...) and under the fleet-wide
 * `_dev#` split convention ("hits_dev0", ...) used by the runtime
 * counters.
 */
class ICache
{
  public:
    ICache(std::string name, std::uint32_t lines, std::uint32_t line_bytes,
           unsigned device = 0, bool enabled = true)
        : _lines(lines), _lineBytes(line_bytes), _device(device),
          _enabled(enabled), _tags(lines, invalidTag),
          _stats(std::move(name))
    {
        // access() runs once per fetch; power-of-two geometry lets it
        // use shift/mask instead of two 64-bit divisions.
        if (lines == 0 || line_bytes == 0 || (lines & (lines - 1)) ||
            (line_bytes & (line_bytes - 1))) {
            panic("icache geometry must be power-of-two (lines=%u "
                  "line_bytes=%u)",
                  lines, line_bytes);
        }
        while ((1u << _lineShift) < line_bytes)
            ++_lineShift;
    }

    /**
     * Access the line holding @p pa.
     * @return true on hit; on miss the line is filled (tag installed).
     * A disabled cache reports every access as a hit and counts nothing.
     */
    bool
    access(Addr pa)
    {
        if (!_enabled)
            return true;
        Addr line_addr = pa >> _lineShift;
        std::uint32_t index =
            static_cast<std::uint32_t>(line_addr & (_lines - 1));
        if (_tags[index] == line_addr) {
            ++_hits;
            return true;
        }
        _tags[index] = line_addr;
        ++_misses;
        return false;
    }

    /**
     * Count @p n further hits on the line access() last touched, as
     * @p n more calls to access() would (Core::runLoop's block dispatch
     * publishes its same-line fetches here on exit).
     */
    void
    countHits(std::uint64_t n)
    {
        if (_enabled)
            _hits += n;
    }

    /** Invalidate all lines (counts nothing when disabled). */
    void
    flush()
    {
        if (!_enabled)
            return;
        _tags.assign(_lines, invalidTag);
        ++_flushes;
    }

    std::uint32_t lineBytes() const { return _lineBytes; }
    bool enabled() const { return _enabled; }

    /** Publish the raw counters and return the stat group. */
    StatGroup &
    stats()
    {
        if (!_enabled && (_hits | _misses | _flushes))
            panic("disabled icache counted accesses (hits=%llu misses=%llu "
                  "flushes=%llu)",
                  (unsigned long long)_hits, (unsigned long long)_misses,
                  (unsigned long long)_flushes);
        std::string dev = "_dev" + std::to_string(_device);
        _stats.set("hits", _hits);
        _stats.set("misses", _misses);
        _stats.set("flushes", _flushes);
        _stats.set("hits" + dev, _hits);
        _stats.set("misses" + dev, _misses);
        _stats.set("flushes" + dev, _flushes);
        return _stats;
    }

  private:
    static constexpr Addr invalidTag = ~Addr(0);

    std::uint32_t _lines;
    std::uint32_t _lineBytes;
    unsigned _lineShift = 0;
    unsigned _device;
    bool _enabled;
    std::vector<Addr> _tags;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _flushes = 0;
    StatGroup _stats;
};

} // namespace flick

#endif // FLICK_ISA_ICACHE_HH
