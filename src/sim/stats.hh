/**
 * @file
 * Lightweight named statistics.
 *
 * Every major component exposes a StatGroup of named counters; the
 * FlickSystem aggregates them for reporting. Counters are plain 64-bit
 * values with optional descriptions, kept simple on purpose — this is the
 * reporting layer, not the timing model.
 */

#ifndef FLICK_SIM_STATS_HH
#define FLICK_SIM_STATS_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>

namespace flick
{

/**
 * A named collection of scalar statistics.
 *
 * inc(key) hashes the key on every call; it serves cold paths. A bump
 * that runs once per crossing or per memory access goes through a
 * Counter handle instead, which resolves its key once (DESIGN.md §17).
 */
class StatGroup
{
  public:
    /**
     * A handle to one counter of a group. The key's slot is looked up on
     * the first inc() or set(), so the key appears in dump() exactly when
     * StatGroup::inc(key) would have created it; later bumps are a
     * single add. The handle and inc(key)/get(key) share one value, and
     * reset() keeps the slot. The group must outlive the handle.
     */
    class Counter
    {
      public:
        Counter(StatGroup &group, std::string key)
            : _group(&group), _key(std::move(key))
        {}

        void inc(std::uint64_t delta = 1) { slot() += delta; }
        void set(std::uint64_t v) { slot() = v; }

      private:
        std::uint64_t &
        slot()
        {
            // Map nodes never move and no key is ever erased, so the
            // resolved pointer stays valid for the group's lifetime.
            if (!_slot)
                _slot = &_group->_counters[_key];
            return *_slot;
        }

        StatGroup *_group;
        std::string _key;
        std::uint64_t *_slot = nullptr;
    };

    explicit StatGroup(std::string name) : _name(std::move(name)) {}
    // Counter handles point into the group, so it never moves.
    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Group name used as a prefix when dumping. */
    const std::string &name() const { return _name; }

    /** Increment counter @p key by @p delta (creating it at zero). */
    void
    inc(const std::string &key, std::uint64_t delta = 1)
    {
        _counters[key] += delta;
    }

    /** Set counter @p key to an absolute value. */
    void set(const std::string &key, std::uint64_t v) { _counters[key] = v; }

    /** Value of counter @p key, or 0 if never touched. */
    std::uint64_t
    get(const std::string &key) const
    {
        auto it = _counters.find(key);
        return it == _counters.end() ? 0 : it->second;
    }

    /** Reset all counters to zero (keys are retained). */
    void
    reset()
    {
        for (auto &kv : _counters)
            kv.second = 0;
    }

    /** All counters, in unspecified (hash) order; dump() sorts. */
    const std::unordered_map<std::string, std::uint64_t> &counters() const
    {
        return _counters;
    }

    /**
     * Write "group.key value" lines to @p os, sorted by key so the
     * output is deterministic and diffable regardless of insertion or
     * hash order.
     */
    void dump(std::ostream &os) const;

  private:
    std::string _name;
    std::unordered_map<std::string, std::uint64_t> _counters;
};

} // namespace flick

#endif // FLICK_SIM_STATS_HH
