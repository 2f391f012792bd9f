#include "sim/stats.hh"

#include <algorithm>
#include <vector>

namespace flick
{

void
StatGroup::dump(std::ostream &os) const
{
    // The backing store is a hash map (Counter handles point into its
    // stable nodes); sort at dump time so the report is deterministic.
    std::vector<const std::pair<const std::string, std::uint64_t> *> rows;
    rows.reserve(_counters.size());
    for (const auto &kv : _counters)
        rows.push_back(&kv);
    std::sort(rows.begin(), rows.end(),
              [](const auto *a, const auto *b) { return a->first < b->first; });
    for (const auto *kv : rows)
        os << _name << '.' << kv->first << ' ' << kv->second << '\n';
}

} // namespace flick
