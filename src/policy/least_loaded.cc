#include "policy/least_loaded.hh"

namespace flick
{

int
pickLeastLoaded(const PlacementQuery &query,
                const PlacementCandidates &cands,
                const PlacementView &view)
{
    int best = -1;
    unsigned best_depth = 0;
    unsigned devices = view.deviceCount();
    for (unsigned d = 0; d < devices && d < cands.deviceVa.size(); ++d) {
        if (!cands.deviceVa[d])
            continue;
        if (query.fromDevice && d == query.callerDevice)
            continue;
        DeviceLoad l = view.load(d);
        if (l.quarantined)
            continue;
        if (best >= 0) {
            if (l.depth > best_depth)
                continue;
            if (l.depth == best_depth) {
                // Tie: prefer the home device (warm I-cache, the
                // paper's placement), then the lowest id.
                if (static_cast<unsigned>(best) == query.home ||
                    d != query.home)
                    continue;
            }
        }
        best = static_cast<int>(d);
        best_depth = l.depth;
    }
    return best;
}

PlacementDecision
LeastLoadedPlacement::place(const PlacementQuery &query,
                            const PlacementCandidates &cands,
                            const PlacementView &view)
{
    int d = pickLeastLoaded(query, cands, view);
    if (d < 0) {
        // Nothing eligible: hand the home placement back and let the
        // engine's quarantine/failover machinery deal with it.
        return {false, query.home};
    }
    return {false, static_cast<unsigned>(d)};
}

} // namespace flick
