#include "policy/profile_guided.hh"

#include "policy/least_loaded.hh"

namespace flick
{

PlacementDecision
ProfileGuidedPlacement::place(const PlacementQuery &query,
                              const PlacementCandidates &cands,
                              const PlacementView &view)
{
    int dev = pickLeastLoaded(query, cands, view);
    if (dev < 0) {
        // No eligible device. Use the host twin when there is one;
        // otherwise hand home back for the engine's failover machinery.
        if (cands.hostVa && !query.fromDevice)
            return {true, query.home};
        return {false, query.home};
    }
    auto device = static_cast<unsigned>(dev);

    // Host-steering is weighed for host-originated calls only: a
    // device-originated call already has state parked on its caller's
    // core, and its host leg is the relay path, not a placement choice.
    if (query.fromDevice || !cands.hostVa)
        return {false, device};

    // Until the device side has been sampled there is nothing to weigh
    // the host twin against: cross.
    auto it = _model.find({query.cr3, query.canonical});
    if (it == _model.end())
        return {false, device};
    FnProfile &m = it->second;
    if (m.deviceSamples < _cfg.minDeviceSamples)
        return {false, device};

    Tick device_cost = m.deviceEwma;
    Tick host_cost;
    if (m.hostSamples > 0) {
        host_cost = m.hostEwma;
    } else {
        // No host measurement yet: estimate from the device round trip.
        // Subtracting the analytic crossing overhead leaves the callee's
        // NxP execution time; both cores retire one op per cycle, so the
        // host would run the same instructions hostSpeedup() times
        // faster — plus the fixed fault-service cost steering keeps.
        // (A memory-bound callee breaks the scaling assumption; the
        // first steered call measures the truth and corrects the model.)
        Tick crossing = view.crossingEstimate();
        Tick exec = device_cost > crossing ? device_cost - crossing : 0;
        unsigned speedup = view.hostSpeedup() ? view.hostSpeedup() : 1;
        host_cost = view.steerOverhead() + exec / speedup;
    }

    // Hysteresis: the host must win by the configured margin.
    if (host_cost + host_cost * _cfg.steerMarginPct / 100 >= device_cost)
        return {false, device};

    // Steered — but every reprobeInterval-th decision still crosses so
    // the device-side EWMA stays fresh.
    ++m.steeredDecisions;
    if (_cfg.reprobeInterval &&
        m.steeredDecisions % _cfg.reprobeInterval == 0)
        return {false, device};
    return {true, device};
}

void
ProfileGuidedPlacement::recordDeviceCall(Addr cr3, VAddr canonical,
                                         unsigned device, Tick latency)
{
    (void)device;
    FnProfile &m = _model[{cr3, canonical}];
    m.deviceEwma = m.deviceSamples == 0
                       ? latency
                       : CallCostModel::blend(m.deviceEwma, latency,
                                              _cfg.ewmaShift);
    ++m.deviceSamples;
}

void
ProfileGuidedPlacement::recordHostCall(Addr cr3, VAddr canonical,
                                       Tick latency)
{
    FnProfile &m = _model[{cr3, canonical}];
    m.hostEwma = m.hostSamples == 0
                     ? latency
                     : CallCostModel::blend(m.hostEwma, latency,
                                            _cfg.ewmaShift);
    ++m.hostSamples;
}

Tick
ProfileGuidedPlacement::estimateCall(Addr cr3, VAddr canonical) const
{
    // The admission layer asks what this call is expected to cost; the
    // honest answer is the cheaper of the two measured paths, because
    // place() will pick whichever side the model favors.
    auto it = _model.find({cr3, canonical});
    if (it == _model.end())
        return 0;
    const FnProfile &m = it->second;
    Tick device = m.deviceSamples ? m.deviceEwma : 0;
    Tick host = m.hostSamples ? m.hostEwma : 0;
    if (device && host)
        return device < host ? device : host;
    return device ? device : host;
}

const ProfileGuidedPlacement::FnProfile *
ProfileGuidedPlacement::profile(Addr cr3, VAddr canonical) const
{
    auto it = _model.find({cr3, canonical});
    return it == _model.end() ? nullptr : &it->second;
}

} // namespace flick
