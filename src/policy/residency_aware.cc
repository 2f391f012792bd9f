#include "policy/residency_aware.hh"

#include <cstdint>
#include <vector>

#include "policy/least_loaded.hh"

namespace flick
{

namespace
{

/** True if @p d is a device the engine would actually accept. */
bool
eligibleDevice(unsigned d, const PlacementQuery &query,
               const PlacementCandidates &cands, const PlacementView &view)
{
    if (d >= cands.deviceVa.size() || !cands.deviceVa[d])
        return false;
    if (query.fromDevice && d == query.callerDevice)
        return false;
    return !view.load(d).quarantined;
}

/** Residency votes of a call's argument pages, one per page. */
struct ResidencyVotes
{
    unsigned host = 0;            //!< Pages in host DRAM.
    std::vector<unsigned> device; //!< Pages per NxP device's DRAM.
    unsigned total = 0;           //!< host + every device's votes.
};

/**
 * Tally the residency of the distinct pages @p args point at in address
 * space @p cr3. Values below one page are lengths/flags, not pointers;
 * at most 8 distinct pages are asked for their residency. Each mapped
 * page casts one vote for the DRAM its page-table entry names.
 */
ResidencyVotes
residencyVotes(Addr cr3, const std::vector<std::uint64_t> &args,
               const PlacementView &view)
{
    ResidencyVotes votes;
    votes.device.assign(view.deviceCount(), 0);
    std::uint64_t seen_pages[8];
    unsigned seen = 0;
    for (std::uint64_t arg : args) {
        if (arg < 4096)
            continue;
        std::uint64_t page = arg & ~std::uint64_t(4095);
        bool dup = false;
        for (unsigned i = 0; i < seen; ++i)
            dup = dup || seen_pages[i] == page;
        if (dup || seen >= 8)
            continue;
        seen_pages[seen++] = page;
        PageResidency pr = view.pageResidency(cr3, page);
        if (!pr.mapped)
            continue;
        if (pr.holder < 0)
            ++votes.host;
        else if (static_cast<unsigned>(pr.holder) < votes.device.size())
            ++votes.device[pr.holder];
    }
    votes.total = votes.host;
    for (unsigned v : votes.device)
        votes.total += v;
    return votes;
}

} // namespace

PlacementDecision
ResidencyAwarePlacement::place(const PlacementQuery &query,
                               const PlacementCandidates &cands,
                               const PlacementView &view)
{
    ResidencyVotes votes = residencyVotes(query.cr3, query.args, view);
    const std::vector<unsigned> &dev_votes = votes.device;
    int best_dev = -1;
    for (unsigned d = 0; d < dev_votes.size(); ++d) {
        if (!dev_votes[d] || !eligibleDevice(d, query, cands, view))
            continue;
        // Ties break toward home, then the lowest id (determinism).
        if (best_dev < 0 || dev_votes[d] > dev_votes[best_dev] ||
            (dev_votes[d] == dev_votes[best_dev] && d == query.home))
            best_dev = static_cast<int>(d);
    }

    // Majority holder is a device: follow the data.
    if (best_dev >= 0 &&
        dev_votes[best_dev] * 100 >=
            votes.total * placement_tuning::residencyMajorityPct)
        return {false, static_cast<unsigned>(best_dev)};

    // Majority holder is host DRAM: run the host twin so every access
    // stays local — unless the measured EWMAs say the device round trip
    // beats the host run by the hysteresis margin anyway (compute-bound
    // callee where the NxP's proximity to *other* state wins).
    if (votes.host * 100 >=
            votes.total * placement_tuning::residencyMajorityPct &&
        votes.total > 0 && cands.hostVa && !query.fromDevice) {
        Tick dev_est = _deviceModel.estimate(query.cr3, query.canonical);
        Tick host_est = _hostModel.estimate(query.cr3, query.canonical);
        bool device_vetoes =
            dev_est && host_est &&
            _deviceModel.samples(query.cr3, query.canonical) >=
                placement_tuning::minDeviceSamples &&
            dev_est + dev_est * placement_tuning::steerMarginPct / 100 <
                host_est;
        if (!device_vetoes)
            return {true, query.home};
    }

    // No residency signal (or the majority holder is unusable): behave
    // like queue-depth balancing.
    int d = pickLeastLoaded(query, cands, view);
    if (d < 0)
        return {false, query.home};
    return {false, static_cast<unsigned>(d)};
}

void
ResidencyAwarePlacement::recordDeviceCall(Addr cr3, VAddr canonical,
                                          unsigned device, Tick latency)
{
    (void)device;
    _deviceModel.record(cr3, canonical, latency);
}

void
ResidencyAwarePlacement::recordHostCall(Addr cr3, VAddr canonical,
                                        Tick latency)
{
    _hostModel.record(cr3, canonical, latency);
}

Tick
ResidencyAwarePlacement::estimateCall(Addr cr3, VAddr canonical) const
{
    Tick dev = _deviceModel.estimate(cr3, canonical);
    Tick host = _hostModel.estimate(cr3, canonical);
    if (dev && host)
        return dev < host ? dev : host;
    return dev ? dev : host;
}

} // namespace flick
