/**
 * @file
 * Data-residency-aware placement (DESIGN.md §15).
 *
 * The paper's Fig. 5 crossover (~32 accesses per migration) is about
 * where the data lives: a call whose working set sits in NxP k's DRAM
 * pays one local access per load when it runs on device k, and a
 * bridge/peer crossing per load anywhere else. This policy looks at
 * the call's argument registers, asks the residency map (the per-page
 * access counters of DESIGN.md §15) which DRAM holds the pages they
 * point at, and steers the call to the majority holder — falling back
 * to queue-depth balancing when the arguments carry no residency
 * signal, and composing with the shared EWMA cost model so a measured
 * latency can veto data gravity.
 */

#ifndef FLICK_POLICY_RESIDENCY_AWARE_HH
#define FLICK_POLICY_RESIDENCY_AWARE_HH

#include <cstdint>
#include <vector>

#include "policy/cost_model.hh"
#include "policy/policy.hh"

namespace flick
{

/** Access-weighted residency votes of a call's argument pages. */
struct ResidencyVotes
{
    std::uint64_t host = 0;            //!< Votes for host DRAM.
    std::vector<std::uint64_t> device; //!< Votes per NxP device.
    std::uint64_t total = 0;           //!< host + every device's votes.
};

/**
 * Tally the residency of the distinct pages @p args point at in address
 * space @p cr3. Values below one page are lengths/flags, not pointers;
 * at most 8 distinct pages are asked for their residency. A mapped page
 * votes for its holder with weight 1 + its holder's access count, so a
 * page that is merely *placed* somewhere still has a voice before any
 * counter ticks (cold-start steering), while hot pages dominate. Each
 * caller applies its own selection rule to the tally.
 */
ResidencyVotes residencyVotes(Addr cr3,
                              const std::vector<std::uint64_t> &args,
                              const PlacementView &view);

class ResidencyAwarePlacement final : public PlacementPolicy
{
  public:
    explicit ResidencyAwarePlacement(const PlacementConfig &config)
        : _cfg(config), _deviceModel(config.ewmaShift),
          _hostModel(config.ewmaShift)
    {
    }

    const char *name() const override { return "residency-aware"; }

    PlacementDecision place(const PlacementQuery &query,
                            const PlacementCandidates &cands,
                            const PlacementView &view) override;

    bool wantsFeedback() const override { return true; }

    void recordDeviceCall(Addr cr3, VAddr canonical, unsigned device,
                          Tick latency) override;
    void recordHostCall(Addr cr3, VAddr canonical, Tick latency) override;

    /** The cheaper measured estimate, for QoS admission (DESIGN.md §14). */
    Tick estimateCall(Addr cr3, VAddr canonical) const override;

  private:
    PlacementConfig _cfg;
    CallCostModel _deviceModel; //!< Crossing round trips, measured.
    CallCostModel _hostModel;   //!< Host-twin runs incl. fault, measured.
};

} // namespace flick

#endif // FLICK_POLICY_RESIDENCY_AWARE_HH
