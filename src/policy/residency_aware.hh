/**
 * @file
 * Data-residency-aware placement (DESIGN.md §15).
 *
 * The paper's Fig. 5 crossover (~32 accesses per migration) is about
 * where the data lives: a call whose working set sits in NxP k's DRAM
 * pays one local access per load when it runs on device k, and a
 * bridge/peer crossing per load anywhere else. This policy looks at
 * the call's argument registers, asks the page table which DRAM holds
 * the pages they point at, and steers the call to the majority holder
 * — falling back to queue-depth balancing when the arguments carry no
 * residency signal, and composing with the shared EWMA cost model so a
 * measured latency can veto data gravity.
 */

#ifndef FLICK_POLICY_RESIDENCY_AWARE_HH
#define FLICK_POLICY_RESIDENCY_AWARE_HH

#include "policy/cost_model.hh"
#include "policy/policy.hh"

namespace flick
{

class ResidencyAwarePlacement final : public PlacementPolicy
{
  public:
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
    CallCostModel _deviceModel; //!< Crossing round trips, measured.
    CallCostModel _hostModel;   //!< Host-twin runs incl. fault, measured.
};

} // namespace flick

#endif // FLICK_POLICY_RESIDENCY_AWARE_HH
