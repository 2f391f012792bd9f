/**
 * @file
 * Profile-guided placement: an online EWMA cost model per function
 * (DESIGN.md §11).
 *
 * "A Magnified View into Heterogeneous-ISA Thread Migration
 * Performance" (PAPERS.md) shows migration profitability depends on
 * the workload; this policy measures it instead of assuming it. Every
 * completed host-originated call feeds its end-to-end latency back
 * into a per-function EWMA; once the model says the host twin would
 * have been cheaper — by a hysteresis margin — subsequent calls are
 * steered to host text instead of crossing, with periodic re-probes so
 * a device that drains can win the function back.
 */

#ifndef FLICK_POLICY_PROFILE_GUIDED_HH
#define FLICK_POLICY_PROFILE_GUIDED_HH

#include <map>
#include <utility>

#include "policy/cost_model.hh"
#include "policy/policy.hh"

namespace flick
{

class ProfileGuidedPlacement final : public PlacementPolicy
{
  public:
    /** The learned state for one function (exposed for tests/tools). */
    struct FnProfile
    {
        Tick deviceEwma = 0; //!< Crossing round trip, measured.
        Tick hostEwma = 0;   //!< Host-twin run incl. fault, measured.
        std::uint64_t deviceSamples = 0;
        std::uint64_t hostSamples = 0;
        //! Host-steer decisions made since the last device re-probe.
        std::uint64_t steeredDecisions = 0;
    };

    const char *name() const override { return "profile-guided"; }

    PlacementDecision place(const PlacementQuery &query,
                            const PlacementCandidates &cands,
                            const PlacementView &view) override;

    bool wantsFeedback() const override { return true; }

    void recordDeviceCall(Addr cr3, VAddr canonical, unsigned device,
                          Tick latency) override;
    void recordHostCall(Addr cr3, VAddr canonical,
                        Tick latency) override;

    /**
     * Admission feedback (DESIGN.md §14): the cheaper of the measured
     * device/host EWMAs — the cost place() would actually choose — so
     * the QoS shedding predicate and placement share one model.
     */
    Tick estimateCall(Addr cr3, VAddr canonical) const override;

    /** The model for (cr3, canonical), or nullptr if never seen. */
    const FnProfile *profile(Addr cr3, VAddr canonical) const;

    /** Number of functions the model has state for. */
    std::size_t modelSize() const { return _model.size(); }

  private:
    //! Keyed (cr3, canonical VA); std::map for deterministic iteration.
    std::map<std::pair<Addr, VAddr>, FnProfile> _model;
};

} // namespace flick

#endif // FLICK_POLICY_PROFILE_GUIDED_HH
