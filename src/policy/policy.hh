/**
 * @file
 * Placement & dispatch policy subsystem (DESIGN.md §11).
 *
 * The paper pins every function to one NxP at link time (§placement
 * policy). With multiple NxPs, host-ISA twins (failover, Section 3.3
 * multi-ISA binaries) and measured per-phase latencies, the dispatch
 * boundary can do better: a PlacementPolicy is consulted by the
 * MigrationEngine at every NX-fault dispatch and decides, per call,
 * (a) whether to cross at all — or run the function's host twin — and
 * (b) which device's copy of the text to run.
 *
 * The contract that keeps the simulator deterministic: place() is a
 * pure function of the query, the candidates and the engine-state view.
 * Policies never schedule events, never allocate simulated resources
 * and never draw randomness, so a policy that returns the home
 * placement leaves the event stream tick-for-tick identical to a run
 * with no policy at all (tests/policy_test.cpp asserts this).
 */

#ifndef FLICK_POLICY_POLICY_HH
#define FLICK_POLICY_POLICY_HH

#include <memory>
#include <vector>

#include "mem/sparse_memory.hh"
#include "sim/ticks.hh"
#include "vm/pte.hh"

namespace flick
{

/** The shipped placement policies, selectable via SystemConfig. */
enum class PlacementKind
{
    staticPlacement, //!< The paper's link-time pinning (the default).
    leastLoaded,     //!< Balance across NxPs by queue depth.
    profileGuided,   //!< EWMA cost model; steer host when crossing loses.
    residencyAware,  //!< Follow the data: steer to the argument pages'
                     //!< majority holder (DESIGN.md §15).
};

/** Printable policy-kind name. */
const char *placementKindName(PlacementKind kind);

/** Tunables of the shipped policies (ProfileGuidedPlacement mostly). */
struct PlacementConfig
{
    /** EWMA smoothing: alpha = 1 / 2^ewmaShift. */
    unsigned ewmaShift = 3;
    /**
     * Hysteresis: the host twin must beat the device estimate by this
     * margin (percent) before a call is steered host, so placement does
     * not flap on noise.
     */
    unsigned steerMarginPct = 12;
    /**
     * While a function is steered host, every Nth decision still goes
     * to the device so the model keeps a fresh crossing sample (the
     * device may speed up as load drains). 0 disables re-probing.
     */
    unsigned reprobeInterval = 64;
    /** Device-latency samples required before host-steering is weighed. */
    unsigned minDeviceSamples = 1;
    /**
     * ResidencyAwarePlacement: minimum share (percent) of the access-
     * weighted argument-page votes one holder must collect before the
     * call is steered to it; below the threshold the policy falls back
     * to queue-depth balancing. Acts as placement-side hysteresis — a
     * near-tie never overrides load balancing (DESIGN.md §15).
     */
    unsigned residencyMajorityPct = 50;
};

/** Instantaneous load of one NxP device, as the dispatch path sees it. */
struct DeviceLoad
{
    /** Outstanding work: staged + deferred descriptors + running segment. */
    unsigned depth = 0;
    /** Core currently owned by a thread or handler. */
    bool busy = false;
    /** Written off by the health watchdog; must never be chosen. */
    bool quarantined = false;
};

/** One dispatch decision request. */
struct PlacementQuery
{
    Addr cr3 = 0;
    /** The function's canonical (home-symbol) virtual address. */
    VAddr canonical = 0;
    /** Device the symbol was linked for (the paper's static placement). */
    unsigned home = 0;
    /** True for a device-originated (device-to-device) call. */
    bool fromDevice = false;
    /** Originating device when fromDevice (excluded from candidates). */
    unsigned callerDevice = 0;
    /**
     * The call's argument registers at fault time. Residency-aware
     * placement treats page-aligned-ish values as potential pointers and
     * consults the residency map for the pages they name; other policies
     * ignore them. Empty when the installed policy needs no arguments.
     */
    std::vector<std::uint64_t> args;
};

/**
 * Where one virtual page's data lives and who has been touching it
 * (PlacementView::pageResidency). Weightless when residency tracking is
 * off: mapped pages still report their holder, counters stay zero.
 */
struct PageResidency
{
    bool mapped = false; //!< False: VA unmapped; all else is meaningless.
    /** Backing store: -1 = host DRAM, k >= 0 = NxP device k's DRAM. */
    int holder = -1;
    /** Timed host-core accesses to the page. */
    std::uint64_t hostAccesses = 0;
    /** Timed NxP-core accesses, indexed by device. */
    std::vector<std::uint64_t> deviceAccesses;
};

/** Where the function's text exists. */
struct PlacementCandidates
{
    /**
     * Per-device dispatch VA (index = device id): the home symbol on its
     * home device plus any registered "__dev<k>" twins; 0 where the
     * device has no copy of the text.
     */
    std::vector<VAddr> deviceVa;
    /** The "__host" twin's VA, or 0 if none is registered. */
    VAddr hostVa = 0;
};

/** The policy's answer. The engine clamps impossible answers to home. */
struct PlacementDecision
{
    bool toHost = false; //!< Run the host twin instead of crossing.
    unsigned device = 0; //!< Target device when !toHost.
};

/**
 * Read-only view of engine state a policy may consult. Implemented by
 * the MigrationEngine; everything here is cheap and side-effect free.
 */
class PlacementView
{
  public:
    virtual ~PlacementView() = default;

    /** Number of NxP devices in the platform. */
    virtual unsigned deviceCount() const = 0;
    /** Load of @p device right now. */
    virtual DeviceLoad load(unsigned device) const = 0;
    /**
     * Analytic estimate of one Host-NxP-Host crossing's protocol
     * overhead (fault service through wakeup, excluding callee
     * execution), derived from TimingConfig (DESIGN.md §11 equations).
     */
    virtual Tick crossingEstimate() const = 0;
    /**
     * Fixed cost of steering a faulted call to its host twin (the NX
     * fault still fires: fault service + trap exit + handler prologue).
     */
    virtual Tick steerOverhead() const = 0;
    /** Host-to-NxP clock ratio (both cores retire one op per cycle). */
    virtual unsigned hostSpeedup() const = 0;
    /**
     * Residency of the page holding @p va in address space @p cr3: which
     * DRAM backs it and who has been accessing it (DESIGN.md §15). The
     * walk is untimed and side-effect free. The default (engines without
     * a residency tracker, test doubles) reports "unmapped", which makes
     * residency-aware placement degrade to queue-depth balancing.
     */
    virtual PageResidency
    pageResidency(Addr cr3, VAddr va) const
    {
        (void)cr3, (void)va;
        return {};
    }
};

/**
 * The placement decision point. Implementations must be deterministic
 * (no randomness, no wall-clock) — the simulator's reproducibility
 * depends on it.
 */
class PlacementPolicy
{
  public:
    virtual ~PlacementPolicy() = default;

    virtual const char *name() const = 0;

    /** Decide where the queried call runs. */
    virtual PlacementDecision place(const PlacementQuery &query,
                                    const PlacementCandidates &cands,
                                    const PlacementView &view) = 0;

    /**
     * Whether the engine should feed measured end-to-end latencies back
     * via the record*() hooks (and count them as model updates).
     */
    virtual bool wantsFeedback() const { return false; }

    /** A host-originated call to @p canonical completed on @p device. */
    virtual void
    recordDeviceCall(Addr cr3, VAddr canonical, unsigned device,
                     Tick latency)
    {
        (void)cr3, (void)canonical, (void)device, (void)latency;
    }

    /** A steered/failover call to @p canonical completed on host text. */
    virtual void
    recordHostCall(Addr cr3, VAddr canonical, Tick latency)
    {
        (void)cr3, (void)canonical, (void)latency;
    }

    /**
     * Learned end-to-end latency estimate for a call to (cr3,
     * canonical); 0 = the policy has no model for it. The QoS admission
     * test (DESIGN.md §14) consults this so shedding decisions are made
     * with the same cost model that steers placement; the default says
     * "unknown" and admission falls back to its own end-to-end EWMAs
     * and the analytic crossing floor.
     */
    virtual Tick
    estimateCall(Addr cr3, VAddr canonical) const
    {
        (void)cr3, (void)canonical;
        return 0;
    }
};

/**
 * The paper's placement: every call runs on the device its symbol was
 * linked for. Explicitly installing this policy is tick-for-tick
 * identical to running with no policy at all.
 */
class StaticPlacement final : public PlacementPolicy
{
  public:
    const char *name() const override { return "static"; }

    PlacementDecision
    place(const PlacementQuery &query, const PlacementCandidates &,
          const PlacementView &) override
    {
        return {false, query.home};
    }
};

/** Construct one of the shipped policies. */
std::shared_ptr<PlacementPolicy>
makePlacementPolicy(PlacementKind kind, const PlacementConfig &config);

} // namespace flick

#endif // FLICK_POLICY_POLICY_HH
