/**
 * @file
 * Placement & dispatch policy subsystem (DESIGN.md §11).
 *
 * Covers the contract that makes the policy layer safe to ship on by
 * default — StaticPlacement (and no policy at all) is tick-for-tick
 * identical to the pre-policy engine and bumps no counters — plus the
 * interesting behavior of the other two shipped policies: least-loaded
 * balancing spreads a concurrent storm across both NxPs
 * deterministically and never picks a quarantined device; the
 * profile-guided cost model steers an unprofitable function to its
 * host twin, keeps a near-data function on its device after one
 * mispredicted probe, and counts every model update.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "flick/system.hh"
#include "policy/profile_guided.hh"
#include "workloads/microbench.hh"
#include "workloads/placement_mix.hh"

namespace flick
{
namespace
{

/** Build a two-device system loaded with the placement mix workload. */
std::pair<FlickSystem *, Process *>
makeMixSystem(SystemConfig config)
{
    config.withDevices(2);
    auto *sys = new FlickSystem(std::move(config));
    Program prog;
    workloads::addPlacementMix(prog, 2);
    Process &proc = sys->load(prog);
    return {sys, &proc};
}

/**
 * Concurrent storm: @p threads workers each submit one mix_hot call;
 * all futures are outstanding together, so placement sees real queue
 * depth. Returns the simulated completion time.
 */
Tick
runHotStorm(FlickSystem &sys, Process &proc, unsigned threads,
            std::uint64_t rounds)
{
    std::vector<Task *> tasks;
    std::vector<CallFuture> futs;
    for (unsigned i = 0; i < threads; ++i)
        tasks.push_back(&sys.spawnThread(proc));
    for (unsigned i = 0; i < threads; ++i) {
        futs.push_back(sys.submit(proc, CallSpec("mix_hot")
                                            .withArgs({i + 1, rounds})
                                            .onThread(*tasks[i])));
    }
    for (unsigned i = 0; i < threads; ++i) {
        EXPECT_EQ(futs[i].wait(), workloads::mixHotRef(i + 1, rounds))
            << "thread " << i;
        EXPECT_EQ(futs[i].status(), CallStatus::ok);
    }
    return sys.now();
}

std::string
statsDump(FlickSystem &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    return os.str();
}

// --- Tick identity with the policy off (or explicitly static) ----------

TEST(PlacementStatic, ExplicitStaticIsTickIdenticalToDefault)
{
    // Same workload, three configs: default (no policy consulted), the
    // static kind, and an injected StaticPlacement instance (policy
    // consulted at every fault). All three must produce the same event
    // stream — same final tick, same stats.
    Tick ref = 0;
    std::string ref_stats;
    {
        auto [sys, proc] = makeMixSystem(SystemConfig{});
        ref = runHotStorm(*sys, *proc, 4, 300);
        ref_stats = statsDump(*sys);
        delete sys;
    }
    {
        auto [sys, proc] = makeMixSystem(
            SystemConfig{}.withPlacement(PlacementKind::staticPlacement));
        EXPECT_EQ(runHotStorm(*sys, *proc, 4, 300), ref);
        EXPECT_EQ(statsDump(*sys), ref_stats);
        delete sys;
    }
    {
        auto [sys, proc] = makeMixSystem(
            SystemConfig{}.withPlacement(
                std::make_shared<StaticPlacement>()));
        EXPECT_EQ(runHotStorm(*sys, *proc, 4, 300), ref);
        EXPECT_EQ(statsDump(*sys), ref_stats);
        delete sys;
    }
}

TEST(PlacementStatic, CountersZeroWhenOff)
{
    auto [sys, proc] = makeMixSystem(SystemConfig{});
    runHotStorm(*sys, *proc, 4, 300);
    EXPECT_EQ(sys->call(*proc, "mix_tiny", {40, 2}), 42u);
    const StatGroup &st = sys->debug().engine().stats();
    EXPECT_EQ(st.get("placement.host_steered"), 0u);
    EXPECT_EQ(st.get("placement.rebalanced"), 0u);
    EXPECT_EQ(st.get("placement.model_updates"), 0u);
    EXPECT_EQ(statsDump(*sys).find("placement."), std::string::npos);
    delete sys;
}

TEST(PlacementStatic, StaticKeepsEveryCallOnTheHomeDevice)
{
    auto [sys, proc] = makeMixSystem(SystemConfig{});
    runHotStorm(*sys, *proc, 4, 300);
    const StatGroup &st = sys->debug().engine().stats();
    EXPECT_GT(st.get("host_to_nxp_calls_dev0"), 0u);
    EXPECT_EQ(st.get("host_to_nxp_calls_dev1"), 0u);
    delete sys;
}

// --- The device-twin registry -------------------------------------------

TEST(PlacementTwins, DeviceTwinSymbolRunsOnItsOwnDevice)
{
    // The "__dev1" twin is callable directly (static placement): the
    // loader tagged its PTEs for device 1, so the call lands there and
    // computes the same value as the home symbol.
    auto [sys, proc] = makeMixSystem(SystemConfig{});
    EXPECT_EQ(sys->call(*proc, "mix_hot__dev1", {7, 100}),
              workloads::mixHotRef(7, 100));
    const StatGroup &st = sys->debug().engine().stats();
    EXPECT_EQ(st.get("host_to_nxp_calls_dev0"), 0u);
    EXPECT_EQ(st.get("host_to_nxp_calls_dev1"), 1u);
    delete sys;
}

// --- Least-loaded balancing ---------------------------------------------

TEST(PlacementLeastLoaded, SpreadsAConcurrentStormAcrossDevices)
{
    auto [sys, proc] = makeMixSystem(
        SystemConfig{}.withPlacement(PlacementKind::leastLoaded));
    runHotStorm(*sys, *proc, 6, 400);
    const StatGroup &st = sys->debug().engine().stats();
    EXPECT_GT(st.get("host_to_nxp_calls_dev0"), 0u);
    EXPECT_GT(st.get("host_to_nxp_calls_dev1"), 0u);
    EXPECT_GT(st.get("placement.rebalanced"), 0u);
    EXPECT_EQ(st.get("placement.rebalanced"),
              st.get("placement.rebalanced_dev1"));
    // Least-loaded never steers to host text.
    EXPECT_EQ(st.get("placement.host_steered"), 0u);
    delete sys;
}

TEST(PlacementLeastLoaded, BeatsStaticOnTheStorm)
{
    Tick static_time = 0, balanced_time = 0;
    {
        auto [sys, proc] = makeMixSystem(SystemConfig{});
        static_time = runHotStorm(*sys, *proc, 6, 400);
        delete sys;
    }
    {
        auto [sys, proc] = makeMixSystem(
            SystemConfig{}.withPlacement(PlacementKind::leastLoaded));
        balanced_time = runHotStorm(*sys, *proc, 6, 400);
        delete sys;
    }
    EXPECT_LT(balanced_time, static_time);
}

TEST(PlacementLeastLoaded, IsDeterministic)
{
    Tick t1 = 0, t2 = 0;
    std::string s1, s2;
    {
        auto [sys, proc] = makeMixSystem(
            SystemConfig{}.withPlacement(PlacementKind::leastLoaded));
        t1 = runHotStorm(*sys, *proc, 6, 400);
        s1 = statsDump(*sys);
        delete sys;
    }
    {
        auto [sys, proc] = makeMixSystem(
            SystemConfig{}.withPlacement(PlacementKind::leastLoaded));
        t2 = runHotStorm(*sys, *proc, 6, 400);
        s2 = statsDump(*sys);
        delete sys;
    }
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(s1, s2);
}

TEST(PlacementLeastLoaded, NeverChoosesAQuarantinedDevice)
{
    auto [sys, proc] = makeMixSystem(
        SystemConfig{}
            .withPlacement(PlacementKind::leastLoaded)
            .withHostFallback());
    MigrationEngine &eng = sys->debug().engine();
    // Kill device 1 before any call: the balancer still believes it is
    // healthy and places work there; the heartbeat quarantines it and
    // the stuck calls fail over to host twins with correct values.
    eng.killDevice(1);
    runHotStorm(*sys, *proc, 6, 400);
    EXPECT_EQ(eng.deviceHealth(1), DeviceHealth::quarantined);
    const StatGroup &st = eng.stats();
    std::uint64_t dev1_before = st.get("host_to_nxp_calls_dev1");
    EXPECT_GT(st.get("failovers"), 0u);
    // From now on the quarantined device must never be chosen again.
    std::uint64_t failovers_before = st.get("failovers");
    runHotStorm(*sys, *proc, 6, 400);
    EXPECT_EQ(st.get("host_to_nxp_calls_dev1"), dev1_before);
    // No call even tried the dead device, so no new failovers either.
    EXPECT_EQ(st.get("failovers"), failovers_before);
    delete sys;
}

// --- Profile-guided steering --------------------------------------------

TEST(PlacementProfileGuided, SteersTinyCallsToTheHostTwin)
{
    auto [sys, proc] = makeMixSystem(SystemConfig{}
                                         .withPlacement(
                                             PlacementKind::profileGuided)
                                         .withTrace());
    for (std::uint64_t i = 0; i < 30; ++i)
        EXPECT_EQ(sys->call(*proc, "mix_tiny", {i, 1}), i + 1);
    const StatGroup &st = sys->debug().engine().stats();
    // The first call probes the device (seeding the EWMA); once the
    // model sees an 18us round trip against a ~1.6us host run, every
    // later call runs the "__host" twin.
    EXPECT_EQ(st.get("host_to_nxp_calls"), 1u);
    EXPECT_EQ(st.get("placement.host_steered"), 29u);
    EXPECT_EQ(st.get("placement.host_steered_returns"), 29u);
    EXPECT_EQ(st.get("placement.model_updates"), 30u);
    // Steered runs are not failovers.
    EXPECT_EQ(st.get("failovers"), 0u);
    EXPECT_EQ(st.get("fallback_returns"), 0u);
    // The trace names each steered dispatch, on the host twin.
    VAddr twin = proc->image.symbol("mix_tiny__host");
    int steered = 0;
    for (const TraceEvent &e : sys->debug().trace().events()) {
        EXPECT_NE(e.point, TracePoint::hostFallback);
        if (e.point == TracePoint::hostSteered) {
            ++steered;
            EXPECT_EQ(e.arg, twin);
        }
    }
    EXPECT_EQ(steered, 29);
    delete sys;
}

TEST(PlacementProfileGuided, ReprobesTheDevicePeriodically)
{
    auto [sys, proc] = makeMixSystem(
        SystemConfig{}.withPlacement(PlacementKind::profileGuided));
    // The seed probe, then 2 * reprobeInterval steering decisions: the
    // 64th and the 128th cross again to refresh the device estimate.
    constexpr std::uint64_t calls = 1 + 2 * placement_tuning::reprobeInterval;
    for (std::uint64_t i = 0; i < calls; ++i)
        EXPECT_EQ(sys->call(*proc, "mix_tiny", {i, 1}), i + 1);
    const StatGroup &st = sys->debug().engine().stats();
    EXPECT_EQ(st.get("host_to_nxp_calls"), 3u);
    EXPECT_EQ(st.get("placement.host_steered"), calls - 3);
    delete sys;
}

TEST(PlacementProfileGuided, KeepsNearDataWorkOnTheDevice)
{
    auto [sys, proc] = makeMixSystem(
        SystemConfig{}.withPlacement(PlacementKind::profileGuided));
    constexpr std::uint64_t words = 64;
    VAddr buf = sys->nxpMalloc(words * 8, 16, 0);
    std::uint64_t expect = 0;
    for (std::uint64_t i = 0; i < words; ++i) {
        sys->writeVa(*proc, buf + i * 8, 3 * i + 1);
        expect += 3 * i + 1;
    }
    for (int i = 0; i < 12; ++i)
        EXPECT_EQ(sys->call(*proc, "mix_near", {buf, words}), expect);
    const StatGroup &st = sys->debug().engine().stats();
    // The clock-scaling estimate mispredicts the memory-bound kernel
    // once; the measured host run (every load crossing PCIe) corrects
    // the model and the function settles back on its device.
    EXPECT_LE(st.get("placement.host_steered"), 2u);
    EXPECT_GE(st.get("host_to_nxp_calls"), 10u);

    // The learned profile is inspectable and reflects the flip-back.
    auto &pg = dynamic_cast<ProfileGuidedPlacement &>(
        sys->debug().policy());
    const auto *prof = pg.profile(proc->image.cr3,
                                  proc->image.symbol("mix_near"));
    ASSERT_NE(prof, nullptr);
    EXPECT_GE(prof->deviceSamples, 10u);
    if (st.get("placement.host_steered") > 0) {
        EXPECT_GE(prof->hostSamples, 1u);
        EXPECT_GT(prof->hostEwma, prof->deviceEwma);
    }
    delete sys;
}

TEST(PlacementProfileGuided, BalancesAcrossDevicesLikeLeastLoaded)
{
    // Device selection inside the profile-guided policy reuses the
    // least-loaded rule, so a storm of profitable calls still spreads.
    auto [sys, proc] = makeMixSystem(
        SystemConfig{}.withPlacement(PlacementKind::profileGuided));
    constexpr std::uint64_t words = 64;
    VAddr buf = sys->nxpMalloc(words * 8, 16, 0);
    std::uint64_t expect = 0;
    for (std::uint64_t i = 0; i < words; ++i) {
        sys->writeVa(*proc, buf + i * 8, i);
        expect += i;
    }
    // Warm the model so mix_near stays on-device, then storm mix_hot.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(sys->call(*proc, "mix_near", {buf, words}), expect);
    runHotStorm(*sys, *proc, 6, 400);
    const StatGroup &st = sys->debug().engine().stats();
    EXPECT_GT(st.get("host_to_nxp_calls_dev0"), 0u);
    EXPECT_GT(st.get("placement.model_updates"), 0u);
    delete sys;
}

// --- Policies under nested / device-originated calls --------------------

TEST(PlacementNested, CrossIsaRecursionStaysCorrectUnderEveryPolicy)
{
    for (PlacementKind kind :
         {PlacementKind::staticPlacement, PlacementKind::leastLoaded,
          PlacementKind::profileGuided}) {
        FlickSystem sys(
            SystemConfig{}.withDevices(2).withPlacement(kind));
        Program prog;
        workloads::addMicrobench(prog);
        Process &proc = sys.load(prog);
        // Mutual recursion alternating host and NxP every level, plus
        // an NxP loop calling host functions: the device-originated
        // dispatch path with a policy attached.
        EXPECT_EQ(sys.call(proc, "host_fact_nxp", {8}), 40320u)
            << placementKindName(kind);
        EXPECT_EQ(sys.call(proc, "nxp_calls_host", {5}), 0u)
            << placementKindName(kind);
    }
}

TEST(PlacementNested, DeviceOriginatedCallsFeedTheModel)
{
    // A device-to-device call relays through the host kernel; its
    // round trip is as real a sample of the callee's device cost as a
    // host-originated one and must update the EWMA model (relayed
    // calls used to be dropped on the feedback path).
    FlickSystem sys(SystemConfig{}
                        .withDevices(2)
                        .withPlacement(PlacementKind::profileGuided));
    Program prog;
    workloads::addMicrobench(prog);
    prog.addNxpAsm(R"(
relay_scale:
    slli a0, a0, 2
    ret
)",
                   1);
    prog.addNxpAsm(R"(
relay_chain:
    addi sp, sp, -16
    sd ra, 8(sp)
    call relay_scale
    addi a0, a0, 1
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
)");
    Process &proc = sys.load(prog);

    EXPECT_EQ(sys.call(proc, "relay_chain", {10}), 41u);
    EXPECT_EQ(sys.debug().engine().stats().get("nxp_to_nxp_calls"), 1u);

    auto &pg =
        dynamic_cast<ProfileGuidedPlacement &>(sys.debug().policy());
    // The relayed callee got a device-side sample of its own...
    const auto *callee =
        pg.profile(proc.image.cr3, proc.image.symbol("relay_scale"));
    ASSERT_NE(callee, nullptr);
    EXPECT_EQ(callee->deviceSamples, 1u);
    EXPECT_GT(callee->deviceEwma, 0u);
    EXPECT_EQ(callee->hostSamples, 0u);
    // ...and the host-originated outer call fed the model as before.
    const auto *outer =
        pg.profile(proc.image.cr3, proc.image.symbol("relay_chain"));
    ASSERT_NE(outer, nullptr);
    EXPECT_EQ(outer->deviceSamples, 1u);
    EXPECT_GE(sys.debug().engine().stats().get("placement.model_updates"), 2u);
}

} // namespace
} // namespace flick
