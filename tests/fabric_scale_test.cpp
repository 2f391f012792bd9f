/**
 * @file
 * The N-device migration fabric (DESIGN.md §12).
 *
 * Covers the contract that makes the fabric generalization safe to
 * ship: any device count boots, runs and renders its statistics; every
 * device is reachable through the debug harness and the instruction
 * trace, and asking for a device the platform lacks dies cleanly;
 * placement hints steer first dispatch; and an 8-device fabric routes
 * around a quarantined member.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "flick/system.hh"
#include "sim/logging.hh"
#include "workloads/placement_mix.hh"

namespace flick
{
namespace
{

/** Build a @p devices-wide system loaded with the placement mix. */
std::pair<FlickSystem *, Process *>
makeFabric(SystemConfig config, unsigned devices)
{
    config.withDevices(devices);
    auto *sys = new FlickSystem(std::move(config));
    Program prog;
    workloads::addPlacementMix(prog, devices);
    Process &proc = sys->load(prog);
    return {sys, &proc};
}

/**
 * Concurrent storm: @p threads workers each submit one mix_hot call;
 * all futures are outstanding together so the rings see back-to-back
 * descriptors. Checks every value and returns the finish tick.
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

// --- Arbitrary fabric widths behave and render ---------------------------

TEST(FabricScale, EightDeviceFabricSpreadsUnderLeastLoaded)
{
    auto [sys, proc] = makeFabric(
        SystemConfig{}.withPlacement(PlacementKind::leastLoaded), 8);
    runHotStorm(*sys, *proc, 8, 400);
    const StatGroup &st = sys->debug().engine().stats();
    std::uint64_t total = 0;
    unsigned used = 0;
    for (unsigned d = 0; d < 8; ++d) {
        std::uint64_t c = st.get(strfmt("host_to_nxp_calls_dev%u", d));
        total += c;
        used += c > 0;
    }
    EXPECT_EQ(total, 8u);
    EXPECT_GE(used, 4u) << "storm stayed clumped on few devices";
    // Every h2d descriptor rings its own doorbell.
    EXPECT_GT(st.get("doorbell_writes"), 0u);
    delete sys;
}

TEST(FabricScale, DumpStatsRendersEveryDevice)
{
    auto [sys, proc] = makeFabric(SystemConfig{}, 8);
    EXPECT_EQ(sys->call(*proc, "mix_tiny", {40, 2}), 42u);
    std::string dump = statsDump(*sys);
    for (unsigned d = 1; d < 8; ++d)
        EXPECT_NE(dump.find(strfmt("nxp%u", d + 1)), std::string::npos)
            << "device " << d << " missing from dumpStats";
    delete sys;
}

// --- Every device sits behind the same accessors -------------------------

TEST(FabricDevices, InstructionTraceCoversEveryDevice)
{
    auto [sys, proc] = makeFabric(SystemConfig{}, 2);
    std::ostringstream trace;
    sys->enableInstructionTrace(&trace);
    CallFuture f = sys->submit(*proc, CallSpec("mix_hot")
                                          .withArgs({3, 20})
                                          .withPlacementHint(1));
    EXPECT_EQ(f.wait(), workloads::mixHotRef(3, 20));
    sys->enableInstructionTrace(nullptr);
    EXPECT_EQ(sys->debug().engine().stats().get("host_to_nxp_calls_dev1"),
              1u);

    // Lines are labelled by core name: the host, then device 1's core.
    std::string text = trace.str();
    EXPECT_NE(text.find("  host "), std::string::npos);
    EXPECT_NE(text.find("  nxp2 "), std::string::npos)
        << "device 1's core is missing from the instruction trace";
    delete sys;
}

TEST(FabricDevicesDeathTest, OutOfRangeDeviceDies)
{
    auto [sys, proc] = makeFabric(SystemConfig{}, 2);
    FlickSystem::Debug debug = sys->debug();
    EXPECT_DEATH(debug.nxpCore(2), "no NxP device 2");
    EXPECT_DEATH(debug.nxpPlatform(2), "no NxP device 2");
    EXPECT_DEATH(debug.dma(2), "no NxP device 2");
    EXPECT_DEATH(debug.nxpHeap(2), "no NxP device 2");
    EXPECT_DEATH(sys->nxpMalloc(64, 16, 2), "no NxP device 2");
    // The last device is in range, its components named after it.
    EXPECT_EQ(debug.nxpCore(1).name(), "nxp2");
    EXPECT_EQ(debug.nxpPlatform(1).stats().name(), "nxp2_platform");
    EXPECT_EQ(debug.dma(1).stats().name(), "dma2");
    EXPECT_EQ(debug.nxpCore(0).name(), "nxp");
    EXPECT_EQ(debug.dma(0).stats().name(), "dma");
    delete sys;
}

// --- Placement hints and fabric fault handling ---------------------------

TEST(FabricHints, HintSteersFirstDispatch)
{
    auto [sys, proc] = makeFabric(
        SystemConfig{}.withPlacement(PlacementKind::leastLoaded), 4);
    CallFuture f = sys->submit(*proc, CallSpec("mix_hot")
                                          .withArgs({5, 100})
                                          .withPlacementHint(2));
    EXPECT_EQ(f.wait(), workloads::mixHotRef(5, 100));
    const StatGroup &st = sys->debug().engine().stats();
    EXPECT_EQ(st.get("placement.hinted"), 1u);
    EXPECT_EQ(st.get("host_to_nxp_calls_dev2"), 1u);
    delete sys;
}

TEST(FabricHealth, EightDeviceFabricRoutesAroundQuarantine)
{
    auto [sys, proc] = makeFabric(
        SystemConfig{}.withPlacement(PlacementKind::leastLoaded), 8);
    // Warm the fabric so the kill is the only anomaly.
    EXPECT_EQ(sys->call(*proc, "mix_hot", {1, 50}),
              workloads::mixHotRef(1, 50));

    sys->debug().engine().killDevice(3);
    // Force one call onto the dead device: it strikes out, the device
    // is quarantined, the call fails cleanly.
    CallFuture doomed = sys->submit(*proc, CallSpec("mix_hot")
                                               .withArgs({2, 50})
                                               .withPlacementHint(3));
    doomed.wait();
    EXPECT_EQ(doomed.status(), CallStatus::deviceLost);
    ASSERT_EQ(sys->debug().engine().deviceHealth(3),
              DeviceHealth::quarantined);

    // The storm now completes entirely on the surviving seven.
    const StatGroup &st = sys->debug().engine().stats();
    std::uint64_t dev3_before = st.get("host_to_nxp_calls_dev3");
    runHotStorm(*sys, *proc, 8, 200);
    EXPECT_EQ(st.get("host_to_nxp_calls_dev3"), dev3_before);
    delete sys;
}

} // namespace
} // namespace flick
