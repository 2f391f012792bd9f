/**
 * @file
 * Differential chaos suite for the migration fabric.
 *
 * Each test runs a workload twice: once fault-free (the golden run) and
 * once with the ChaosController injecting descriptor corruption, lost
 * and duplicated interrupts, and randomized latency. The hardened
 * protocol — per-link sequence numbers, CRC-64 wire checksums,
 * NAK/retransmit and the lost-interrupt watchdog — must recover from
 * every injected fault, so the chaotic run has to produce bit-identical
 * return values. With chaos disabled the system must be tick-for-tick
 * identical to a default build and every fault/recovery counter must
 * stay at exactly zero.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <vector>

#include "flick/system.hh"
#include "workloads/microbench.hh"

namespace flick
{
namespace
{

// Device-1 kernels for the multi-NxP leg (mirrors multi_nxp_test).
const char *dev1Source = R"(
dev1_scale:
    slli a0, a0, 2
    ret
dev1_add:
    add a0, a0, a1
    ret
)";

// A device-0 function that calls into device 1 through the host kernel.
const char *dev0ChainSource = R"(
dev0_chain:
    addi sp, sp, -16
    sd ra, 8(sp)
    call dev1_scale
    addi a0, a0, 1
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
)";

enum class Workload
{
    microbench,
    nestedCallback,
    multiNxp,
    concurrentSubmit,
};

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::microbench: return "microbench";
      case Workload::nestedCallback: return "nested-callback";
      case Workload::multiNxp: return "multi-nxp";
      case Workload::concurrentSubmit: return "concurrent-submit";
    }
    return "?";
}

/** Everything observable about one workload run. */
struct RunResult
{
    std::vector<std::uint64_t> values; //!< Return values, in program order.
    Tick finalTick = 0;
    std::uint64_t chaosFaults = 0;
    std::uint64_t naks = 0;
    std::uint64_t retries = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t spuriousIrqs = 0;
    std::uint64_t seqMismatches = 0;
    std::uint64_t droppedIrqs = 0;
    std::uint64_t duplicatedIrqs = 0;
    std::uint64_t corruptions = 0;
    std::uint64_t delays = 0;

    std::uint64_t
    recoveries() const
    {
        return naks + retries + timeouts + spuriousIrqs + seqMismatches;
    }
};

/** The rates used by the differential legs: every fault class fires. */
ChaosConfig
testChaos(std::uint64_t seed)
{
    ChaosConfig c;
    c.enabled = true;
    c.seed = seed;
    c.corruptRate = 0.15;
    c.corruptBits = 4;
    c.dropIrqRate = 0.10;
    c.duplicateIrqRate = 0.10;
    c.delayRate = 0.30;
    c.maxExtraDelay = us(5);
    return c;
}

RunResult
runWorkload(Workload w, SystemConfig config)
{
    if (w == Workload::multiNxp)
        config.withDevices(2);
    FlickSystem sys(config);
    Program prog;
    workloads::addMicrobench(prog);
    if (w == Workload::multiNxp) {
        prog.addNxpAsm(dev1Source, 1);
        prog.addNxpAsm(dev0ChainSource);
    }
    Process &proc = sys.load(prog);

    RunResult r;
    auto run = [&](const char *symbol, std::vector<std::uint64_t> args) {
        r.values.push_back(sys.call(proc, symbol, std::move(args)));
    };

    switch (w) {
      case Workload::microbench:
        run("nxp_noop", {});
        run("nxp_add", {7, 35});
        run("nxp_sum6", {1, 2, 3, 4, 5, 6});
        run("host_add", {3, 4});
        run("host_calls_nxp", {4});
        break;
      case Workload::nestedCallback:
        // Cross-ISA mutual recursion: every level is another descriptor
        // round trip, so one lost interrupt stalls the whole tower.
        run("host_fact_nxp", {6});
        run("nxp_fact_host", {5});
        run("nxp_calls_host", {3});
        break;
      case Workload::multiNxp:
        run("nxp_add", {1, 2});
        run("dev1_add", {3, 4});
        run("dev1_scale", {5});
        run("dev0_chain", {10}); // 4*10 + 1, via a forwarded call
        break;
      case Workload::concurrentSubmit: {
        Task &t1 = sys.spawnThread(proc);
        Task &t2 = sys.spawnThread(proc);
        std::vector<CallFuture> futures;
        futures.push_back(
            sys.submit(proc, CallSpec("host_calls_nxp").withArgs({4})));
        futures.push_back(sys.submit(
            proc, CallSpec("host_fact_nxp").withArgs({5}).onThread(t1)));
        futures.push_back(sys.submit(
            proc, CallSpec("nxp_sum6").withArgs({6, 5, 4, 3, 2, 1})
                      .onThread(t2)));
        for (CallFuture &f : futures)
            r.values.push_back(f.wait());
        sys.exitThread(t1);
        sys.exitThread(t2);
        break;
      }
    }

    r.finalTick = sys.now();
    auto debug = sys.debug();
    r.chaosFaults = debug.chaos().faultsInjected();
    const StatGroup &engine = debug.engine().stats();
    r.naks = engine.get("naks");
    r.retries = engine.get("retries");
    r.timeouts = engine.get("timeouts");
    r.spuriousIrqs = engine.get("spurious_irqs");
    r.seqMismatches = engine.get("seq_mismatches");
    r.droppedIrqs = debug.irq().stats().get("dropped");
    r.duplicatedIrqs = debug.irq().stats().get("duplicated");
    for (unsigned d = 0; d < debug.nxpDeviceCount(); ++d) {
        r.corruptions += debug.dma(d).stats().get("chaos_corruptions");
        r.delays += debug.dma(d).stats().get("chaos_delays");
    }
    r.delays += debug.irq().stats().get("chaos_delays");
    return r;
}

/** Golden fault-free run of @p w, computed once and cached. */
const RunResult &
baseline(Workload w)
{
    static std::map<Workload, RunResult> cache;
    auto it = cache.find(w);
    if (it == cache.end())
        it = cache.emplace(w, runWorkload(w, SystemConfig{})).first;
    return it->second;
}

/** Expected return values, from the workload kernels themselves. */
std::vector<std::uint64_t>
expectedValues(Workload w)
{
    switch (w) {
      case Workload::microbench: return {0, 42, 21, 7, 0};
      case Workload::nestedCallback: return {720, 120, 0};
      case Workload::multiNxp: return {3, 7, 20, 41};
      case Workload::concurrentSubmit: return {0, 120, 21};
    }
    return {};
}

// --- Differential legs: ≥200 (workload, seed) runs ---------------------

class ChaosDifferential
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
  protected:
    Workload workload() const
    {
        return static_cast<Workload>(std::get<0>(GetParam()));
    }
    std::uint64_t seed() const
    {
        return static_cast<std::uint64_t>(std::get<1>(GetParam()));
    }
};

TEST_P(ChaosDifferential, SameResultsAsFaultFreeRun)
{
    const RunResult &golden = baseline(workload());
    ASSERT_EQ(golden.values, expectedValues(workload()))
        << "fault-free " << workloadName(workload()) << " run is broken";
    ASSERT_EQ(golden.chaosFaults, 0u);
    ASSERT_EQ(golden.recoveries(), 0u);

    RunResult chaotic = runWorkload(
        workload(), SystemConfig{}.withChaos(testChaos(seed())));
    EXPECT_EQ(chaotic.values, golden.values)
        << workloadName(workload()) << " diverged under chaos seed "
        << seed();
    // Recovery must never be silent: every injected protocol-visible
    // fault shows up in the counters. (A run may roll no faults at all;
    // the aggregate test below asserts they do fire overall.)
    if (chaotic.corruptions > 0) {
        EXPECT_GT(chaotic.naks, 0u)
            << workloadName(workload()) << " chaos seed " << seed();
        EXPECT_GT(chaotic.retries, 0u)
            << workloadName(workload()) << " chaos seed " << seed();
    }
    // (Dropped interrupts are usually rescued by the watchdog and show
    // up as timeouts, but a ghost duplicate can occasionally service the
    // landed descriptor first, so that implication is only asserted in
    // aggregate below.)
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ChaosDifferential,
    ::testing::Combine(::testing::Range(0, 4), ::testing::Range(1, 56)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>> &info) {
        std::ostringstream name;
        name << workloadName(
                    static_cast<Workload>(std::get<0>(info.param)))
             << "_seed" << std::get<1>(info.param);
        std::string s = name.str();
        for (char &c : s)
            if (c == '-')
                c = '_';
        return s;
    });

// --- Faults demonstrably fire --------------------------------------------

TEST(ChaosStats, EveryFaultClassFiresAcrossSeeds)
{
    RunResult total;
    for (std::uint64_t seed = 100; seed < 120; ++seed) {
        for (Workload w : {Workload::microbench, Workload::nestedCallback}) {
            RunResult r =
                runWorkload(w, SystemConfig{}.withChaos(testChaos(seed)));
            ASSERT_EQ(r.values, expectedValues(w))
                << workloadName(w) << " diverged under chaos seed " << seed;
            total.chaosFaults += r.chaosFaults;
            total.naks += r.naks;
            total.retries += r.retries;
            total.timeouts += r.timeouts;
            total.spuriousIrqs += r.spuriousIrqs;
            total.droppedIrqs += r.droppedIrqs;
            total.duplicatedIrqs += r.duplicatedIrqs;
            total.corruptions += r.corruptions;
            total.delays += r.delays;
        }
    }
    EXPECT_GT(total.chaosFaults, 0u);
    EXPECT_GT(total.corruptions, 0u);
    EXPECT_GT(total.droppedIrqs, 0u);
    EXPECT_GT(total.duplicatedIrqs, 0u);
    EXPECT_GT(total.delays, 0u);
    // ... and the protocol visibly recovered from them.
    EXPECT_GT(total.naks, 0u);
    EXPECT_GT(total.retries, 0u);
    EXPECT_GT(total.timeouts, 0u);
    EXPECT_GT(total.spuriousIrqs, 0u);
}

TEST(ChaosStats, PerDeviceCountersSumToTotals)
{
    // Run the multi-NxP workload under heavy corruption so both links
    // see traffic, then check the _dev# split adds up.
    RunResult r;
    SystemConfig config = SystemConfig{}.withChaos(testChaos(7));
    config.withDevices(2);
    FlickSystem sys(config);
    Program prog;
    workloads::addMicrobench(prog);
    prog.addNxpAsm(dev1Source, 1);
    prog.addNxpAsm(dev0ChainSource);
    Process &proc = sys.load(prog);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(sys.call(proc, "nxp_add", {1, 2}), 3u);
        EXPECT_EQ(sys.call(proc, "dev1_scale", {5}), 20u);
    }
    const StatGroup &stats = sys.debug().engine().stats();
    for (const char *key : {"naks", "retries", "timeouts", "host_irqs"}) {
        EXPECT_EQ(stats.get(key),
                  stats.get(std::string(key) + "_dev0") +
                      stats.get(std::string(key) + "_dev1"))
            << key;
    }
    EXPECT_GT(stats.get("host_irqs_dev1"), 0u);
}

TEST(ChaosStats, DumpIncludesChaosAndProtocolCounters)
{
    FlickSystem sys(SystemConfig{}.withChaos(testChaos(11)));
    Program prog;
    workloads::addMicrobench(prog);
    Process &proc = sys.load(prog);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(sys.call(proc, "nxp_add", {20, 22}), 42u);
    std::ostringstream os;
    sys.dumpStats(os);
    const std::string dump = os.str();
    EXPECT_NE(dump.find("chaos.rolls"), std::string::npos) << dump;
    EXPECT_NE(dump.find("chaos.faults_injected"), std::string::npos);
    EXPECT_NE(dump.find("flick.host_irqs"), std::string::npos);
    EXPECT_NE(dump.find("host_irqs_dev0"), std::string::npos);
}

// --- Chaos disabled: exact zero and tick-for-tick identity ---------------

TEST(ChaosOff, SeededButDisabledIsTickIdentical)
{
    for (Workload w : {Workload::microbench, Workload::nestedCallback,
                       Workload::multiNxp, Workload::concurrentSubmit}) {
        const RunResult &golden = baseline(w);
        // A chaos seed alone must not perturb anything: same values and
        // the exact same final tick as a default system.
        RunResult seeded =
            runWorkload(w, SystemConfig{}.withChaosSeed(0xfeedface));
        EXPECT_EQ(seeded.values, golden.values) << workloadName(w);
        EXPECT_EQ(seeded.finalTick, golden.finalTick) << workloadName(w);
        EXPECT_EQ(seeded.chaosFaults, 0u) << workloadName(w);
        EXPECT_EQ(seeded.recoveries(), 0u) << workloadName(w);
        EXPECT_EQ(seeded.corruptions, 0u) << workloadName(w);
        EXPECT_EQ(seeded.droppedIrqs, 0u) << workloadName(w);
        EXPECT_EQ(seeded.duplicatedIrqs, 0u) << workloadName(w);
        EXPECT_EQ(seeded.delays, 0u) << workloadName(w);
    }
}

TEST(ChaosOff, ChaosRunsDoNotChangeTheFaultFreeTimeline)
{
    // The chaotic timeline itself may differ (it injects latency), but
    // re-running fault-free after chaotic runs must still match the
    // golden timeline: chaos state never leaks between systems.
    const RunResult &golden = baseline(Workload::microbench);
    runWorkload(Workload::microbench, SystemConfig{}.withChaos(testChaos(3)));
    RunResult again = runWorkload(Workload::microbench, SystemConfig{});
    EXPECT_EQ(again.values, golden.values);
    EXPECT_EQ(again.finalTick, golden.finalTick);
}

// --- Endpoint faults: wedges, death, stuck DMA + host failover -----------

/** Endpoint-only rates; the fabric classes stay at zero so these legs
 *  draw from a PRNG stream disjoint from the differential legs above. */
ChaosConfig
endpointChaos(std::uint64_t seed)
{
    ChaosConfig c;
    c.enabled = true;
    c.seed = seed;
    c.wedgeNxpRate = 0.20;
    c.wedgeProgressInstructions = 4;
    c.deviceDeathRate = 0.10;
    c.stuckDmaRate = 0.05;
    return c;
}

/** Everything observable about one leaf-workload run. */
struct EndpointResult
{
    std::vector<std::uint64_t> values;
    Tick finalTick = 0;
    std::uint64_t failovers = 0;
    std::uint64_t fallbackReturns = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t rejectedSubmissions = 0;
    std::uint64_t callsFailed = 0;
    std::uint64_t coreWedges = 0;
    std::uint64_t deviceDeaths = 0;
    std::uint64_t stuckDmas = 0;

    std::uint64_t
    endpointEvents() const
    {
        return failovers + fallbackReturns + quarantines +
               rejectedSubmissions + callsFailed + coreWedges +
               deviceDeaths + stuckDmas;
    }
};

/**
 * Leaf-only NxP calls, every one with a registered "__host" twin.
 * Failover re-runs an interrupted call from its recorded arguments, so
 * pure leaves are the shape endpoint chaos can always rescue exactly.
 */
EndpointResult
runLeafWorkload(SystemConfig config)
{
    FlickSystem sys(config);
    Program prog;
    workloads::addMicrobench(prog);
    workloads::addMicrobenchHostFallbacks(prog);
    Process &proc = sys.load(prog);

    EndpointResult r;
    auto run = [&](const char *symbol, std::vector<std::uint64_t> args) {
        r.values.push_back(sys.call(proc, symbol, std::move(args)));
    };
    run("nxp_noop", {});
    run("nxp_add", {7, 35});
    run("nxp_sum6", {1, 2, 3, 4, 5, 6});
    run("host_add", {3, 4});
    run("nxp_add", {20, 22});

    r.finalTick = sys.now();
    auto debug = sys.debug();
    const StatGroup &engine = debug.engine().stats();
    r.failovers = engine.get("failovers");
    r.fallbackReturns = engine.get("fallback_returns");
    r.quarantines = engine.get("quarantines");
    r.rejectedSubmissions = engine.get("rejected_submissions");
    r.callsFailed = engine.get("calls_failed");
    r.coreWedges = engine.get("chaos_core_wedges");
    r.deviceDeaths = engine.get("chaos_device_deaths");
    for (unsigned d = 0; d < debug.nxpDeviceCount(); ++d)
        r.stuckDmas += debug.dma(d).stats().get("chaos_stuck");
    return r;
}

TEST(ChaosEndpoint, LeafCallsSurviveEndpointFaultsViaHostFallback)
{
    EndpointResult golden = runLeafWorkload(SystemConfig{});
    const std::vector<std::uint64_t> expected = {0, 42, 21, 7, 42};
    ASSERT_EQ(golden.values, expected);
    ASSERT_EQ(golden.endpointEvents(), 0u);

    EndpointResult total;
    for (std::uint64_t seed = 200; seed < 230; ++seed) {
        EndpointResult r = runLeafWorkload(SystemConfig{}
                                               .withChaos(endpointChaos(seed))
                                               .withHostFallback()
                                               .withHealthStrikeLimit(1));
        // Bit-identical values no matter which endpoint faults fired...
        EXPECT_EQ(r.values, golden.values) << "endpoint chaos seed " << seed;
        // ...and never by failing a call: every loss was failed over.
        EXPECT_EQ(r.callsFailed, 0u) << "endpoint chaos seed " << seed;
        total.failovers += r.failovers;
        total.fallbackReturns += r.fallbackReturns;
        total.quarantines += r.quarantines;
        total.rejectedSubmissions += r.rejectedSubmissions;
        total.coreWedges += r.coreWedges;
        total.deviceDeaths += r.deviceDeaths;
        total.stuckDmas += r.stuckDmas;
    }
    // Every endpoint fault class demonstrably fired across the seeds,
    // and the recovery machinery visibly engaged.
    EXPECT_GT(total.coreWedges, 0u);
    EXPECT_GT(total.deviceDeaths, 0u);
    EXPECT_GT(total.stuckDmas, 0u);
    EXPECT_GT(total.quarantines, 0u);
    EXPECT_GT(total.failovers, 0u);
    EXPECT_GT(total.fallbackReturns, 0u);
    EXPECT_GT(total.rejectedSubmissions, 0u);
}

TEST(ChaosEndpoint, SeededButDisabledKeepsCountersZeroAndTickIdentical)
{
    // Endpoint rates configured but the master switch off: no heartbeat
    // is armed, no PRNG draw happens, every endpoint counter stays at
    // exactly zero and the timeline matches a default system tick for
    // tick — even with host fallback twins registered.
    EndpointResult golden = runLeafWorkload(SystemConfig{});
    ChaosConfig off = endpointChaos(0xfeedface);
    off.enabled = false;
    EndpointResult r = runLeafWorkload(
        SystemConfig{}.withChaos(off).withHostFallback());
    EXPECT_EQ(r.values, golden.values);
    EXPECT_EQ(r.finalTick, golden.finalTick);
    EXPECT_EQ(r.endpointEvents(), 0u);
}

// --- Unrecoverable faults die loudly -------------------------------------

TEST(ChaosDeath, ExhaustedRetryBudgetDiesWithSeedInDiagnostic)
{
    ChaosConfig always = testChaos(4242);
    always.corruptRate = 1.0; // every burst corrupt: retry cannot help
    always.dropIrqRate = 0.0;
    always.duplicateIrqRate = 0.0;
    always.delayRate = 0.0;
    FlickSystem sys(
        SystemConfig{}.withChaos(always).withRetryBudget(3));
    Program prog;
    workloads::addMicrobench(prog);
    Process &proc = sys.load(prog);
    EXPECT_DEATH(sys.call(proc, "nxp_add", {1, 1}),
                 "unrecoverable fabric fault: descriptor on the "
                 "host->NxP link of NxP 0 still corrupt after 3 "
                 "retransmissions.*chaos seed 4242");
}

} // namespace
} // namespace flick
