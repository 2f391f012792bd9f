/**
 * @file
 * Concurrency tests for the event-driven migration engine: multiple
 * simulated threads submitted through the CallFuture API, overlapping
 * across the host core and the NxP devices, with per-thread protocol
 * ordering, round-trip accounting and NxP-stack teardown.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "flick/system.hh"
#include "workloads/microbench.hh"

namespace flick
{
namespace
{

// Device-1 twins of the microbench kernels, for the two-device tests.
const char *dev1Source = R"(
dev1_noop:
    li a0, 0
    ret

dev1_spin:
    mv t0, a0
d1s_loop:
    beqz t0, d1s_done
    addi t0, t0, -1
    j d1s_loop
d1s_done:
    li a0, 0
    ret
)";

class ConcurrentCallTest : public ::testing::Test
{
  protected:
    void
    boot(unsigned devices = 1, bool traced = false)
    {
        sys = std::make_unique<FlickSystem>(
            SystemConfig{}.withDevices(devices).withTrace(traced));
        Program prog;
        workloads::addMicrobench(prog);
        if (devices > 1)
            prog.addNxpAsm(dev1Source, 1);
        proc = &sys->load(prog);
    }

    /** Trace points recorded for @p pid, in order. */
    std::vector<TracePoint>
    pointsFor(int pid)
    {
        std::vector<TracePoint> points;
        for (const TraceEvent &e : sys->debug().trace().events()) {
            if (e.pid == pid)
                points.push_back(e.point);
        }
        return points;
    }

    std::unique_ptr<FlickSystem> sys;
    Process *proc = nullptr;
};

TEST_F(ConcurrentCallTest, SubmitReturnsBeforeCompletion)
{
    boot();
    CallFuture f = sys->submit(*proc, CallSpec("nxp_add").withArgs({40, 2}));
    EXPECT_TRUE(f.valid());
    EXPECT_FALSE(f.done()); // no simulated time has passed yet
    EXPECT_EQ(f.wait(), 42u);
    EXPECT_TRUE(f.done());
    EXPECT_EQ(f.value(), 42u);
}

TEST_F(ConcurrentCallTest, SequentialSubmitsOnOneThread)
{
    boot();
    EXPECT_EQ(sys->submit(*proc, CallSpec("nxp_add")
                                     .withArgs({1, 2})).wait(), 3u);
    EXPECT_EQ(sys->submit(*proc, CallSpec("host_add")
                                     .withArgs({3, 4})).wait(), 7u);
    EXPECT_EQ(sys->submit(*proc, CallSpec("nxp_sum6")
                                     .withArgs({1, 2, 3, 4, 5, 6})).wait(),
              21u);
}

TEST_F(ConcurrentCallTest, FourThreadsOverlapOnOneDevice)
{
    boot();
    constexpr std::uint64_t trips = 8;

    // Warm the main thread's NxP stack, then measure one thread doing
    // the 8-round-trip loop serially.
    sys->submit(*proc, CallSpec("nxp_noop")).wait();
    Tick t0 = sys->now();
    EXPECT_EQ(sys->submit(*proc, CallSpec("host_calls_nxp")
                                     .withArgs({trips})).wait(), 0u);
    Tick serial = sys->now() - t0;
    ASSERT_GT(serial, 0u);

    // Four threads, same loop, submitted together: their host-side
    // handler work overlaps with other threads' device-side work, so
    // the batch must beat four serial runs.
    Task &t1 = sys->spawnThread(*proc);
    Task &t2 = sys->spawnThread(*proc);
    Task &t3 = sys->spawnThread(*proc);

    StatGroup &stats = sys->debug().engine().stats();
    std::uint64_t rt0 = stats.get("host_nxp_host_roundtrips");

    t0 = sys->now();
    std::vector<CallFuture> futures;
    futures.push_back(sys->submit(*proc, CallSpec("host_calls_nxp")
                                             .withArgs({trips})));
    futures.push_back(sys->submit(*proc, CallSpec("host_calls_nxp")
                                             .withArgs({trips})
                                             .onThread(t1)));
    futures.push_back(sys->submit(*proc, CallSpec("host_calls_nxp")
                                             .withArgs({trips})
                                             .onThread(t2)));
    futures.push_back(sys->submit(*proc, CallSpec("host_calls_nxp")
                                             .withArgs({trips})
                                             .onThread(t3)));
    for (CallFuture &f : futures)
        EXPECT_EQ(f.wait(), 0u);
    Tick concurrent = sys->now() - t0;

    EXPECT_EQ(stats.get("host_nxp_host_roundtrips") - rt0, 4 * trips);
    EXPECT_LT(concurrent, 4 * serial);
    EXPECT_GE(concurrent, serial); // one device serializes NxP segments

    sys->exitThread(t1);
    sys->exitThread(t2);
    sys->exitThread(t3);
}

TEST_F(ConcurrentCallTest, PerThreadJournalKeepsFigure2Order)
{
    boot(1, true);
    Task &t1 = sys->spawnThread(*proc);
    Task &t2 = sys->spawnThread(*proc);
    Task &t3 = sys->spawnThread(*proc);

    std::vector<CallFuture> futures;
    futures.push_back(sys->submit(*proc, CallSpec("nxp_add")
                                             .withArgs({1, 10})));
    futures.push_back(sys->submit(*proc, CallSpec("nxp_add")
                                             .withArgs({2, 10})
                                             .onThread(t1)));
    futures.push_back(sys->submit(*proc, CallSpec("nxp_add")
                                             .withArgs({3, 10})
                                             .onThread(t2)));
    futures.push_back(sys->submit(*proc, CallSpec("nxp_add")
                                             .withArgs({4, 10})
                                             .onThread(t3)));
    for (std::size_t i = 0; i < futures.size(); ++i)
        EXPECT_EQ(futures[i].wait(), 11 + i);

    // Interleaved globally, but each thread must still walk Figure 2's
    // (a)..(g) order: fault, first-migration stack, suspend, DMA, run,
    // return, wake, resume.
    using TP = TracePoint;
    const std::vector<TracePoint> want = {
        TP::callEntry,      TP::hostNxFault,   TP::hostDescBuild,
        TP::nxpStackAlloc,  TP::kernelSuspend, TP::dmaToNxpStart,
        TP::dmaToNxpDone,   TP::nxpCallStart,  TP::nxpDescBuild,
        TP::dmaToHostStart, TP::dmaToHostDone, TP::kernelWake,
        TP::hostWake,       TP::kernelResume,  TP::hostResume,
        TP::callComplete,
    };
    for (const CallFuture &f : futures)
        EXPECT_EQ(pointsFor(f.pid()), want) << "pid " << f.pid();

    // Trace timestamps are globally nondecreasing.
    const auto &events = sys->debug().trace().events();
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_GE(events[i].tick, events[i - 1].tick);

    sys->exitThread(t1);
    sys->exitThread(t2);
    sys->exitThread(t3);
}

TEST_F(ConcurrentCallTest, NestedCallsInterleaveAcrossThreads)
{
    boot();
    Task &t1 = sys->spawnThread(*proc);

    // One thread runs cross-ISA mutual recursion while another bounces
    // NxP->host round trips; both nest through the same device.
    CallFuture fact = sys->submit(*proc, CallSpec("host_fact_nxp")
                                             .withArgs({6}));
    CallFuture bounce = sys->submit(*proc, CallSpec("nxp_calls_host")
                                               .withArgs({4})
                                               .onThread(t1));
    EXPECT_EQ(fact.wait(), 720u);
    EXPECT_EQ(bounce.wait(), 0u);

    StatGroup &stats = sys->debug().engine().stats();
    EXPECT_GE(stats.get("nxp_to_host_calls"), 4u);
    EXPECT_GE(stats.get("host_to_nxp_calls"), 2u);

    sys->exitThread(t1);
}

TEST_F(ConcurrentCallTest, TwoDevicesRunTrulyInParallel)
{
    boot(2);
    Task &t1 = sys->spawnThread(*proc);
    constexpr std::uint64_t iters = 20000;

    // Warm both threads' stacks, then measure each spin serially.
    sys->submit(*proc, CallSpec("nxp_noop")).wait();
    sys->submit(*proc, CallSpec("dev1_noop").onThread(t1)).wait();
    Tick t0 = sys->now();
    sys->submit(*proc, CallSpec("nxp_noop_loop").withArgs({iters})).wait();
    Tick serial0 = sys->now() - t0;
    t0 = sys->now();
    sys->submit(*proc, CallSpec("dev1_spin")
                           .withArgs({iters})
                           .onThread(t1)).wait();
    Tick serial1 = sys->now() - t0;

    // Concurrently the spins run on different devices, so the batch
    // takes about the longer spin, not the sum.
    t0 = sys->now();
    CallFuture f0 = sys->submit(*proc, CallSpec("nxp_noop_loop")
                                           .withArgs({iters}));
    CallFuture f1 = sys->submit(*proc, CallSpec("dev1_spin")
                                           .withArgs({iters})
                                           .onThread(t1));
    EXPECT_EQ(f0.wait(), iters); // nxp_noop_loop returns its argument
    EXPECT_EQ(f1.wait(), 0u);
    Tick concurrent = sys->now() - t0;

    EXPECT_LT(concurrent, (serial0 + serial1) * 9 / 10);
    EXPECT_GE(concurrent, std::max(serial0, serial1));

    sys->exitThread(t1);
}

TEST_F(ConcurrentCallTest, ExitThreadReturnsNxpStacksToTheHeap)
{
    boot();
    RegionHeap &heap = sys->debug().nxpHeap();
    std::uint64_t baseline = heap.allocatedBytes();

    Task &t1 = sys->spawnThread(*proc);
    Task &t2 = sys->spawnThread(*proc);
    EXPECT_EQ(sys->submit(*proc, CallSpec("nxp_add")
                                     .withArgs({1, 1})
                                     .onThread(t1)).wait(), 2u);
    EXPECT_EQ(sys->submit(*proc, CallSpec("nxp_add")
                                     .withArgs({2, 2})
                                     .onThread(t2)).wait(), 4u);
    EXPECT_GT(heap.allocatedBytes(), baseline);

    sys->exitThread(t1);
    sys->exitThread(t2);
    EXPECT_EQ(sys->debug().engine().stats().get("nxp_stacks_freed"), 2u);
    EXPECT_EQ(heap.allocatedBytes(), baseline);

    // Releasing the main thread's stack too drains the heap completely:
    // nothing leaks across thread lifetimes.
    sys->submit(*proc, CallSpec("nxp_noop")).wait();
    sys->debug().engine().releaseNxpStacks(*proc->task);
    EXPECT_EQ(heap.allocatedBytes(), 0u);
}

TEST_F(ConcurrentCallTest, SpawnedThreadStacksAreIsolated)
{
    boot();
    Task &t1 = sys->spawnThread(*proc);
    Task &t2 = sys->spawnThread(*proc);
    EXPECT_NE(t1.pid, t2.pid);
    EXPECT_NE(t1.hostStackTop, t2.hostStackTop);
    EXPECT_NE(t1.hostStackTop, proc->task->hostStackTop);

    // Both threads can run host work on their own stacks concurrently.
    CallFuture a = sys->submit(*proc, CallSpec("host_fact_nxp")
                                          .withArgs({5})
                                          .onThread(t1));
    CallFuture b = sys->submit(*proc, CallSpec("host_fact_nxp")
                                          .withArgs({7})
                                          .onThread(t2));
    EXPECT_EQ(a.wait(), 120u);
    EXPECT_EQ(b.wait(), 5040u);

    sys->exitThread(t1);
    sys->exitThread(t2);
}

} // namespace
} // namespace flick
