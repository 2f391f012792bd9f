/**
 * @file
 * Protocol-order tests: the trace stream of a cross-ISA call must follow
 * the Figure 2 walkthrough exactly, with monotonically non-decreasing
 * timestamps and the right targets.
 */

#include <gtest/gtest.h>

#include "flick/system.hh"
#include "sim/trace.hh"
#include "workloads/microbench.hh"

namespace flick
{
namespace
{

class ProtocolTest : public ::testing::Test
{
  protected:
    void
    boot()
    {
        sys = std::make_unique<FlickSystem>(SystemConfig{}.withTrace());
        Program prog;
        workloads::addMicrobench(prog);
        proc = &sys->load(prog);
        // Exclude the one-time stack allocation from the streams.
        sys->call(*proc, "nxp_noop");
        sys->debug().trace().reset();
    }

    const std::vector<TraceEvent> &
    events() const
    {
        return sys->debug().trace().events();
    }

    std::vector<TracePoint>
    points() const
    {
        std::vector<TracePoint> out;
        for (const TraceEvent &e : events())
            out.push_back(e.point);
        return out;
    }

    std::unique_ptr<FlickSystem> sys;
    Process *proc = nullptr;
};

using TP = TracePoint;

TEST_F(ProtocolTest, SimpleCallFollowsFigure2a2b2f2g)
{
    boot();
    sys->call(*proc, "nxp_add", {1, 2});
    EXPECT_EQ(points(),
              (std::vector<TracePoint>{
                  // (a) host calls the NxP function: fault, descriptor,
                  // suspend, and only then the DMA.
                  TP::callEntry, TP::hostNxFault, TP::hostDescBuild,
                  TP::kernelSuspend, TP::dmaToNxpStart, TP::dmaToNxpDone,
                  // (b) the function starts on the NxP.
                  TP::nxpCallStart,
                  // (f) the NxP returns.
                  TP::nxpDescBuild, TP::dmaToHostStart, TP::dmaToHostDone,
                  // (g) the host gets the return value and continues.
                  TP::kernelWake, TP::hostWake, TP::kernelResume,
                  TP::hostResume, TP::callComplete}));
}

TEST_F(ProtocolTest, NestedCallFollowsFullFigure2)
{
    boot();
    // host -> nxp_calls_host(1) -> host_noop: the complete (a)..(g).
    sys->call(*proc, "nxp_calls_host", {1});
    EXPECT_EQ(points(),
              (std::vector<TracePoint>{
                  // (a) host calls the NxP function.
                  TP::callEntry, TP::hostNxFault, TP::hostDescBuild,
                  TP::kernelSuspend, TP::dmaToNxpStart, TP::dmaToNxpDone,
                  // (b) the function starts on the NxP.
                  TP::nxpCallStart,
                  // (c) the NxP calls a host function.
                  TP::nxpFault, TP::nxpDescBuild, TP::dmaToHostStart,
                  TP::dmaToHostDone,
                  // (d) the host receives it and runs the function.
                  TP::kernelWake, TP::hostWake, TP::kernelResume,
                  TP::hostCallStart,
                  // (e) the host sends the return descriptor back.
                  TP::hostDescBuild, TP::kernelSuspend, TP::dmaToNxpStart,
                  TP::dmaToNxpDone,
                  // (f) the NxP resumes and eventually returns.
                  TP::nxpResume, TP::nxpDescBuild, TP::dmaToHostStart,
                  TP::dmaToHostDone,
                  // (g) the host gets the return value and continues.
                  TP::kernelWake, TP::hostWake, TP::kernelResume,
                  TP::hostResume, TP::callComplete}));
}

TEST_F(ProtocolTest, TimestampsAreMonotonic)
{
    boot();
    sys->call(*proc, "nxp_calls_host", {3});
    const auto &j = events();
    ASSERT_FALSE(j.empty());
    for (std::size_t i = 1; i < j.size(); ++i)
        EXPECT_GE(j[i].tick, j[i - 1].tick);
}

TEST_F(ProtocolTest, JournalCarriesTargets)
{
    boot();
    sys->call(*proc, "nxp_add", {1, 2});
    VAddr target = proc->image.symbol("nxp_add");
    bool saw_fault = false, saw_start = false;
    for (const TraceEvent &e : events()) {
        if (e.point == TP::hostNxFault) {
            EXPECT_EQ(e.arg, target);
            EXPECT_EQ(e.pid, proc->task->pid);
            saw_fault = true;
        }
        if (e.point == TP::nxpCallStart) {
            EXPECT_EQ(e.arg, target);
            saw_start = true;
        }
    }
    EXPECT_TRUE(saw_fault);
    EXPECT_TRUE(saw_start);
}

TEST_F(ProtocolTest, RecursionNestsJournalSymmetrically)
{
    boot();
    sys->call(*proc, "host_fact_nxp", {4});
    // Counts must balance: every fault produces exactly one return.
    int host_faults = 0, host_returns = 0;
    int nxp_faults = 0, nxp_resumes = 0;
    for (const TraceEvent &e : events()) {
        host_faults += e.point == TP::hostNxFault;
        host_returns += e.point == TP::hostResume;
        nxp_faults += e.point == TP::nxpFault;
        nxp_resumes += e.point == TP::nxpResume;
    }
    EXPECT_EQ(host_faults, host_returns);
    EXPECT_EQ(nxp_faults, nxp_resumes);
    // fact(4): host->nxp at 3, 1 and nxp->host at 2 (mutual recursion).
    EXPECT_EQ(host_faults, 2);
    EXPECT_EQ(nxp_faults, 1);
}

TEST_F(ProtocolTest, DmaFiresOnlyAfterSuspend)
{
    boot();
    sys->call(*proc, "nxp_add", {1, 2});
    // The task's suspension strictly precedes the descriptor DMA
    // (Section IV-D): the kernel fires it after the context switch.
    const TraceEvent *suspend = nullptr, *dma = nullptr;
    for (const TraceEvent &e : events()) {
        if (e.pid != proc->task->pid)
            continue;
        if (e.point == TP::kernelSuspend && !suspend)
            suspend = &e;
        if (e.point == TP::dmaToNxpStart && !dma)
            dma = &e;
    }
    ASSERT_NE(suspend, nullptr);
    ASSERT_NE(dma, nullptr);
    EXPECT_LT(suspend, dma);
    EXPECT_LT(suspend->tick, dma->tick);
}

TEST_F(ProtocolTest, FirstMigrationAllocatesTheNxpStack)
{
    boot();
    Task &fresh = sys->spawnThread(*proc);
    sys->submit(*proc, CallSpec("nxp_add").withArgs({1, 2}).onThread(fresh))
        .wait();
    // Exactly one allocation, carrying the new stack top, before the
    // call's descriptor leaves the host.
    int allocs = 0;
    bool dma_seen = false;
    for (const TraceEvent &e : events()) {
        if (e.pid != fresh.pid)
            continue;
        if (e.point == TP::nxpStackAlloc) {
            ++allocs;
            EXPECT_FALSE(dma_seen);
            EXPECT_EQ(e.arg, fresh.nxpStackTop[0]);
        }
        dma_seen |= e.point == TP::dmaToNxpStart;
    }
    EXPECT_EQ(allocs, 1);
    EXPECT_TRUE(dma_seen);
    sys->exitThread(fresh);
}

} // namespace
} // namespace flick
