/**
 * @file
 * Protocol-journal tests: the recorded migration steps must follow the
 * Figure 2 walkthrough exactly, with monotonically non-decreasing
 * timestamps and the right targets.
 */

#include <gtest/gtest.h>

#include "flick/system.hh"
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
        sys = std::make_unique<FlickSystem>(config);
        Program prog;
        workloads::addMicrobench(prog);
        proc = &sys->load(prog);
        // Exclude the one-time stack allocation from journals.
        sys->call(*proc, "nxp_noop");
        sys->debug().engine().enableJournal();
    }

    std::vector<ProtocolStep>
    steps() const
    {
        std::vector<ProtocolStep> out;
        for (const auto &e : sys->debug().engine().journal())
            out.push_back(e.step);
        return out;
    }

    SystemConfig config;
    std::unique_ptr<FlickSystem> sys;
    Process *proc = nullptr;
};

TEST_F(ProtocolTest, SimpleCallFollowsFigure2a2b2f2g)
{
    boot();
    sys->call(*proc, "nxp_add", {1, 2});
    EXPECT_EQ(steps(),
              (std::vector<ProtocolStep>{
                  ProtocolStep::hostNxFault, ProtocolStep::hostSendCall,
                  ProtocolStep::dmaToNxp, ProtocolStep::nxpPickup,
                  ProtocolStep::nxpCallStart, ProtocolStep::nxpSendReturn,
                  ProtocolStep::hostReturn}));
}

TEST_F(ProtocolTest, NestedCallFollowsFullFigure2)
{
    boot();
    // host -> nxp_calls_host(1) -> host_noop: the complete (a)..(g).
    sys->call(*proc, "nxp_calls_host", {1});
    EXPECT_EQ(steps(),
              (std::vector<ProtocolStep>{
                  // (a) host calls the NxP function.
                  ProtocolStep::hostNxFault, ProtocolStep::hostSendCall,
                  ProtocolStep::dmaToNxp,
                  // (b) descriptor picked up, function starts on NxP.
                  ProtocolStep::nxpPickup, ProtocolStep::nxpCallStart,
                  // (c) the NxP calls a host function.
                  ProtocolStep::nxpFault, ProtocolStep::nxpSendCall,
                  // (d) the host receives it and runs the function.
                  ProtocolStep::hostWake, ProtocolStep::hostCallStart,
                  // (e) the host sends the return descriptor back.
                  ProtocolStep::hostSendReturn,
                  // (f) the NxP resumes and eventually returns.
                  ProtocolStep::nxpResume, ProtocolStep::nxpSendReturn,
                  // (g) the host gets the return value and continues.
                  ProtocolStep::hostReturn}));
}

TEST_F(ProtocolTest, TimestampsAreMonotonic)
{
    boot();
    sys->call(*proc, "nxp_calls_host", {3});
    const auto &j = sys->debug().engine().journal();
    ASSERT_FALSE(j.empty());
    for (std::size_t i = 1; i < j.size(); ++i)
        EXPECT_GE(j[i].when, j[i - 1].when);
}

TEST_F(ProtocolTest, JournalCarriesTargets)
{
    boot();
    sys->call(*proc, "nxp_add", {1, 2});
    const auto &j = sys->debug().engine().journal();
    VAddr target = proc->image.symbol("nxp_add");
    EXPECT_EQ(j[0].step, ProtocolStep::hostNxFault);
    EXPECT_EQ(j[0].addr, target);
    EXPECT_EQ(j[0].pid, proc->task->pid);
    bool saw_pickup = false;
    for (const auto &e : j) {
        if (e.step == ProtocolStep::nxpPickup) {
            EXPECT_EQ(e.addr, target);
            saw_pickup = true;
        }
    }
    EXPECT_TRUE(saw_pickup);
}

TEST_F(ProtocolTest, RecursionNestsJournalSymmetrically)
{
    boot();
    sys->call(*proc, "host_fact_nxp", {4});
    // Counts must balance: every fault produces exactly one return.
    int host_faults = 0, host_returns = 0;
    int nxp_faults = 0, nxp_resumes = 0;
    for (const auto &e : sys->debug().engine().journal()) {
        host_faults += e.step == ProtocolStep::hostNxFault;
        host_returns += e.step == ProtocolStep::hostReturn;
        nxp_faults += e.step == ProtocolStep::nxpFault;
        nxp_resumes += e.step == ProtocolStep::nxpResume;
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
    const auto &j = sys->debug().engine().journal();
    // hostSendCall (suspension complete) strictly precedes dmaToNxp.
    std::size_t send = 0, dma = 0;
    for (std::size_t i = 0; i < j.size(); ++i) {
        if (j[i].step == ProtocolStep::hostSendCall)
            send = i;
        if (j[i].step == ProtocolStep::dmaToNxp)
            dma = i;
    }
    EXPECT_LT(send, dma);
}

TEST_F(ProtocolTest, JournalDisabledByDefault)
{
    config = {};
    sys = std::make_unique<FlickSystem>(config);
    Program prog;
    workloads::addMicrobench(prog);
    proc = &sys->load(prog);
    sys->call(*proc, "nxp_add", {1, 2});
    EXPECT_TRUE(sys->debug().engine().journal().empty());
}

TEST_F(ProtocolTest, EnableClearsPreviousJournal)
{
    boot();
    sys->call(*proc, "nxp_add", {1, 2});
    EXPECT_FALSE(sys->debug().engine().journal().empty());
    sys->debug().engine().enableJournal();
    EXPECT_TRUE(sys->debug().engine().journal().empty());
}

TEST(ProtocolStepNames, AllDistinct)
{
    for (int i = 0; i <= static_cast<int>(ProtocolStep::hostReturn); ++i) {
        const char *name =
            protocolStepName(static_cast<ProtocolStep>(i));
        EXPECT_STRNE(name, "?");
    }
}

} // namespace
} // namespace flick
