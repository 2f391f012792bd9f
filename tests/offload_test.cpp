/**
 * @file
 * Tests for the offload-engine baseline: functional equivalence with
 * Flick calls, overhead ordering, and the model's documented limits.
 */

#include <gtest/gtest.h>

#include "workloads/microbench.hh"
#include "workloads/offload.hh"

namespace flick
{
namespace
{

using namespace workloads;

class OffloadTest : public ::testing::Test
{
  protected:
    void
    boot()
    {
        sys = std::make_unique<FlickSystem>(config);
        Program prog;
        addMicrobench(prog);
        proc = &sys->load(prog);
        runner = std::make_unique<OffloadRunner>(*sys, *proc);
    }

    SystemConfig config;
    std::unique_ptr<FlickSystem> sys;
    Process *proc = nullptr;
    std::unique_ptr<OffloadRunner> runner;
};

TEST_F(OffloadTest, SameResultsAsFlick)
{
    boot();
    VAddr add = proc->image.symbol("nxp_add");
    VAddr sum6 = proc->image.symbol("nxp_sum6");
    EXPECT_EQ(runner->call(add, {40, 2}), 42u);
    EXPECT_EQ(runner->call(sum6, {1, 2, 3, 4, 5, 6}), 21u);
    EXPECT_EQ(sys->call(*proc, "nxp_add", {40, 2}), 42u);
    EXPECT_EQ(runner->jobs(), 2u);
}

TEST_F(OffloadTest, NoMigrationMachineryInvolved)
{
    boot();
    runner->call(proc->image.symbol("nxp_add"), {1, 2});
    EXPECT_EQ(sys->debug().engine().stats().get("host_to_nxp_calls"), 0u);
    EXPECT_EQ(sys->debug().kernel().stats().get("nx_faults"), 0u);
    EXPECT_EQ(sys->debug().kernel().stats().get("suspensions"), 0u);
}

TEST_F(OffloadTest, BusyPollCheaperThanInterruptCheaperThanFlick)
{
    boot();
    VAddr add = proc->image.symbol("nxp_add");
    runner->call(add, {1, 2}); // warm the NxP TLBs

    Tick t0 = sys->now();
    runner->call(add, {1, 2}, OffloadWait::busyPoll);
    Tick poll = sys->now() - t0;

    t0 = sys->now();
    runner->call(add, {1, 2}, OffloadWait::interrupt);
    Tick irq = sys->now() - t0;

    sys->call(*proc, "nxp_add", {1, 2}); // first-migration setup
    t0 = sys->now();
    sys->call(*proc, "nxp_add", {1, 2});
    Tick flick = sys->now() - t0;

    EXPECT_LT(poll, irq);
    EXPECT_LT(irq, flick);
}

TEST_F(OffloadTest, HostCallFromOffloadedJobIsFatal)
{
    boot();
    // The offload model cannot express NxP->host calls: that asymmetry
    // is precisely what Flick removes.
    EXPECT_DEATH(runner->call(proc->image.symbol("nxp_calls_host"), {1}),
                 "cannot call host code");
}

TEST_F(OffloadTest, ManySequentialJobs)
{
    boot();
    VAddr add = proc->image.symbol("nxp_add");
    for (std::uint64_t i = 0; i < 100; ++i)
        ASSERT_EQ(runner->call(add, {i, i}), 2 * i);
    EXPECT_EQ(runner->jobs(), 100u);
}

} // namespace
} // namespace flick
