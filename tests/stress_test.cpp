/**
 * @file
 * Stress tests: deep cross-ISA recursion, long mixed call sequences,
 * stack consumption across migrations, big argument values, and
 * sustained event-queue load.
 */

#include <gtest/gtest.h>

#include "flick/system.hh"
#include "sim/random.hh"
#include "workloads/microbench.hh"

namespace flick
{
namespace
{

class StressTest : public ::testing::Test
{
  protected:
    void
    boot(std::uint64_t nxp_stack_bytes = 512 * 1024)
    {
        config.nxpStackBytes = nxp_stack_bytes;
        sys = std::make_unique<FlickSystem>(config);
        Program prog;
        workloads::addMicrobench(prog);
        // Cross-ISA mutual countdown: host_down(n) -> nxp_down(n-1) ->
        // host_down(n-2) -> ... -> 0; returns the recursion depth.
        prog.addHostAsm(R"(
host_down:
    cmp rdi, 0
    jne hd_rec
    mov rax, 0
    ret
hd_rec:
    sub rdi, 1
    call nxp_down
    add rax, 1
    ret
)");
        prog.addNxpAsm(R"(
nxp_down:
    beqz a0, nd_zero
    addi sp, sp, -16
    sd ra, 8(sp)
    addi a0, a0, -1
    call host_down
    addi a0, a0, 1
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
nd_zero:
    li a0, 0
    ret
)");
        proc = &sys->load(prog);
    }

    SystemConfig config;
    std::unique_ptr<FlickSystem> sys;
    Process *proc = nullptr;
};

TEST_F(StressTest, DeepCrossIsaRecursion)
{
    boot();
    // 200 alternating frames = 100 migrations each way, all nested.
    EXPECT_EQ(sys->call(*proc, "host_down", {200}), 200u);
    EXPECT_EQ(sys->debug().engine().stats().get("host_to_nxp_calls"), 100u);
    EXPECT_EQ(sys->debug().engine().stats().get("nxp_to_host_calls"), 100u);
    // All suspensions resumed; the task ends up runnable on the host.
    EXPECT_EQ(proc->task->state, TaskState::running);
    EXPECT_EQ(sys->debug().kernel().stats().get("suspensions"),
              sys->debug().kernel().stats().get("resumes"));
}

TEST_F(StressTest, RecursionDepthSweep)
{
    boot();
    for (std::uint64_t depth : {1, 2, 3, 10, 51, 128}) {
        ASSERT_EQ(sys->call(*proc, "host_down", {depth}), depth)
            << "depth " << depth;
    }
}

TEST_F(StressTest, LongRandomMixedSequence)
{
    boot();
    Rng rng(31337);
    std::uint64_t migrations = 0;
    for (int i = 0; i < 300; ++i) {
        std::uint64_t a = rng.next() >> 1;
        std::uint64_t b = rng.next() >> 1;
        switch (rng.below(4)) {
          case 0:
            ASSERT_EQ(sys->call(*proc, "host_add", {a, b}), a + b);
            break;
          case 1:
            ASSERT_EQ(sys->call(*proc, "nxp_add", {a, b}), a + b);
            ++migrations;
            break;
          case 2:
            ASSERT_EQ(sys->call(*proc, "host_mul_via_nxp", {a, b}),
                      (a + b) * 2);
            ++migrations;
            break;
          default: {
            std::uint64_t n = rng.below(4);
            ASSERT_EQ(sys->call(*proc, "nxp_calls_host", {n}), 0u);
            ++migrations;
            break;
          }
        }
    }
    EXPECT_EQ(sys->debug().engine().stats().get("host_to_nxp_calls"),
              migrations);
}

TEST_F(StressTest, ThousandsOfMigrations)
{
    boot();
    sys->call(*proc, "nxp_noop");
    Tick t0 = sys->now();
    for (int i = 0; i < 3000; ++i)
        sys->call(*proc, "nxp_noop");
    double avg = ticksToUs(sys->now() - t0) / 3000;
    // Stable round-trip cost over thousands of migrations: no drift
    // from leaked state, descriptor slots, or TLB pollution.
    EXPECT_GT(avg, 15.0);
    EXPECT_LT(avg, 21.0);
    EXPECT_EQ(sys->debug().engine().stats().get("host_nxp_host_roundtrips"),
              3001u);
}

TEST_F(StressTest, NxpStackSurvivesNestingAtDepth)
{
    // Each nesting level consumes NxP stack; with a 512 KB stack and
    // 16-byte frames, depth 400 uses ~3 KB on the NxP side plus the
    // engine's saved contexts. Verify memory comes back intact.
    boot();
    VAddr probe = sys->nxpMalloc(64);
    sys->writeVa(*proc, probe, 0x5a5a5a5a);
    EXPECT_EQ(sys->call(*proc, "host_down", {400}), 400u);
    EXPECT_EQ(sys->readVa(*proc, probe), 0x5a5a5a5aull);
}

TEST_F(StressTest, ExtraLatencySurvivesLongRuns)
{
    boot();
    sys->call(*proc, "nxp_noop");
    sys->setExtraRoundTripLatency(us(100));
    Tick t0 = sys->now();
    for (int i = 0; i < 100; ++i)
        sys->call(*proc, "nxp_noop");
    double avg = ticksToUs(sys->now() - t0) / 100;
    EXPECT_GT(avg, 115.0);
    EXPECT_LT(avg, 125.0);
}

} // namespace
} // namespace flick
