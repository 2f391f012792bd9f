/**
 * @file
 * Integration tests for the Flick migration engine: full cross-ISA call
 * round trips, nesting, recursion, stack reuse, descriptor traffic, the
 * Section IV-D race regression, and the native-function bridge.
 */

#include <gtest/gtest.h>

#include "flick/system.hh"
#include "workloads/microbench.hh"

namespace flick
{
namespace
{

class RuntimeTest : public ::testing::Test
{
  protected:
    void
    boot()
    {
        sys = std::make_unique<FlickSystem>(config);
        Program prog;
        workloads::addMicrobench(prog);
        extendProgram(prog);
        proc = &sys->load(prog);
    }

    virtual void extendProgram(Program &) {}

    SystemConfig config;
    std::unique_ptr<FlickSystem> sys;
    Process *proc = nullptr;
};

TEST_F(RuntimeTest, HostOnlyCallDoesNotMigrate)
{
    boot();
    EXPECT_EQ(sys->call(*proc, "host_add", {20, 22}), 42u);
    EXPECT_EQ(sys->debug().engine().stats().get("host_to_nxp_calls"), 0u);
    EXPECT_EQ(sys->debug().kernel().stats().get("nx_faults"), 0u);
}

TEST_F(RuntimeTest, CrossIsaCallMigratesAndReturns)
{
    boot();
    EXPECT_EQ(sys->call(*proc, "nxp_add", {40, 2}), 42u);
    EXPECT_EQ(sys->debug().engine().stats().get("host_to_nxp_calls"), 1u);
    EXPECT_EQ(
        sys->debug().engine().stats().get("host_nxp_host_roundtrips"), 1u);
    EXPECT_EQ(sys->debug().kernel().stats().get("nx_faults"), 1u);
    EXPECT_EQ(proc->task->migrations, 1u);
}

TEST_F(RuntimeTest, ArgumentCounts)
{
    boot();
    EXPECT_EQ(sys->call(*proc, "nxp_noop"), 0u);
    EXPECT_EQ(sys->call(*proc, "nxp_add", {7, 8}), 15u);
    EXPECT_EQ(sys->call(*proc, "nxp_sum6", {1, 2, 3, 4, 5, 6}), 21u);
}

TEST_F(RuntimeTest, SixtyFourBitValuesSurviveTheBridge)
{
    boot();
    std::uint64_t a = 0x8000000000000001ull;
    std::uint64_t b = 0x7fffffffffffffffull;
    EXPECT_EQ(sys->call(*proc, "nxp_add", {a, b}), a + b);
}

TEST_F(RuntimeTest, FirstMigrationAllocatesStackOnce)
{
    boot();
    EXPECT_EQ(proc->task->nxpStackTop[0], 0u);
    sys->call(*proc, "nxp_noop");
    VAddr stack = proc->task->nxpStackTop[0];
    EXPECT_NE(stack, 0u);
    EXPECT_GE(stack, layout::nxpWindowBase);
    sys->call(*proc, "nxp_noop");
    sys->call(*proc, "nxp_noop");
    EXPECT_EQ(proc->task->nxpStackTop[0], stack); // reused
    EXPECT_EQ(sys->debug().engine().stats().get("nxp_stacks_allocated"), 1u);
}

TEST_F(RuntimeTest, NestedHostCallsNxp)
{
    boot();
    EXPECT_EQ(sys->call(*proc, "host_mul_via_nxp", {10, 11}), 42u);
    EXPECT_EQ(sys->debug().engine().stats().get("host_to_nxp_calls"), 1u);
}

TEST_F(RuntimeTest, NxpCallsHostAndBack)
{
    boot();
    // 5 NxP->host round trips inside one host->NxP call.
    EXPECT_EQ(sys->call(*proc, "nxp_calls_host", {5}), 0u);
    EXPECT_EQ(sys->debug().engine().stats().get("host_to_nxp_calls"), 1u);
    EXPECT_EQ(sys->debug().engine().stats().get("nxp_to_host_calls"), 5u);
    EXPECT_EQ(
        sys->debug().engine().stats().get("nxp_host_nxp_roundtrips"), 5u);
}

TEST_F(RuntimeTest, MutualCrossIsaRecursion)
{
    boot();
    EXPECT_EQ(sys->call(*proc, "host_fact_nxp", {1}), 1u);
    EXPECT_EQ(sys->call(*proc, "host_fact_nxp", {5}), 120u);
    EXPECT_EQ(sys->call(*proc, "host_fact_nxp", {12}), 479001600u);
}

TEST_F(RuntimeTest, RepeatedCallsAreStable)
{
    boot();
    for (int i = 0; i < 50; ++i)
        ASSERT_EQ(sys->call(*proc, "nxp_add",
                            {static_cast<std::uint64_t>(i), 1}),
                  static_cast<std::uint64_t>(i) + 1);
    EXPECT_EQ(sys->debug().engine().stats().get("host_to_nxp_calls"), 50u);
}

TEST_F(RuntimeTest, DescriptorBytesTravelThroughMemory)
{
    boot();
    sys->call(*proc, "nxp_add", {0x1234, 0x5678});
    // The call descriptor must still be visible in the NxP inbox slot.
    std::array<std::uint8_t, MigrationDescriptor::wireBytes> w{};
    Addr off = sys->debug().nxpPlatform().inboxLocalPa() -
               sys->config().platform.nxpDramLocalBase;
    sys->debug().mem().nxpDram().read(off, w.data(), w.size());
    MigrationDescriptor d = MigrationDescriptor::fromWire(w);
    EXPECT_EQ(d.kind, DescriptorKind::hostToNxpCall);
    EXPECT_EQ(d.target, proc->image.symbol("nxp_add"));
    EXPECT_EQ(d.args[0], 0x1234u);
    EXPECT_EQ(d.args[1], 0x5678u);
    EXPECT_EQ(d.cr3, proc->image.cr3);
    EXPECT_EQ(d.pid, static_cast<std::uint32_t>(proc->task->pid));
}

TEST_F(RuntimeTest, RaceRegressionDescriptorAfterSuspend)
{
    // Section IV-D: the descriptor must reach the NxP only after the
    // host thread is suspended, or the NxP could execute and return
    // before the host finished suspending. Watch the inbox from event
    // context during a real migration: whenever a descriptor lands, the
    // task must already be off the host core.
    boot();
    Task *task = proc->task;
    NxpPlatform &platform = sys->debug().nxpPlatform();
    int observed = 0;
    bool ok = true;
    std::function<void()> probe = [&] {
        if (platform.pendingInbox() > 0) {
            ++observed;
            ok = ok && task->state == TaskState::onNxp;
        }
        if (sys->now() < msec(10))
            sys->debug().events().scheduleIn(ns(100), "probe", probe);
    };
    sys->debug().events().schedule(0, "probe", probe);
    sys->call(*proc, "nxp_noop");
    EXPECT_GT(observed, 0);
    EXPECT_TRUE(ok) << "descriptor visible before the host suspended";
    // And the kernel fired exactly one DMA trigger per suspension.
    EXPECT_EQ(sys->debug().kernel().stats().get("dma_triggers"),
              sys->debug().kernel().stats().get("suspensions"));
}

TEST_F(RuntimeTest, ExtraLatencyKnobSlowsRoundTrips)
{
    boot();
    sys->call(*proc, "nxp_noop"); // warm up (stack allocation)
    Tick t0 = sys->now();
    sys->call(*proc, "nxp_noop");
    Tick base = sys->now() - t0;

    sys->setExtraRoundTripLatency(us(500));
    t0 = sys->now();
    sys->call(*proc, "nxp_noop");
    Tick slowed = sys->now() - t0;
    EXPECT_GE(slowed, base + us(500));
    EXPECT_LT(slowed, base + us(510));
}

TEST_F(RuntimeTest, SimulatedTimeAdvancesMonotonically)
{
    boot();
    Tick t0 = sys->now();
    sys->call(*proc, "nxp_noop");
    Tick t1 = sys->now();
    EXPECT_GT(t1, t0);
    sys->advanceTime(us(100));
    EXPECT_EQ(sys->now(), t1 + us(100));
}

TEST_F(RuntimeTest, TaskStateRestoredAfterCall)
{
    boot();
    sys->call(*proc, "nxp_noop");
    EXPECT_EQ(proc->task->state, TaskState::running);
    EXPECT_EQ(sys->debug().kernel().stats().get("suspensions"),
              sys->debug().kernel().stats().get("resumes"));
}

/** Tests with native-bridge functions in the program. */
class NativeBridgeTest : public RuntimeTest
{
  protected:
    void
    extendProgram(Program &prog) override
    {
        prog.addNativeHostFn(
            "native_host_sum", 3,
            [this](NativeContext &, const std::vector<std::uint64_t> &a) {
                ++hostCalls;
                return a[0] + a[1] + a[2];
            },
            ns(100));
        prog.addNativeNxpFn(
            "native_nxp_xor", 2,
            [this](NativeContext &, const std::vector<std::uint64_t> &a) {
                ++nxpCalls;
                return a[0] ^ a[1];
            },
            ns(50));
        prog.addNativeHostFn(
            "native_memprobe", 1,
            [](NativeContext &ctx, const std::vector<std::uint64_t> &a) {
                ctx.writeVa(a[0], 0xfeedface, 8);
                return ctx.readVa(a[0], 8);
            });
        // NxP asm that calls the native host function (migrates).
        prog.addNxpAsm(R"(
nxp_calls_native:
    addi sp, sp, -16
    sd ra, 8(sp)
    call native_host_sum
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
)");
        // Host asm that calls the native NxP function (migrates).
        prog.addHostAsm(R"(
host_calls_native_nxp:
    call native_nxp_xor
    ret
)");
    }

    int hostCalls = 0;
    int nxpCalls = 0;
};

TEST_F(NativeBridgeTest, NativeHostFnFromHost)
{
    boot();
    EXPECT_EQ(sys->call(*proc, "native_host_sum", {1, 2, 3}), 6u);
    EXPECT_EQ(hostCalls, 1);
    EXPECT_EQ(sys->debug().engine().stats().get("host_to_nxp_calls"), 0u);
}

TEST_F(NativeBridgeTest, NativeHostFnFromNxpMigrates)
{
    boot();
    EXPECT_EQ(sys->call(*proc, "nxp_calls_native", {4, 5, 6}), 15u);
    EXPECT_EQ(hostCalls, 1);
    // One host->NxP call plus the nested NxP->host call.
    EXPECT_EQ(sys->debug().engine().stats().get("host_to_nxp_calls"), 1u);
    EXPECT_EQ(sys->debug().engine().stats().get("nxp_to_host_calls"), 1u);
}

TEST_F(NativeBridgeTest, NativeNxpFnFromHostMigrates)
{
    boot();
    EXPECT_EQ(sys->call(*proc, "host_calls_native_nxp", {0xff, 0x0f}),
              0xf0u);
    EXPECT_EQ(nxpCalls, 1);
    EXPECT_EQ(sys->debug().engine().stats().get("host_to_nxp_calls"), 1u);
}

TEST_F(NativeBridgeTest, NativeMemoryAccess)
{
    boot();
    VAddr buf = sys->hostMalloc(*proc, 64);
    EXPECT_EQ(sys->call(*proc, "native_memprobe", {buf}), 0xfeedfaceu);
    EXPECT_EQ(sys->readVa(*proc, buf), 0xfeedfaceu);
}

TEST_F(NativeBridgeTest, NativeCostIsCharged)
{
    boot();
    Tick t0 = sys->now();
    sys->call(*proc, "native_host_sum", {1, 1, 1});
    EXPECT_GE(sys->now() - t0, ns(100));
}

TEST_F(RuntimeTest, HeapAllocatorsUseDistinctRegions)
{
    boot();
    VAddr h = sys->hostMalloc(*proc, 1024);
    VAddr n = sys->nxpMalloc(1024);
    EXPECT_GE(h, proc->image.hostHeapBase);
    EXPECT_LT(h, proc->image.hostHeapBase + proc->image.hostHeapBytes);
    EXPECT_GE(n, layout::nxpWindowBase);
    // Host writes through BAR land in NxP DRAM (unified address space).
    sys->writeVa(*proc, n, 0xabcdef);
    auto tr = sys->debug().pageTables().translate(proc->image.cr3, n);
    ASSERT_TRUE(tr);
    EXPECT_TRUE(sys->config().platform.inBar0(tr->pa));
}

TEST_F(RuntimeTest, MultipleSequentialProcesses)
{
    boot();
    Program prog2;
    workloads::addMicrobench(prog2);
    Process &proc2 = sys->load(prog2);
    EXPECT_EQ(sys->call(*proc, "nxp_add", {1, 2}), 3u);
    EXPECT_EQ(sys->call(proc2, "nxp_add", {3, 4}), 7u);
    EXPECT_NE(proc->image.cr3, proc2.image.cr3);
    EXPECT_NE(proc->task->pid, proc2.task->pid);
    // Each task allocated its own NxP stack.
    EXPECT_NE(proc->task->nxpStackTop[0], proc2.task->nxpStackTop[0]);
}

} // namespace
} // namespace flick
