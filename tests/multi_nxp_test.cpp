/**
 * @file
 * Multi-NxP tests: two near-x processors in one machine, distinguished
 * by PTE ISA tags (Section IV-C3). Covers host->device-1 migration,
 * device-to-device calls forwarded through the host kernel, per-device
 * stacks and heaps, and the peer-to-peer memory path.
 */

#include <gtest/gtest.h>

#include "flick/system.hh"
#include "workloads/microbench.hh"

namespace flick
{
namespace
{

class MultiNxpTest : public ::testing::Test
{
  protected:
    void
    boot()
    {
        config.withDevices(2);
        sys = std::make_unique<FlickSystem>(config);
        Program prog;
        workloads::addMicrobench(prog); // NxP parts target device 0
        // Device 1 functions.
        prog.addNxpAsm(R"(
dev1_scale:
    slli a0, a0, 2
    ret
dev1_add:
    add a0, a0, a1
    ret
dev1_reads:
    ld a0, 0(a0)
    ret
)",
                       1);
        // A device-0 function that calls into device 1 (device-to-device
        // migration through the host kernel).
        prog.addNxpAsm(R"(
dev0_chain:
    addi sp, sp, -16
    sd ra, 8(sp)
    call dev1_scale
    addi a0, a0, 1
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
nxp_reads_ptr:
    ld a0, 0(a0)
    ret
)");
        proc = &sys->load(prog);
    }

    SystemConfig config;
    std::unique_ptr<FlickSystem> sys;
    Process *proc = nullptr;
};

TEST_F(MultiNxpTest, HostCallsEitherDevice)
{
    boot();
    EXPECT_EQ(sys->call(*proc, "nxp_add", {1, 2}), 3u);     // device 0
    EXPECT_EQ(sys->call(*proc, "dev1_add", {3, 4}), 7u);    // device 1
    EXPECT_EQ(sys->call(*proc, "dev1_scale", {5}), 20u);
    EXPECT_EQ(sys->debug().engine().stats().get("host_to_nxp_calls"), 3u);
}

TEST_F(MultiNxpTest, IsaTagsDistinguishDevices)
{
    boot();
    auto tag_of = [&](const char *symbol) {
        auto tr = sys->debug().pageTables().translate(
            proc->image.cr3, proc->image.symbol(symbol));
        EXPECT_TRUE(tr.has_value());
        return pte::isaTag(tr->entry);
    };
    EXPECT_EQ(tag_of("nxp_add"), 1u);
    EXPECT_EQ(tag_of("dev1_add"), 2u);
    EXPECT_EQ(tag_of("host_add"), 0u);
}

TEST_F(MultiNxpTest, PerDeviceStacks)
{
    boot();
    sys->call(*proc, "nxp_add", {1, 1});
    EXPECT_NE(proc->task->nxpStackTop[0], 0u);
    EXPECT_EQ(proc->task->nxpStackTop[1], 0u);
    sys->call(*proc, "dev1_add", {1, 1});
    EXPECT_NE(proc->task->nxpStackTop[1], 0u);
    // Device-1 stacks live in the second window.
    EXPECT_GE(proc->task->nxpStackTop[1], layout::nxpWindowBaseFor(1));
    EXPECT_EQ(sys->debug().engine().stats().get("nxp_stacks_allocated"), 2u);
}

TEST_F(MultiNxpTest, DeviceToDeviceCallForwardsThroughHost)
{
    boot();
    // dev0_chain(v) = dev1_scale(v) + 1 = 4v + 1.
    EXPECT_EQ(sys->call(*proc, "dev0_chain", {10}), 41u);
    EXPECT_EQ(sys->debug().engine().stats().get("nxp_to_nxp_calls"), 1u);
    EXPECT_EQ(sys->debug().engine().stats().get("nxp_to_nxp_roundtrips"), 1u);
    // The forward bounced through the kernel: two suspensions for the
    // outer call + forward + return-forward.
    EXPECT_GE(sys->debug().kernel().stats().get("suspensions"), 3u);
}

TEST_F(MultiNxpTest, ForwardAppearsInTrace)
{
    config.withTrace();
    boot();
    sys->call(*proc, "dev0_chain", {1});
    // One forward, toward device 1, carrying the forwarded target; it
    // opens the same descriptor-build phase a host-originated call does.
    int forwards = 0;
    for (const TraceEvent &e : sys->debug().trace().events()) {
        if (e.point != TracePoint::hostForward)
            continue;
        ++forwards;
        EXPECT_EQ(e.device, 1u);
        EXPECT_EQ(e.arg, proc->image.symbol("dev1_scale"));
    }
    EXPECT_EQ(forwards, 1);
    EXPECT_EQ(tracePointPhase(TracePoint::hostForward),
              TracePhase::hostDescBuild);
}

TEST_F(MultiNxpTest, SecondDeviceMemoryIsSeparate)
{
    boot();
    VAddr a0 = sys->nxpMalloc(64, 16, 0);
    VAddr a1 = sys->nxpMalloc(64, 16, 1);
    EXPECT_GE(a0, layout::nxpWindowBase);
    EXPECT_LT(a0, layout::nxpWindowBaseFor(1));
    EXPECT_GE(a1, layout::nxpWindowBaseFor(1));

    sys->writeVa(*proc, a0, 0x11);
    sys->writeVa(*proc, a1, 0x22);
    EXPECT_EQ(sys->readVa(*proc, a0), 0x11u);
    EXPECT_EQ(sys->readVa(*proc, a1), 0x22u);

    // The backing stores really are different devices' DRAM.
    auto t0 = sys->debug().pageTables().translate(proc->image.cr3, a0);
    auto t1 = sys->debug().pageTables().translate(proc->image.cr3, a1);
    ASSERT_TRUE(t0 && t1);
    EXPECT_TRUE(sys->config().platform.inBar0(t0->pa));
    EXPECT_TRUE(sys->config().platform.inBar2(t1->pa));
}

TEST_F(MultiNxpTest, DeviceReadsItsLocalMemoryFast)
{
    boot();
    VAddr a1 = sys->nxpMalloc(64, 16, 1);
    sys->writeVa(*proc, a1, 1234);
    EXPECT_EQ(sys->call(*proc, "dev1_reads", {a1}), 1234u);
    // The access went through device 1's local DRAM route.
    EXPECT_GE(sys->debug().mem().stats().get("nxp2_to_nxp2_dram_reads"), 1u);
}

TEST_F(MultiNxpTest, PeerToPeerAccessRoutedOverPcie)
{
    boot();
    // Device 0 reads memory that belongs to device 1: a peer-to-peer
    // PCIe access (two link crossings), not a local read.
    VAddr a1 = sys->nxpMalloc(64, 16, 1);
    sys->writeVa(*proc, a1, 777);
    EXPECT_EQ(sys->call(*proc, "nxp_reads_ptr", {a1}), 777u);
    EXPECT_GE(
        sys->debug().mem().stats().get("nxp_peer_to_nxp2_dram_reads"), 1u);
}

TEST_F(MultiNxpTest, DeviceToDeviceCostsTwoRoundTrips)
{
    boot();
    sys->call(*proc, "nxp_add", {0, 0});
    sys->call(*proc, "dev1_add", {0, 0});

    Tick t0 = sys->now();
    sys->call(*proc, "nxp_add", {1, 1});
    Tick direct = sys->now() - t0;

    t0 = sys->now();
    sys->call(*proc, "dev0_chain", {1});
    Tick chained = sys->now() - t0;
    // The chained call pays the host->dev0 trip plus a forwarded
    // dev0->dev1 round trip: comfortably more than 2x a direct trip.
    EXPECT_GT(chained, 2 * direct);
}

TEST_F(MultiNxpTest, SingleDeviceConfigRejectsDevice1Code)
{
    // Without the second device, code tagged for it must die cleanly.
    SystemConfig cfg; // one device
    FlickSystem solo(cfg);
    Program prog;
    workloads::addMicrobench(prog);
    prog.addNxpAsm("lonely: ret\n", 1);
    Process &p = solo.load(prog);
    EXPECT_DEATH(solo.call(p, "lonely"), "not code for any NxP");
}

} // namespace
} // namespace flick
