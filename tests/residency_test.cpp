/**
 * @file
 * Residency-aware placement (DESIGN.md §15).
 *
 * The backbone invariants:
 *  - ResidencyAwarePlacement steers a call to the DRAM its argument
 *    pages' page-table entries name, with no option beyond the policy
 *    itself: a device-resident page goes to that device, a host-resident
 *    page to the function's host twin. A non-canonical argument is no
 *    pointer and casts no vote.
 *  - A placement hint is the submitter's decision: a call that waits in
 *    the QoS queue runs where its hint says, as it would have had it
 *    been admitted at once.
 *
 * NOTE on the address map (DESIGN.md §15): device 0's BAR window is
 * shadowed by every other device's local-DRAM claim, so data in device
 * 0's DRAM must only be dereferenced by the host or device 0 itself.
 * Every test here respects that: single-device tests use device 0,
 * and the multi-device tests put their data on devices 1 and 2.
 */

#include <gtest/gtest.h>

#include "flick/system.hh"
#include "workloads/placement_mix.hh"
#include "workloads/sharded.hh"

using namespace flick;
using workloads::shardSumRef;
using workloads::shardWord;

namespace
{

/** Build a system with the sharded kernels loaded. */
std::pair<FlickSystem *, Process *>
makeSharded(SystemConfig config, unsigned devices = 1)
{
    config.withDevices(devices);
    auto *sys = new FlickSystem(std::move(config));
    Program prog;
    workloads::addShardedKernels(prog, devices);
    Process &proc = sys->load(prog);
    return {sys, &proc};
}

/** Fill @p words 64-bit words at @p va with shard @p s's pattern. */
void
fillShard(FlickSystem &sys, Process &proc, VAddr va, unsigned s,
          std::uint64_t words)
{
    for (std::uint64_t i = 0; i < words; ++i)
        sys.writeVa(proc, va + 8 * i, shardWord(s, i));
}

TEST(Residency, ColdPagesSteerResidencyAwarePlacement)
{
    auto [sys, proc] = makeSharded(
        SystemConfig{}.withPlacement(PlacementKind::residencyAware), 2);

    // The shard lives in device 1's DRAM and nothing has touched it
    // yet: its page-table entry alone steers the call there.
    VAddr buf = sys->nxpMalloc(64 * 8, 4096, 1);
    fillShard(*sys, *proc, buf, 7, 64);

    EXPECT_EQ(sys->call(*proc, "shard_sum", {buf, 64}),
              shardSumRef(7, 0, 64));

    const StatGroup &es = sys->debug().engine().stats();
    EXPECT_EQ(es.get("host_to_nxp_calls_dev1"), 1u);
    EXPECT_EQ(es.get("host_to_nxp_calls_dev0"), 0u);
    delete sys;
}

TEST(Residency, HostResidentPagesSteerToTheHostTwin)
{
    auto [sys, proc] = makeSharded(
        SystemConfig{}.withPlacement(PlacementKind::residencyAware));

    // The shard lives in host DRAM and shard_sum has a host twin: the
    // call runs there instead of crossing, so every word stays local.
    VAddr buf = sys->hostMalloc(*proc, 64 * 8, 4096);
    fillShard(*sys, *proc, buf, 5, 64);

    EXPECT_EQ(sys->call(*proc, "shard_sum", {buf, 64}),
              shardSumRef(5, 0, 64));

    const StatGroup &es = sys->debug().engine().stats();
    EXPECT_EQ(es.get("placement.host_steered"), 1u);
    EXPECT_EQ(es.get("host_to_nxp_calls"), 0u);
    delete sys;
}

TEST(Residency, NonCanonicalArgumentCastsNoVote)
{
    // Bits 48..63 of a non-canonical value do not sign-extend bit 47, so
    // it is not a pointer: the page walk must reject it instead of
    // voting for the device-1 page its low 48 bits alias. With no vote
    // cast, placement falls back to queue depth and the idle home wins.
    FlickSystem sys(SystemConfig{}
                        .withDevices(2)
                        .withPlacement(PlacementKind::residencyAware));
    Program prog;
    workloads::addPlacementMix(prog, 2);
    Process &proc = sys.load(prog);
    VAddr buf = sys.nxpMalloc(4096, 4096, 1);
    std::uint64_t alias = buf | 1ull << 62;

    EXPECT_EQ(sys.call(proc, "mix_tiny", {alias, 0}), alias);

    const StatGroup &es = sys.debug().engine().stats();
    EXPECT_EQ(es.get("host_to_nxp_calls_dev0"), 1u);
    EXPECT_EQ(es.get("host_to_nxp_calls_dev1"), 0u);
}

TEST(Residency, QueuedQosCallKeepsItsPlacementHint)
{
    // A 64-word sum over a page in device 2's DRAM, hinted to device 1.
    // With `queued`, a 2048-word sum over device 1's DRAM holds the
    // tenant's one in-flight slot first, so the hinted call waits in the
    // QoS queue; it must still run where its hint says, exactly like the
    // same call admitted at once.
    auto run = [](bool queued) {
        QosConfig qos;
        qos.enabled = true;
        qos.tenantInFlight = 1;
        auto [sys, proc] = makeSharded(SystemConfig{}.withQos(qos), 3);

        VAddr big = sys->nxpMalloc(2048 * 8, 4096, 1);
        fillShard(*sys, *proc, big, 8, 2048);
        VAddr buf = sys->nxpMalloc(64 * 8, 4096, 2);
        fillShard(*sys, *proc, buf, 9, 64);

        Task &t1 = sys->spawnThread(*proc);
        Task &t2 = sys->spawnThread(*proc);
        CallFuture a;
        if (queued)
            a = sys->submit(*proc, CallSpec("shard_sum")
                                       .withArgs({big, 2048})
                                       .onThread(t1));
        CallFuture b = sys->submit(*proc, CallSpec("shard_sum")
                                              .withArgs({buf, 64})
                                              .withPlacementHint(1)
                                              .onThread(t2));
        const StatGroup &es = sys->debug().engine().stats();
        if (queued) {
            sys->advanceTime(us(10));
            EXPECT_FALSE(b.done());
            EXPECT_EQ(es.get("qos.queued"), 1u);
            EXPECT_EQ(a.wait(), shardSumRef(8, 0, 2048));
        }
        EXPECT_EQ(b.wait(), shardSumRef(9, 0, 64));
        EXPECT_EQ(b.status(), CallStatus::ok);
        // Static placement sends the unhinted call to shard_sum's home,
        // device 0; the hinted one must land on device 1.
        EXPECT_EQ(es.get("host_to_nxp_calls_dev0"), queued ? 1u : 0u);
        EXPECT_EQ(es.get("host_to_nxp_calls_dev1"), 1u);
        EXPECT_EQ(es.get("host_to_nxp_calls_dev2"), 0u);
        delete sys;
    };
    run(false);
    run(true);
}

} // namespace
