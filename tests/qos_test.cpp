/**
 * @file
 * Multi-tenant QoS, admission shedding and the open-loop load
 * generator (DESIGN.md §14).
 *
 * The backbone invariants:
 *  - QoS disabled (the default) is tick-for-tick identical to the seed
 *    system — same final tick, same stats dump, zero qos.* counters —
 *    even with weights configured or tracing on.
 *  - QoS enabled but unconstrained (budgets far above the offered
 *    concurrency) admits everything and leaves the event stream
 *    untouched: only the qos.* counters differ.
 *  - A shed call completes without touching the engine: no call frame,
 *    no ring slot, no event, no tick — asserted by diffing the event
 *    queue and the stats dump around the shedding submit.
 *  - The weighted-fair dequeue follows the min-virtual-time order, and
 *    cancel() lifts a queued call out of its tenant queue without it
 *    ever entering the engine.
 *  - Every front-door decision shows up in the trace as a qos* instant
 *    carrying its admission estimate or shed reason.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "flick/system.hh"
#include "sim/load_gen.hh"
#include "workloads/microbench.hh"
#include "workloads/placement_mix.hh"

using namespace flick;

namespace
{

std::pair<FlickSystem *, Process *>
makeMixSystem(SystemConfig config, unsigned devices = 2)
{
    config.withDevices(devices);
    auto *sys = new FlickSystem(std::move(config));
    Program prog;
    workloads::addPlacementMix(prog, devices);
    Process &proc = sys->load(prog);
    return {sys, &proc};
}

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

std::set<std::string>
statLines(FlickSystem &sys)
{
    std::set<std::string> lines;
    std::istringstream is(statsDump(sys));
    std::string line;
    while (std::getline(is, line))
        lines.insert(line);
    return lines;
}

/** The QoS front-door decision instants of a traced run, in order. */
std::vector<TraceEvent>
qosDecisions(FlickSystem &sys)
{
    std::vector<TraceEvent> out;
    for (const TraceEvent &e : sys.debug().trace().events())
        if (std::string(tracePointName(e.point)).rfind("qos", 0) == 0)
            out.push_back(e);
    return out;
}

/** Lines present in @p after but not in @p before (added or changed). */
std::vector<std::string>
diffLines(const std::set<std::string> &before,
          const std::set<std::string> &after)
{
    std::vector<std::string> out;
    for (const std::string &l : after)
        if (!before.count(l))
            out.push_back(l);
    for (const std::string &l : before)
        if (!after.count(l))
            out.push_back(l);
    return out;
}

} // namespace

// --- Tick identity with QoS off -----------------------------------------

TEST(QosOff, TickIdenticalToSeedAndCountersZero)
{
    Tick ref = 0;
    std::string ref_stats;
    {
        auto [sys, proc] = makeMixSystem(SystemConfig{});
        ref = runHotStorm(*sys, *proc, 4, 300);
        ref_stats = statsDump(*sys);
        delete sys;
    }
    EXPECT_EQ(ref_stats.find("qos."), std::string::npos)
        << "seed run already carries qos counters";
    {
        // Weights configured but QoS never enabled: dead config.
        auto [sys, proc] = makeMixSystem(
            SystemConfig{}.withTenantWeight(0, 3).withTenantWeight(1, 7));
        EXPECT_EQ(runHotStorm(*sys, *proc, 4, 300), ref);
        EXPECT_EQ(statsDump(*sys), ref_stats);
        delete sys;
    }
    {
        // Tracing on, QoS off: no front-door decision to record.
        auto [sys, proc] =
            makeMixSystem(SystemConfig{}.withQos(false).withTrace());
        EXPECT_EQ(runHotStorm(*sys, *proc, 4, 300), ref);
        EXPECT_FALSE(sys->debug().trace().events().empty());
        EXPECT_TRUE(qosDecisions(*sys).empty());
        delete sys;
    }
}

TEST(QosOn, UnconstrainedKeepsEventStream)
{
    // QoS enabled with budgets far above the storm's concurrency: every
    // call is admitted at the front door, so the event stream must be
    // the seed's exactly; only flick.qos.* counter lines may differ.
    Tick ref = 0;
    std::set<std::string> ref_lines;
    {
        auto [sys, proc] = makeMixSystem(SystemConfig{});
        ref = runHotStorm(*sys, *proc, 4, 300);
        ref_lines = statLines(*sys);
        delete sys;
    }
    QosConfig q;
    q.tenantInFlight = 64;
    q.tenantQueueCap = 64;
    auto [sys, proc] = makeMixSystem(SystemConfig{}.withQos(q));
    EXPECT_EQ(runHotStorm(*sys, *proc, 4, 300), ref);
    for (const std::string &l : diffLines(ref_lines, statLines(*sys)))
        EXPECT_NE(l.find("qos."), std::string::npos) << l;
    const StatGroup &st = sys->debug().engine().stats();
    EXPECT_EQ(st.get("qos.submitted"), 4u);
    EXPECT_EQ(st.get("qos.admitted"), 4u);
    EXPECT_EQ(st.get("qos.queued"), 0u);
    EXPECT_EQ(st.get("qos.shed"), 0u);
    delete sys;
}

// --- Shedding ------------------------------------------------------------

TEST(QosShed, ShedFutureLeavesEngineUntouched)
{
    QosConfig q;
    q.tenantInFlight = 1;
    q.tenantQueueCap = 0; // no queueing: strict budget
    auto [sysp, procp] = makeMixSystem(SystemConfig{}.withQos(q), 1);
    FlickSystem &sys = *sysp;
    Process &proc = *procp;
    Task &t2 = sys.spawnThread(proc);

    CallFuture f1 =
        sys.submit(proc, CallSpec("mix_hot").withArgs({1, 100}));
    ASSERT_FALSE(f1.done());

    Tick now0 = sys.now();
    std::size_t pending0 = sys.debug().events().pending();
    std::set<std::string> lines0 = statLines(sys);

    CallFuture f2 = sys.submit(
        proc, CallSpec("mix_hot").withArgs({2, 100}).onThread(t2));
    EXPECT_TRUE(f2.done());
    EXPECT_EQ(f2.status(), CallStatus::shedLoad);
    EXPECT_EQ(f2.shedReason(), ShedReason::tenantOverBudget);
    EXPECT_EQ(f2.value(), 0u);

    // The shedding submit burned no simulated time, scheduled no event
    // and touched nothing in the engine except the qos.* counters.
    EXPECT_EQ(sys.now(), now0);
    EXPECT_EQ(sys.debug().events().pending(), pending0);
    for (const std::string &l : diffLines(lines0, statLines(sys)))
        EXPECT_NE(l.find("qos."), std::string::npos) << l;

    // A done shed future is terminal: waitFor returns immediately,
    // cancel has nothing to cancel.
    EXPECT_TRUE(f2.waitFor(us(1)));
    EXPECT_FALSE(f2.cancel());
    EXPECT_EQ(f2.wait(), 0u);

    // The admitted call is unaffected.
    EXPECT_EQ(f1.wait(), workloads::mixHotRef(1, 100));
    const StatGroup &st = sys.debug().engine().stats();
    EXPECT_EQ(st.get("qos.shed"), 1u);
    EXPECT_EQ(st.get("qos.shed.tenant_over_budget"), 1u);
    EXPECT_EQ(st.get("qos.shed.tenant_over_budget_cr3#0"), 1u);
    delete sysp;
}

TEST(QosShed, DeadlineInfeasibleShedUpfront)
{
    auto [sysp, procp] = makeMixSystem(SystemConfig{}.withQos(), 1);
    FlickSystem &sys = *sysp;
    // A 1 ns deadline can never cover even one crossing: the estimate
    // (analytic floor, nothing learned yet) already exceeds it, so the
    // call is refused before it occupies anything.
    CallFuture f = sys.submit(*procp, CallSpec("mix_hot")
                                          .withArgs({1, 100})
                                          .withDeadline(ns(1)));
    EXPECT_TRUE(f.done());
    EXPECT_EQ(f.status(), CallStatus::shedLoad);
    EXPECT_EQ(f.shedReason(), ShedReason::deadlineInfeasible);
    const StatGroup &st = sys.debug().engine().stats();
    EXPECT_EQ(st.get("qos.shed.deadline_infeasible"), 1u);
    EXPECT_EQ(st.get("qos.shed.deadline_infeasible_cr3#0"), 1u);
    // A generous deadline passes the same test.
    CallFuture g = sys.submit(*procp, CallSpec("mix_hot")
                                          .withArgs({1, 100})
                                          .withDeadline(sec(1)));
    EXPECT_FALSE(g.done());
    EXPECT_EQ(g.wait(), workloads::mixHotRef(1, 100));
    delete sysp;
}

TEST(QosQueue, AdmitQueueShedOrderAndDrain)
{
    QosConfig q;
    q.tenantInFlight = 1;
    q.tenantQueueCap = 1;
    auto [sysp, procp] =
        makeMixSystem(SystemConfig{}.withQos(q).withTrace(), 1);
    FlickSystem &sys = *sysp;
    Process &proc = *procp;
    Task &t2 = sys.spawnThread(proc);
    Task &t3 = sys.spawnThread(proc);

    CallFuture f1 =
        sys.submit(proc, CallSpec("mix_hot").withArgs({1, 100}));
    CallFuture f2 = sys.submit(
        proc, CallSpec("mix_hot").withArgs({2, 100}).onThread(t2));
    CallFuture f3 = sys.submit(
        proc, CallSpec("mix_hot").withArgs({3, 100}).onThread(t3));

    ASSERT_FALSE(f1.done()); // admitted, in flight
    ASSERT_FALSE(f2.done()); // over budget: queued
    EXPECT_TRUE(f3.done());  // queue full: shed
    EXPECT_EQ(f3.status(), CallStatus::shedLoad);
    EXPECT_EQ(f3.shedReason(), ShedReason::queueFull);

    const StatGroup &st = sys.debug().engine().stats();
    EXPECT_EQ(st.get("qos.admitted"), 1u);
    EXPECT_EQ(st.get("qos.queued"), 1u);
    EXPECT_EQ(st.get("qos.shed.queue_full"), 1u);
    EXPECT_EQ(sys.debug().engine().qosQueued(0), 1u);

    // The first completion pumps the queue: f2 enters and completes.
    EXPECT_EQ(f1.wait(), workloads::mixHotRef(1, 100));
    EXPECT_EQ(f2.wait(), workloads::mixHotRef(2, 100));
    EXPECT_EQ(st.get("qos.dequeued"), 1u);
    EXPECT_EQ(st.get("qos.dequeued_cr3#0"), 1u);
    EXPECT_EQ(sys.debug().engine().qosQueued(0), 0u);

    // The trace saw the same four decisions, in order, each naming its
    // call; the shed instant carries its reason.
    std::vector<TraceEvent> d = qosDecisions(sys);
    ASSERT_EQ(d.size(), 4u);
    EXPECT_EQ(d[0].point, TracePoint::qosAdmit);
    EXPECT_EQ(d[0].pid, f1.pid());
    EXPECT_GT(d[0].arg, 0u); // the admission estimate
    EXPECT_EQ(d[1].point, TracePoint::qosQueue);
    EXPECT_EQ(d[1].pid, f2.pid());
    EXPECT_EQ(d[2].point, TracePoint::qosShed);
    EXPECT_EQ(d[2].pid, f3.pid());
    EXPECT_EQ(d[2].arg, static_cast<std::uint64_t>(ShedReason::queueFull));
    EXPECT_EQ(d[3].point, TracePoint::qosDequeue);
    EXPECT_EQ(d[3].pid, f2.pid());
    EXPECT_GT(d[3].tick, d[2].tick);
    delete sysp;
}

TEST(QosQueue, CancelLiftsQueuedCallOut)
{
    QosConfig q;
    q.tenantInFlight = 1;
    q.tenantQueueCap = 4;
    auto [sysp, procp] =
        makeMixSystem(SystemConfig{}.withQos(q).withTrace(), 1);
    FlickSystem &sys = *sysp;
    Process &proc = *procp;
    Task &t2 = sys.spawnThread(proc);

    CallFuture f1 =
        sys.submit(proc, CallSpec("mix_hot").withArgs({1, 100}));
    CallFuture f2 = sys.submit(
        proc, CallSpec("mix_hot").withArgs({2, 100}).onThread(t2));
    ASSERT_FALSE(f2.done());

    // cancel() races the pump: the call is still queued, so it is
    // lifted straight out without ever entering the engine.
    EXPECT_TRUE(f2.cancel());
    EXPECT_TRUE(f2.done());
    EXPECT_EQ(f2.status(), CallStatus::cancelled);
    EXPECT_TRUE(f2.waitFor(us(1)));

    EXPECT_EQ(f1.wait(), workloads::mixHotRef(1, 100));
    const StatGroup &st = sys.debug().engine().stats();
    EXPECT_EQ(st.get("qos.cancelled_queued"), 1u);
    EXPECT_EQ(st.get("qos.dequeued"), 0u);
    EXPECT_EQ(sys.debug().engine().qosQueued(0), 0u);
    int cancels = 0;
    for (const TraceEvent &e : qosDecisions(sys)) {
        EXPECT_NE(e.point, TracePoint::qosDequeue);
        if (e.point == TracePoint::qosCancel) {
            ++cancels;
            EXPECT_EQ(e.pid, f2.pid());
        }
    }
    EXPECT_EQ(cancels, 1);

    // The thread is reusable after its queued call was cancelled.
    CallFuture f3 = sys.submit(
        proc, CallSpec("mix_hot").withArgs({3, 50}).onThread(t2));
    EXPECT_EQ(f3.wait(), workloads::mixHotRef(3, 50));
    delete sysp;
}

// --- Weighted fair dequeue -----------------------------------------------

TEST(QosWfq, PickFollowsWeightedVirtualTime)
{
    // Two always-eligible tenants with weights 3:1. Serving charges
    // virtual time, so the pick sequence must interleave 3-for-1 with
    // ties to the lower id: A B A A A B A.
    TenantScheduler sched;
    unsigned a = sched.tenantOf(0x1000);
    unsigned b = sched.tenantOf(0x2000);
    ASSERT_EQ(a, 0u);
    ASSERT_EQ(b, 1u);
    for (int i = 0; i < 10; ++i) {
        sched.onEnqueue(a);
        sched.onEnqueue(b);
    }
    QosConfig q;
    q.setWeight(a, 3).setWeight(b, 1);
    const unsigned expect[] = {0, 1, 0, 0, 0, 1, 0};
    for (unsigned i = 0; i < 7; ++i) {
        int pick = sched.pick([](unsigned) { return 1u; },
                              [&q](unsigned t) { return q.weight(t); });
        ASSERT_GE(pick, 0);
        EXPECT_EQ(static_cast<unsigned>(pick), expect[i]) << "pick " << i;
        sched.charge(static_cast<unsigned>(pick));
    }
    // A tenant at its budget is ineligible no matter its virtual time.
    sched.onAdmit(a);
    int pick = sched.pick([](unsigned) { return 1u; },
                          [&q](unsigned t) { return q.weight(t); });
    EXPECT_EQ(pick, 1);
}

TEST(QosWfq, TwoTenantDequeueIsDeterministicAndFair)
{
    // Two processes on one device, budget 1 each, both queues loaded.
    // The run must be deterministic (identical QoS decisions twice) and
    // both tenants' queued calls must all drain through the pump.
    auto runOnce = [](std::vector<TraceEvent> &trace_out) {
        QosConfig q;
        q.tenantInFlight = 1;
        q.tenantQueueCap = 8;
        FlickSystem sys(SystemConfig{}
                            .withDevices(1)
                            .withQos(q)
                            .withTenantWeight(0, 3)
                            .withTrace());
        Program prog;
        workloads::addPlacementMix(prog, 1);
        Process &pa = sys.load(prog);
        Process &pb = sys.load(prog);
        EXPECT_EQ(sys.tenantIndex(pa), 0u);
        EXPECT_EQ(sys.tenantIndex(pb), 1u);

        std::vector<CallFuture> futs;
        std::vector<std::uint64_t> expect;
        for (unsigned i = 0; i < 4; ++i) {
            Task &ta = i ? sys.spawnThread(pa) : *pa.task;
            futs.push_back(sys.submit(pa, CallSpec("mix_hot")
                                              .withArgs({i + 1, 80})
                                              .onThread(ta)));
            expect.push_back(workloads::mixHotRef(i + 1, 80));
            Task &tb = i ? sys.spawnThread(pb) : *pb.task;
            futs.push_back(sys.submit(pb, CallSpec("mix_hot")
                                              .withArgs({i + 10, 80})
                                              .onThread(tb)));
            expect.push_back(workloads::mixHotRef(i + 10, 80));
        }
        for (std::size_t i = 0; i < futs.size(); ++i) {
            EXPECT_EQ(futs[i].wait(), expect[i]) << "call " << i;
            EXPECT_EQ(futs[i].status(), CallStatus::ok);
        }
        const StatGroup &st = sys.debug().engine().stats();
        EXPECT_EQ(st.get("qos.submitted"), 8u);
        EXPECT_EQ(st.get("qos.admitted"), 2u); // one per tenant
        EXPECT_EQ(st.get("qos.queued"), 6u);
        EXPECT_EQ(st.get("qos.dequeued"), 6u);
        EXPECT_EQ(st.get("qos.shed"), 0u);
        // Per-tenant splits add up to the totals.
        EXPECT_EQ(st.get("qos.submitted_cr3#0") +
                      st.get("qos.submitted_cr3#1"),
                  st.get("qos.submitted"));
        EXPECT_EQ(st.get("qos.dequeued_cr3#0") +
                      st.get("qos.dequeued_cr3#1"),
                  st.get("qos.dequeued"));
        EXPECT_EQ(st.get("qos.dequeued_cr3#0"), 3u);
        EXPECT_EQ(st.get("qos.dequeued_cr3#1"), 3u);
        trace_out = qosDecisions(sys);
    };

    std::vector<TraceEvent> t1, t2;
    runOnce(t1);
    runOnce(t2);
    EXPECT_EQ(t1.size(), 14u); // 8 submits + 6 dequeues
    ASSERT_EQ(t1.size(), t2.size());
    for (std::size_t i = 0; i < t1.size(); ++i) {
        EXPECT_EQ(t1[i].tick, t2[i].tick) << i;
        EXPECT_EQ(t1[i].point, t2[i].point) << i;
        EXPECT_EQ(t1[i].pid, t2[i].pid) << i;
    }
}

// --- Capacity loss -------------------------------------------------------

TEST(QosCapacity, QuarantineShrinksTenantBudget)
{
    QosConfig q;
    q.tenantInFlight = 4;
    FlickSystem sys(SystemConfig{}.withDevices(2).withQos(q));
    Program prog;
    workloads::addMicrobench(prog);
    Process &proc = sys.load(prog);
    EXPECT_EQ(sys.debug().engine().effectiveTenantBudget(), 4u);

    sys.debug().engine().killDevice(0);
    CallFuture f = sys.submit(proc, CallSpec("nxp_add").withArgs({1, 2}));
    f.wait();
    ASSERT_EQ(f.status(), CallStatus::deviceLost);
    ASSERT_EQ(sys.debug().engine().deviceHealth(0),
              DeviceHealth::quarantined);

    // Half the fabric is gone: the per-tenant budget halves with it,
    // and the capacity_lost counter records which device took it away.
    EXPECT_EQ(sys.debug().engine().effectiveTenantBudget(), 2u);
    const StatGroup &st = sys.debug().engine().stats();
    EXPECT_EQ(st.get("qos.capacity_lost"), 1u);
    EXPECT_EQ(st.get("qos.capacity_lost_dev0"), 1u);
}

// --- Open-loop load generator --------------------------------------------

TEST(LoadGen, DeterministicAndSeedSensitive)
{
    LoadGenConfig cfg;
    cfg.ratePerSec = 1e6;
    cfg.horizon = msec(2);
    cfg.seed = 99;
    auto a = LoadGenerator(cfg).generate();
    auto b = LoadGenerator(cfg).generate();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].when, b[i].when) << i;
    cfg.seed = 100;
    auto c = LoadGenerator(cfg).generate();
    bool differs = c.size() != a.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].when != c[i].when;
    EXPECT_TRUE(differs);
}

TEST(LoadGen, PoissonMeanRateAndOrdering)
{
    LoadGenConfig cfg;
    cfg.ratePerSec = 1e6; // ~2000 arrivals over 2 ms
    cfg.horizon = msec(2);
    cfg.seed = 7;
    auto arrivals = LoadGenerator(cfg).generate();
    double expect = 2000.0;
    EXPECT_GT((double)arrivals.size(), expect * 0.85);
    EXPECT_LT((double)arrivals.size(), expect * 1.15);
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        EXPECT_LT(arrivals[i].when, cfg.horizon);
        if (i) {
            EXPECT_GE(arrivals[i].when, arrivals[i - 1].when);
        }
        EXPECT_EQ(arrivals[i].seq, i);
    }
}

TEST(LoadGen, BurstyExceedsBaseRate)
{
    LoadGenConfig cfg;
    cfg.ratePerSec = 1e6;
    cfg.horizon = msec(2);
    cfg.seed = 7;
    auto poisson = LoadGenerator(cfg).generate();
    cfg.kind = ArrivalKind::bursty;
    cfg.burstFactor = 4.0;
    auto bursty = LoadGenerator(cfg).generate();
    // Burst phases push the mean above the calm-state base rate.
    EXPECT_GT(bursty.size(), poisson.size());
}

TEST(LoadGen, DiurnalPeaksMidHorizon)
{
    LoadGenConfig cfg;
    cfg.kind = ArrivalKind::diurnal;
    cfg.ratePerSec = 1e6;
    cfg.horizon = msec(3);
    cfg.seed = 11;
    auto arrivals = LoadGenerator(cfg).generate();
    ASSERT_GT(arrivals.size(), 100u);
    std::size_t first = 0, mid = 0;
    for (const Arrival &a : arrivals) {
        if (a.when < cfg.horizon / 3)
            ++first;
        else if (a.when < 2 * (cfg.horizon / 3))
            ++mid;
    }
    EXPECT_GT(mid, 2 * first);
}

TEST(LoadGen, FanOutBuildsCallTrees)
{
    LoadGenConfig cfg;
    cfg.ratePerSec = 1e5;
    cfg.horizon = msec(1);
    cfg.seed = 3;
    cfg.fanout = 2;
    cfg.fanoutDepth = 2;
    cfg.fanoutGap = us(1);
    auto arrivals = LoadGenerator(cfg).generate();
    std::size_t roots = 0, depth1 = 0, depth2 = 0;
    for (const Arrival &a : arrivals) {
        EXPECT_LT(a.when, cfg.horizon);
        if (a.depth == 0)
            ++roots;
        else if (a.depth == 1)
            ++depth1;
        else
            ++depth2;
    }
    ASSERT_GT(roots, 20u);
    // Each root fans into 2 children and 4 grandchildren, minus the
    // trees clipped by the horizon.
    EXPECT_GT(depth1, roots * 2 * 9 / 10);
    EXPECT_LE(depth1, roots * 2);
    EXPECT_GT(depth2, roots * 4 * 8 / 10);
    EXPECT_LE(depth2, roots * 4);
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        EXPECT_GE(arrivals[i].when, arrivals[i - 1].when);
}

TEST(QosWfq, AgingBoundsTheWaitOfAHighVirtualTimeTenant)
{
    // Tenant A has already consumed 100 dequeues; tenant B arrives with
    // zero virtual time and a huge weight, so pure WFQ keeps picking B
    // for the next ~100000 dequeues -- A is starved. Aging bounds the
    // wait: A must be served within aging_dequeues + 1 picks.
    EXPECT_EQ(QosConfig{}.agingDequeues, 64u);

    auto build = [](TenantScheduler &sched) {
        unsigned a = sched.tenantOf(0x1000);
        unsigned b = sched.tenantOf(0x2000);
        EXPECT_EQ(a, 0u);
        EXPECT_EQ(b, 1u);
        for (int i = 0; i < 200; ++i) {
            sched.onEnqueue(a);
            sched.onEnqueue(b);
        }
        for (int i = 0; i < 100; ++i)
            sched.charge(a);
    };
    auto budget = [](unsigned) { return 1000u; };
    auto weight = [](unsigned t) { return t == 0 ? 1u : 1000u; };

    // Without aging A never gets a turn in any realistic horizon.
    {
        TenantScheduler sched;
        build(sched);
        for (int i = 0; i < 50; ++i) {
            int pick = sched.pick(budget, weight);
            ASSERT_EQ(pick, 1) << "pick " << i;
            EXPECT_FALSE(sched.lastPickAged());
            sched.charge(1);
            sched.onDequeue(1);
        }
    }

    // With aging_dequeues = 4 every fifth pick is the aged tenant A,
    // flagged by lastPickAged(); the other four stay WFQ picks of B.
    {
        TenantScheduler sched;
        build(sched);
        for (int i = 0; i < 20; ++i) {
            int pick = sched.pick(budget, weight, /*aging_dequeues=*/4);
            ASSERT_GE(pick, 0);
            if (i % 5 == 4) {
                EXPECT_EQ(pick, 0) << "pick " << i;
                EXPECT_TRUE(sched.lastPickAged()) << "pick " << i;
            } else {
                EXPECT_EQ(pick, 1) << "pick " << i;
                EXPECT_FALSE(sched.lastPickAged()) << "pick " << i;
            }
            sched.charge(static_cast<unsigned>(pick));
            sched.onDequeue(static_cast<unsigned>(pick));
        }
    }
}
