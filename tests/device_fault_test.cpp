/**
 * @file
 * Device health, call deadlines, cancellation and host-native failover.
 *
 * Exercises the robustness layer end to end: the per-device
 * healthy/suspect/quarantined state machine driven by the heartbeat
 * watchdog, per-call deadlines, CallFuture::cancel(), CallFuture
 * lifecycle edge cases, the fail-fast path for calls stuck behind a
 * dead device's full descriptor ring, and the host-native fallback that
 * re-dispatches quarantine-failed calls to "__host" twin symbols with
 * bit-identical results.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "flick/system.hh"
#include "workloads/microbench.hh"

namespace flick
{
namespace
{

/** Build the standard microbench system, optionally with host twins. */
std::pair<FlickSystem *, Process *>
makeSystem(SystemConfig config, bool twins = false)
{
    auto *sys = new FlickSystem(std::move(config));
    Program prog;
    workloads::addMicrobench(prog);
    if (twins)
        workloads::addMicrobenchHostFallbacks(prog);
    Process &proc = sys->load(prog);
    return {sys, &proc};
}

// --- CallFuture lifecycle edges ------------------------------------------

TEST(CallFutureLifecycle, DefaultConstructedIsInvalid)
{
    CallFuture f;
    EXPECT_FALSE(f.valid());
    EXPECT_FALSE(f.done());
    EXPECT_EQ(f.status(), CallStatus::pending);
    EXPECT_FALSE(f.cancel());
}

TEST(CallFutureLifecycle, DestroyingUnwaitedFutureIsHarmless)
{
    FlickSystem sys;
    Program prog;
    workloads::addMicrobench(prog);
    Process &proc = sys.load(prog);
    {
        CallFuture f = sys.submit(proc, CallSpec("nxp_add").withArgs({1, 2}));
        (void)f;
        // f destructs here with the call still in flight.
    }
    // The call has no observer but keeps running; drive the machine and
    // check it completed, then that the task is reusable.
    sys.advanceTime(us(2000));
    EXPECT_EQ(sys.debug().engine().stats().get("calls_completed"), 1u);
    EXPECT_EQ(sys.call(proc, "nxp_add", {20, 22}), 42u);
}

TEST(CallFutureLifecycle, DoubleWaitReturnsTheSameValue)
{
    FlickSystem sys;
    Program prog;
    workloads::addMicrobench(prog);
    Process &proc = sys.load(prog);
    CallFuture f =
        sys.submit(proc, CallSpec("nxp_add").withArgs({7, 35}));
    EXPECT_EQ(f.wait(), 42u);
    EXPECT_EQ(f.status(), CallStatus::ok);
    EXPECT_EQ(f.wait(), 42u); // second wait returns immediately
    EXPECT_EQ(f.value(), 42u);
    // Copies observe the same completion.
    CallFuture g = f;
    EXPECT_TRUE(g.done());
    EXPECT_EQ(g.wait(), 42u);
}

TEST(CallFutureLifecycleDeath, WaitOnMovedFromFuturePanics)
{
    FlickSystem sys;
    Program prog;
    workloads::addMicrobench(prog);
    Process &proc = sys.load(prog);
    CallFuture f = sys.submit(proc, CallSpec("nxp_add").withArgs({1, 1}));
    CallFuture g = std::move(f);
    EXPECT_FALSE(f.valid());
    EXPECT_DEATH(f.wait(), "invalid CallFuture");
    EXPECT_EQ(g.wait(), 2u);
}

TEST(CallFutureLifecycle, WaitForGivesUpAndCanResume)
{
    FlickSystem sys;
    Program prog;
    workloads::addMicrobench(prog);
    Process &proc = sys.load(prog);
    // A long pure-NxP loop: not done within 1us of simulated time.
    CallFuture f =
        sys.submit(proc, CallSpec("nxp_noop_loop").withArgs({200000}));
    EXPECT_FALSE(f.waitFor(us(1)));
    EXPECT_FALSE(f.done());
    EXPECT_EQ(f.status(), CallStatus::pending);
    EXPECT_EQ(f.wait(), 200000u);
    EXPECT_EQ(f.status(), CallStatus::ok);
}

// --- Cancellation --------------------------------------------------------

TEST(Cancellation, CancelMidFlightCompletesWithCancelled)
{
    FlickSystem sys;
    Program prog;
    workloads::addMicrobench(prog);
    Process &proc = sys.load(prog);
    CallFuture f =
        sys.submit(proc, CallSpec("nxp_noop_loop").withArgs({200000}));
    ASSERT_FALSE(f.waitFor(us(1))); // genuinely in flight on the NxP
    EXPECT_TRUE(f.cancel());
    EXPECT_TRUE(f.done());
    EXPECT_EQ(f.status(), CallStatus::cancelled);
    EXPECT_EQ(f.wait(), 0u);
    EXPECT_FALSE(f.cancel()); // already completed
    const StatGroup &stats = sys.debug().engine().stats();
    EXPECT_EQ(stats.get("cancellations"), 1u);
    EXPECT_EQ(stats.get("calls_failed"), 1u);
    // The machine drains cleanly and the thread is reusable.
    sys.advanceTime(us(2000));
    EXPECT_EQ(sys.call(proc, "nxp_add", {1, 2}), 3u);
}

TEST(Cancellation, CancelBeforeFirstDispatch)
{
    FlickSystem sys;
    Program prog;
    workloads::addMicrobench(prog);
    Process &proc = sys.load(prog);
    CallFuture f = sys.submit(proc, CallSpec("nxp_add").withArgs({1, 2}));
    EXPECT_TRUE(f.cancel()); // still queued for the host core
    EXPECT_EQ(f.status(), CallStatus::cancelled);
    sys.advanceTime(us(100));
    EXPECT_EQ(sys.debug().engine().stats().get("calls_completed"), 0u);
    EXPECT_EQ(sys.call(proc, "host_add", {3, 4}), 7u);
}

// --- Deadlines -----------------------------------------------------------

TEST(Deadline, LongCallFailsWithDeadlineExceeded)
{
    FlickSystem sys(SystemConfig{}.withCallDeadline(us(20)));
    Program prog;
    workloads::addMicrobench(prog);
    Process &proc = sys.load(prog);
    // ~3ms of simulated NxP time: far past the 20us deadline.
    CallFuture f =
        sys.submit(proc, CallSpec("nxp_noop_loop").withArgs({200000}));
    f.wait();
    EXPECT_EQ(f.status(), CallStatus::deadlineExceeded);
    const StatGroup &stats = sys.debug().engine().stats();
    EXPECT_EQ(stats.get("deadline_exceeded"), 1u);
    // The stalled segment was abandoned, not the device: it stays
    // healthy and usable (its core frees once the segment retires).
    EXPECT_NE(sys.debug().engine().deviceHealth(0),
              DeviceHealth::quarantined);
    sys.advanceTime(us(5000));
    CallFuture g = sys.submit(proc, CallSpec("nxp_add").withArgs({1, 2}));
    EXPECT_EQ(g.wait(), 3u);
    EXPECT_EQ(g.status(), CallStatus::ok);
}

TEST(Deadline, FastCallsAreUntouched)
{
    FlickSystem sys(SystemConfig{}.withCallDeadline(us(10000)));
    Program prog;
    workloads::addMicrobench(prog);
    Process &proc = sys.load(prog);
    EXPECT_EQ(sys.call(proc, "nxp_add", {7, 35}), 42u);
    EXPECT_EQ(sys.call(proc, "host_calls_nxp", {4}), 0u);
    EXPECT_EQ(sys.debug().engine().stats().get("deadline_exceeded"), 0u);
}

// --- Device death, quarantine and fail-fast ------------------------------

TEST(DeviceFault, DeadDeviceIsQuarantinedAndCallFails)
{
    FlickSystem sys;
    Program prog;
    workloads::addMicrobench(prog);
    Process &proc = sys.load(prog);
    sys.debug().engine().killDevice(0);
    CallFuture f = sys.submit(proc, CallSpec("nxp_add").withArgs({1, 2}));
    f.wait();
    EXPECT_EQ(f.status(), CallStatus::deviceLost);
    EXPECT_EQ(f.value(), 0u);
    EXPECT_EQ(sys.debug().engine().deviceHealth(0),
              DeviceHealth::quarantined);
    const StatGroup &stats = sys.debug().engine().stats();
    EXPECT_EQ(stats.get("quarantines"), 1u);
    EXPECT_EQ(stats.get("quarantines_dev0"), 1u);
    EXPECT_GE(stats.get("health_strikes"), 2u); // default strike limit
    EXPECT_EQ(stats.get("device_lost_dev0"), 1u);
}

TEST(DeviceFault, SubmissionsToQuarantinedDeviceFailFast)
{
    FlickSystem sys(SystemConfig{}.withHealthStrikeLimit(1));
    Program prog;
    workloads::addMicrobench(prog);
    Process &proc = sys.load(prog);
    sys.debug().engine().killDevice(0);
    CallFuture first =
        sys.submit(proc, CallSpec("nxp_add").withArgs({1, 2}));
    first.wait();
    ASSERT_EQ(first.status(), CallStatus::deviceLost);
    ASSERT_EQ(sys.debug().engine().deviceHealth(0),
              DeviceHealth::quarantined);
    // A new call is rejected at the NX fault, without a single
    // heartbeat of waiting.
    Tick before = sys.now();
    CallFuture f = sys.submit(proc, CallSpec("nxp_add").withArgs({3, 4}));
    f.wait();
    EXPECT_EQ(f.status(), CallStatus::deviceLost);
    EXPECT_LT(sys.now() - before, us(60)); // under one heartbeat period
    EXPECT_GE(sys.debug().engine().stats().get("rejected_submissions_dev0"),
              1u);
}

TEST(DeviceFault, FullRingOnDeadDeviceFailsFastNotForever)
{
    // One ring slot and several concurrent callers: the first
    // descriptor occupies the slot forever (nobody picks it up), the
    // rest pile into the backpressure queue. Quarantine must fail all
    // of them promptly instead of leaving them stuck.
    FlickSystem sys(
        SystemConfig{}.withRingSlots(1).withHealthStrikeLimit(1));
    Program prog;
    workloads::addMicrobench(prog);
    Process &proc = sys.load(prog);
    sys.debug().engine().killDevice(0);
    Task &t1 = sys.spawnThread(proc);
    Task &t2 = sys.spawnThread(proc);
    std::vector<CallFuture> futures;
    futures.push_back(
        sys.submit(proc, CallSpec("nxp_add").withArgs({1, 2})));
    futures.push_back(sys.submit(
        proc, CallSpec("nxp_add").withArgs({3, 4}).onThread(t1)));
    futures.push_back(sys.submit(
        proc,
        CallSpec("nxp_sum6").withArgs({1, 2, 3, 4, 5, 6}).onThread(t2)));
    for (CallFuture &f : futures) {
        ASSERT_TRUE(f.waitFor(us(2000))) << "call stuck behind the ring";
        EXPECT_EQ(f.status(), CallStatus::deviceLost);
    }
    EXPECT_EQ(sys.debug().engine().stats().get("quarantines_dev0"), 1u);
}

// --- Host-native failover ------------------------------------------------

TEST(HostFallback, MidCallDeviceLossFailsOverBitIdentically)
{
    // Golden: a healthy run of the same leaf calls.
    std::vector<std::uint64_t> golden;
    {
        auto [sys, proc] = makeSystem(SystemConfig{}, true);
        golden.push_back(sys->call(*proc, "nxp_add", {7, 35}));
        golden.push_back(sys->call(*proc, "nxp_sum6", {1, 2, 3, 4, 5, 6}));
        golden.push_back(sys->call(*proc, "nxp_noop", {}));
        delete sys;
    }
    ASSERT_EQ(golden, (std::vector<std::uint64_t>{42, 21, 0}));

    auto [sys, proc] = makeSystem(SystemConfig{}
                                      .withHostFallback()
                                      .withHealthStrikeLimit(1)
                                      .withTrace(),
                                  true);
    sys->debug().engine().killDevice(0);
    // First call: descriptor fired at a dead device -> heartbeat
    // quarantine -> rescued mid-flight by the host twin.
    std::vector<std::uint64_t> got;
    CallFuture f = sys->submit(*proc, CallSpec("nxp_add").withArgs({7, 35}));
    got.push_back(f.wait());
    EXPECT_EQ(f.status(), CallStatus::ok);
    // Subsequent calls: rejected at the NX fault and re-pointed at the
    // twin inline.
    CallFuture g = sys->submit(*proc, CallSpec("nxp_sum6")
                                          .withArgs({1, 2, 3, 4, 5, 6}));
    got.push_back(g.wait());
    EXPECT_EQ(g.status(), CallStatus::ok);
    CallFuture h = sys->submit(*proc, CallSpec("nxp_noop"));
    got.push_back(h.wait());
    EXPECT_EQ(h.status(), CallStatus::ok);

    EXPECT_EQ(got, golden);
    const StatGroup &stats = sys->debug().engine().stats();
    EXPECT_GE(stats.get("failovers"), 3u);
    EXPECT_GE(stats.get("failovers_dev0"), 3u);
    EXPECT_EQ(stats.get("quarantines_dev0"), 1u);
    EXPECT_EQ(stats.get("calls_failed"), 0u);
    // Each call re-ran on its host twin exactly once, mid-flight or at
    // the fault, and the trace names that re-dispatch.
    std::map<std::uint64_t, int> fallbacks;
    for (const TraceEvent &e : sys->debug().trace().events())
        if (e.point == TracePoint::hostFallback)
            ++fallbacks[e.callId];
    EXPECT_EQ(fallbacks.size(), 3u);
    for (const auto &[id, n] : fallbacks)
        EXPECT_EQ(n, 1) << "call " << id;
    delete sys;
}

TEST(HostFallback, NoTwinRegisteredStillFailsTheCall)
{
    // host fallback on, but the program carries no "__host" twins: the
    // call must fail with deviceLost, not panic or hang.
    auto [sys, proc] = makeSystem(
        SystemConfig{}.withHostFallback().withHealthStrikeLimit(1),
        false);
    sys->debug().engine().killDevice(0);
    CallFuture f = sys->submit(*proc, CallSpec("nxp_add").withArgs({1, 2}));
    f.wait();
    EXPECT_EQ(f.status(), CallStatus::deviceLost);
    EXPECT_EQ(sys->debug().engine().stats().get("failovers"), 0u);
    delete sys;
}

TEST(HostFallback, TwinRegistrationComesFromTheSymbolTable)
{
    auto [sys, proc] = makeSystem(SystemConfig{}.withHostFallback(), true);
    // The loader registered nxp_add__host as nxp_add's twin; calling
    // the twin directly is an ordinary host call.
    EXPECT_EQ(sys->call(*proc, "nxp_add__host", {7, 35}), 42u);
    delete sys;
}

// --- The robustness layer is invisible when unused -----------------------

TEST(DeviceFaultOff, EndpointCountersStayExactlyZero)
{
    FlickSystem sys;
    Program prog;
    workloads::addMicrobench(prog);
    Process &proc = sys.load(prog);
    EXPECT_EQ(sys.call(proc, "nxp_add", {7, 35}), 42u);
    EXPECT_EQ(sys.call(proc, "host_calls_nxp", {4}), 0u);
    EXPECT_EQ(sys.call(proc, "nxp_calls_host", {3}), 0u);
    const StatGroup &stats = sys.debug().engine().stats();
    for (const char *key :
         {"failovers", "cancellations", "deadline_exceeded", "quarantines",
          "rejected_submissions", "health_strikes", "stale_descriptors",
          "dropped_descriptors", "devices_killed", "calls_failed",
          "fallback_returns"}) {
        EXPECT_EQ(stats.get(key), 0u) << key;
    }
    EXPECT_EQ(sys.debug().engine().deviceHealth(0), DeviceHealth::healthy);
}

TEST(DeviceFaultOff, StatsDumpCarriesPerDeviceEndpointCounters)
{
    auto [sys, proc] = makeSystem(
        SystemConfig{}.withHostFallback().withHealthStrikeLimit(1), true);
    sys->debug().engine().killDevice(0);
    CallFuture f = sys->submit(*proc, CallSpec("nxp_add").withArgs({7, 35}));
    EXPECT_EQ(f.wait(), 42u);
    std::ostringstream os;
    sys->dumpStats(os);
    const std::string dump = os.str();
    EXPECT_NE(dump.find("flick.failovers_dev0"), std::string::npos) << dump;
    EXPECT_NE(dump.find("flick.quarantines_dev0"), std::string::npos);
    delete sys;
}

} // namespace
} // namespace flick
