/**
 * @file
 * Unit tests for the simulation kernel: ticks, event queue, RNG, stats.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

namespace flick
{
namespace
{

TEST(Ticks, Conversions)
{
    EXPECT_EQ(ns(1), 1000u);
    EXPECT_EQ(us(1), 1000u * 1000);
    EXPECT_EQ(msec(1), 1000ull * 1000 * 1000);
    EXPECT_EQ(sec(1), 1000ull * 1000 * 1000 * 1000);
    EXPECT_EQ(ticksToNs(ns(123)), 123u);
    EXPECT_DOUBLE_EQ(ticksToUs(us(5)), 5.0);
    EXPECT_DOUBLE_EQ(ticksToSec(sec(2)), 2.0);
}

TEST(ClockDomain, PeriodAndCycles)
{
    ClockDomain nxp(200'000'000);
    EXPECT_EQ(nxp.period(), 5000u); // 5 ns in ps
    EXPECT_EQ(nxp.cycles(10), ns(50));
    EXPECT_EQ(nxp.ticksToCycles(ns(50)), 10u);

    ClockDomain host(2'400'000'000ull);
    // 416.67 ps rounds to 417 ps.
    EXPECT_EQ(host.period(), 417u);
    EXPECT_EQ(host.freqHz(), 2'400'000'000ull);
}

TEST(ClockDomain, RoundsUpPartialCycles)
{
    ClockDomain clk(1'000'000'000); // 1 ns period
    EXPECT_EQ(clk.ticksToCycles(1500), 2u);
    EXPECT_EQ(clk.ticksToCycles(1000), 1u);
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(300, "c", [&] { order.push_back(3); });
    q.schedule(100, "a", [&] { order.push_back(1); });
    q.schedule(200, "b", [&] { order.push_back(2); });
    EXPECT_EQ(q.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 300u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(50, "e", [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, "outer", [&] {
        q.scheduleIn(5, "inner", [&] { fired = 1; });
    });
    q.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 15u);
}

TEST(EventQueue, SameTickChainRunsAfterExisting)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, "a", [&] {
        order.push_back(1);
        q.scheduleIn(0, "chain", [&] { order.push_back(3); });
    });
    q.schedule(10, "b", [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, Deschedule)
{
    EventQueue q;
    int fired = 0;
    auto id = q.schedule(10, "x", [&] { fired = 1; });
    EXPECT_TRUE(q.deschedule(id));
    EXPECT_FALSE(q.deschedule(id)); // already cancelled
    q.run();
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    int count = 0;
    for (Tick t = 100; t <= 1000; t += 100)
        q.schedule(t, "e", [&] { ++count; });
    EXPECT_EQ(q.runUntil(500), 5u);
    EXPECT_EQ(count, 5);
    EXPECT_EQ(q.now(), 500u);
    EXPECT_EQ(q.pending(), 5u);
}

TEST(EventQueue, RunUntilAdvancesToLimit)
{
    EventQueue q;
    q.runUntil(1234, true);
    EXPECT_EQ(q.now(), 1234u);
}

TEST(EventQueue, NextEventTime)
{
    EventQueue q;
    EXPECT_EQ(q.nextEventTime(), maxTick);
    auto id = q.schedule(77, "x", [] {});
    q.schedule(99, "y", [] {});
    EXPECT_EQ(q.nextEventTime(), 77u);
    q.deschedule(id);
    EXPECT_EQ(q.nextEventTime(), 99u);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty)
{
    EventQueue q;
    EXPECT_FALSE(q.step());
    q.schedule(1, "x", [] {});
    EXPECT_TRUE(q.step());
    EXPECT_FALSE(q.step());
    EXPECT_EQ(q.eventsRun(), 1u);
}

TEST(EventQueue, DestructionFreesPendingEvents)
{
    auto token = std::make_shared<int>(42);
    bool ran = false;
    {
        EventQueue q;
        q.schedule(5, "holds-token", [token, &ran] { ran = true; });
        auto cancelled = q.schedule(6, "cancelled", [token] {});
        q.deschedule(cancelled);
        EXPECT_EQ(token.use_count(), 3);
    }
    // Neither callback ran, and both released their captures.
    EXPECT_FALSE(ran);
    EXPECT_EQ(token.use_count(), 1);
}

/**
 * A callback runs in its own slot while the events it schedules claim
 * new slot chunks; its captures must stay put (a moved slot would be a
 * use-after-free, which the ASan leg reports).
 */
TEST(EventQueue, CallbackSchedulingManyEventsKeepsItsCaptures)
{
    EventQueue q;
    std::vector<int> fired;
    const std::uint64_t a = 0x1234, b = 0x5678;
    bool intact = false;
    q.schedule(1, "parent", [&q, &fired, &intact, a, b] {
        for (int i = 0; i < 300; ++i)
            q.scheduleIn(1 + i, "child", [&fired, i] { fired.push_back(i); });
        intact = a == 0x1234 && b == 0x5678;
    });
    q.run();
    EXPECT_TRUE(intact);
    ASSERT_EQ(fired.size(), 300u);
    for (int i = 0; i < 300; ++i)
        EXPECT_EQ(fired[i], i);
}

/**
 * Differential test of the pooled event queue against a reference that
 * is simply the set of live events ordered by (when, schedule order):
 * about 20k seeded schedule / deschedule / step / runUntil /
 * nextEventTime calls, many of them at the same tick, comparing the
 * firing order, nextEventTime(), pending() and eventsRun() after every
 * call. Some callbacks schedule a child while they run in their own
 * slot, which stays taken until they return, so children claim free
 * slots and new slot chunks under a running callback.
 */
TEST(EventQueue, DifferentialAgainstOrderedReference)
{
    EventQueue q;
    Rng rng(20240917);
    auto token = std::make_shared<int>(0);

    std::vector<EventQueue::EventId> ids; // schedule index -> queue id
    std::set<std::pair<Tick, std::size_t>> live; // reference
    std::vector<Tick> when;                      // schedule index -> tick
    std::vector<std::size_t> fired, expected;
    std::uint64_t ref_run = 0;
    Tick ref_now = 0;

    const Tick delays[] = {0, 0, 0, 1, 1, 7, 100, 1000};
    std::function<void(Tick)> add = [&](Tick delay) {
        std::size_t i = ids.size();
        Tick at = q.now() + delay;
        when.push_back(at);
        live.insert({at, i});
        ids.push_back(q.schedule(at, "diff", [&, i, token] {
            fired.push_back(i);
            if (i % 5 == 0) // re-entrant: schedules while it runs
                add(delays[i % 8]);
        }));
    };
    // Reference firing of every live event up to @p limit, in order.
    auto refRunUntil = [&](Tick limit) {
        std::uint64_t n = 0;
        while (!live.empty() && live.begin()->first <= limit) {
            ref_now = live.begin()->first;
            expected.push_back(live.begin()->second);
            live.erase(live.begin());
            ++ref_run;
            ++n;
        }
        return n;
    };

    for (int op = 0; op < 20000; ++op) {
        std::uint64_t r = rng.below(100);
        if (r < 45) {
            add(delays[rng.below(8)]);
        } else if (r < 55 && !ids.empty()) {
            // Any id ever issued: live, cancelled or already fired. A
            // cancelled event stays queued until it reaches the head, so
            // cancel it twice while it is still there.
            std::size_t i = rng.below(ids.size());
            bool ref = live.erase({when[i], i}) == 1;
            ASSERT_EQ(q.deschedule(ids[i]), ref) << "op " << op;
            ASSERT_FALSE(q.deschedule(ids[i])) << "op " << op;
        } else if (r < 75) {
            bool ref = !live.empty();
            ASSERT_EQ(q.step(), ref) << "op " << op;
            // A child the callback scheduled sorts after its parent, so
            // the reference's head is still the event that just fired.
            if (ref) {
                ref_now = live.begin()->first;
                expected.push_back(live.begin()->second);
                live.erase(live.begin());
                ++ref_run;
            }
        } else if (r < 85) {
            Tick limit = q.now() + rng.below(2000);
            std::uint64_t n = q.runUntil(limit);
            ASSERT_EQ(n, refRunUntil(limit)) << "op " << op;
        } else {
            Tick ref = live.empty() ? maxTick : live.begin()->first;
            ASSERT_EQ(q.nextEventTime(), ref) << "op " << op;
        }
        ASSERT_EQ(fired, expected) << "op " << op;
        ASSERT_EQ(q.pending(), live.size()) << "op " << op;
        ASSERT_EQ(q.eventsRun(), ref_run) << "op " << op;
        if (ref_run) {
            ASSERT_EQ(q.now(), ref_now) << "op " << op;
        }
    }
    EXPECT_GT(fired.size(), 5000u);
    q.run();
    refRunUntil(maxTick);
    EXPECT_EQ(fired, expected);
    EXPECT_TRUE(q.empty());
    // Fired and discarded callbacks have all released their captures.
    EXPECT_EQ(token.use_count(), 1);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t v = rng.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, RealInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        double r = rng.real();
        EXPECT_GE(r, 0.0);
        EXPECT_LT(r, 1.0);
    }
}

TEST(Stats, IncSetGet)
{
    StatGroup g("grp");
    EXPECT_EQ(g.get("x"), 0u);
    g.inc("x");
    g.inc("x", 4);
    EXPECT_EQ(g.get("x"), 5u);
    g.set("x", 2);
    EXPECT_EQ(g.get("x"), 2u);
    g.reset();
    EXPECT_EQ(g.get("x"), 0u);
    EXPECT_EQ(g.counters().size(), 1u);
}

TEST(StatsCounter, KeyAppearsOnFirstBumpLikeInc)
{
    StatGroup g("grp");
    StatGroup::Counter c(g, "hits");
    StatGroup::Counter s(g, "level");
    std::ostringstream before;
    g.dump(before);
    EXPECT_EQ(before.str(), "");
    EXPECT_EQ(g.counters().size(), 0u);

    c.inc();
    c.inc(4);
    s.set(0); // set() creates the key too, even at zero
    StatGroup ref("grp");
    ref.inc("hits");
    ref.inc("hits", 4);
    ref.set("level", 0);
    std::ostringstream got, want;
    g.dump(got);
    ref.dump(want);
    EXPECT_EQ(got.str(), want.str());
    EXPECT_EQ(got.str(), "grp.hits 5\ngrp.level 0\n");
}

TEST(StatsCounter, HandleAndStringKeyShareOneValue)
{
    StatGroup g("grp");
    g.inc("x", 2); // string key first, then the handle resolves to it
    StatGroup::Counter x(g, "x");
    x.inc(3);
    g.inc("x");
    EXPECT_EQ(g.get("x"), 6u);
    StatGroup::Counter y(g, "y"); // handle first, then the string key
    y.inc();
    g.inc("y", 10);
    y.inc();
    EXPECT_EQ(g.get("y"), 12u);
    EXPECT_EQ(g.counters().size(), 2u);
}

TEST(StatsCounter, ResetKeepsTheKey)
{
    StatGroup g("grp");
    StatGroup::Counter c(g, "n");
    c.inc(7);
    g.reset();
    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(), "grp.n 0\n");
    c.inc();
    EXPECT_EQ(g.get("n"), 1u);
}

TEST(Stats, DumpFormat)
{
    StatGroup g("mem");
    g.inc("reads", 3);
    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(), "mem.reads 3\n");
}

TEST(Logging, Strfmt)
{
    EXPECT_EQ(strfmt("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(strfmt("%#llx", 255ull), "0xff");
    EXPECT_EQ(strfmt("plain"), "plain");
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(100, "x", [] {});
    q.run();
    EXPECT_DEATH(q.schedule(50, "late", [] {}), "scheduled in the past");
}

} // namespace
} // namespace flick
