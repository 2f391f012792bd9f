/**
 * @file
 * The benchmark's three workloads. Each repetition builds a fresh
 * system (timed as set-up), runs one timed phase, and checks every call
 * result against a reference computed outside the simulator.
 */

#include <algorithm>
#include <cmath>
#include <regex>
#include <sstream>

#include "flick/system.hh"
#include "perfbench.hh"
#include "sim/load_gen.hh"
#include "workloads/bfs.hh"
#include "workloads/graph.hh"
#include "workloads/microbench.hh"
#include "workloads/placement_mix.hh"

using namespace flick;

namespace perfbench
{

std::uint64_t
sumMatching(const Counters &c, const std::string &pattern)
{
    const std::regex re(pattern);
    std::uint64_t sum = 0;
    for (const auto &[k, v] : c)
        if (std::regex_match(k, re))
            sum += v;
    return sum;
}

namespace
{

/**
 * Times the benchmark's own calls into FlickSystem::submit and
 * CallFuture::wait / FlickSystem::advanceTime. Off, it adds nothing but
 * a branch, so untraced repetitions measure the program alone.
 */
class CallClock
{
  public:
    explicit CallClock(bool on) : _on(on) {}

    flick::CallFuture submit(flick::FlickSystem &sys, flick::Process &proc,
                             flick::CallSpec spec);
    std::uint64_t wait(flick::CallFuture &future);
    void advance(flick::FlickSystem &sys, flick::Tick ticks);

    /** Host ns of every submit() call, in call order. */
    const std::vector<double> &submitNs() const { return _submitNs; }
    /** Host ns spent in wait() and advanceTime() in total. */
    double waitNs() const { return _waitNs; }

  private:
    bool _on;
    std::vector<double> _submitNs;
    double _waitNs = 0;
};

CallFuture
CallClock::submit(FlickSystem &sys, Process &proc, CallSpec spec)
{
    if (!_on)
        return sys.submit(proc, std::move(spec));
    auto t0 = Clock::now();
    CallFuture f = sys.submit(proc, std::move(spec));
    _submitNs.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
    return f;
}

std::uint64_t
CallClock::wait(CallFuture &future)
{
    if (!_on)
        return future.wait();
    auto t0 = Clock::now();
    std::uint64_t v = future.wait();
    _waitNs += std::chrono::duration<double, std::nano>(Clock::now() - t0)
                   .count();
    return v;
}

void
CallClock::advance(FlickSystem &sys, Tick ticks)
{
    if (!_on) {
        sys.advanceTime(ticks);
        return;
    }
    auto t0 = Clock::now();
    sys.advanceTime(ticks);
    _waitNs += std::chrono::duration<double, std::nano>(Clock::now() - t0)
                   .count();
}

Counters
snapshotCounters(FlickSystem &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    Counters c;
    std::istringstream is(os.str());
    std::string line;
    // "group.key value" lines; the tracer's breakdown table (indented,
    // several columns) is not a counter and is skipped.
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == ' ')
            continue;
        std::size_t sp = line.find(' ');
        if (sp == std::string::npos ||
            line.find(' ', sp + 1) != std::string::npos)
            continue;
        const std::string value = line.substr(sp + 1);
        if (value.empty() ||
            value.find_first_not_of("0123456789") != std::string::npos)
            continue;
        c[line.substr(0, sp)] = std::stoull(value);
    }
    FlickSystem::Debug dbg = sys.debug();
    c["host.walker.walks"] =
        dbg.hostCore().mmu().walker().stats().get("walks");
    return c;
}

Counters
counterDelta(const Counters &after, const Counters &before)
{
    Counters d;
    for (const auto &[k, v] : after) {
        auto it = before.find(k);
        d[k] = v - (it == before.end() ? 0 : it->second);
    }
    return d;
}

void
collectTrace(FlickSystem &sys, RepResult &r)
{
    const Tracer &tr = sys.debug().trace();
    for (unsigned i = 0; i < numTracePhases; ++i)
        r.phases[i] = tr.phaseStats(static_cast<TracePhase>(i));
    for (const TraceGaugeSample &g : tr.gauges()) {
        std::uint64_t *slot = nullptr;
        switch (g.gauge) {
          case TraceGauge::h2dRing: slot = &r.h2dRingMax; break;
          case TraceGauge::d2hRing: slot = &r.d2hRingMax; break;
          case TraceGauge::dmaQueue: slot = &r.dmaQueueMax; break;
          case TraceGauge::inFlightCalls: slot = &r.inflightMax; break;
        }
        *slot = std::max(*slot, g.value);
    }
}

/** Counters, events and chunk totals at the end of the timed phase. */
void
finishCounters(FlickSystem &sys, RepResult &r, const Counters &before,
               std::uint64_t events_before)
{
    r.counters = counterDelta(snapshotCounters(sys), before);
    r.events = sys.debug().events().eventsRun() - events_before;
    MemSystem &mem = sys.debug().mem();
    std::uint64_t chunks = mem.hostDram().allocatedChunks();
    for (unsigned d = 0; d < sys.debug().nxpDeviceCount(); ++d)
        chunks += mem.nxpDram(d).allocatedChunks();
    r.counters["mem.sparse.chunks"] = chunks;
}

void
finishTrace(FlickSystem &sys, const CallClock &clock, RepResult &r)
{
    if (!r.traced)
        return;
    r.submitNs = clock.submitNs();
    r.waitNs = clock.waitNs();
    collectTrace(sys, r);
}

/** True when @p measured reads as @p paper at one decimal. */
bool
matchesOneDecimal(double measured, double paper)
{
    return std::fabs(measured - paper) < 0.05;
}

} // namespace

/*
 * roundtrip: the Table III loop. N Host-NxP-Host nxp_noop calls, then
 * one nxp_calls_host(N) for N NxP-Host-NxP trips with the outer round
 * trip subtracted, exactly as bench_table3_roundtrip measures them.
 */
RepResult
runRoundtrip(const Options &opts, bool traced)
{
    const std::uint64_t n = opts.size == Size::full ? 20'000 : 200;
    RepResult r;
    r.traced = traced;

    auto t0 = Clock::now();
    SystemConfig cfg;
    if (traced)
        cfg.withTrace();
    FlickSystem sys(cfg);
    Program prog;
    workloads::addMicrobench(prog);
    auto tl = Clock::now();
    Process &proc = sys.load(prog);
    r.loadS = secondsSince(tl);
    // The call sequence is fixed; there is no generated input.
    sys.submit(proc, CallSpec("nxp_noop")).wait(); // one-time NxP stack
    if (traced)
        sys.debug().trace().reset();
    r.setupS = secondsSince(t0);

    const Counters before = snapshotCounters(sys);
    const std::uint64_t events0 = sys.debug().events().eventsRun();
    CallClock clock(traced);
    auto check = [&](CallFuture &f, std::uint64_t got, std::uint64_t want) {
        ++r.attempted;
        if (f.status() != CallStatus::ok) {
            ++r.failed;
        } else if (got != want) {
            ++r.failed;
            ++r.wrong;
        }
    };

    auto w0 = Clock::now();
    const Tick start = sys.now();
    for (std::uint64_t i = 0; i < n; ++i) {
        Tick c0 = sys.now();
        CallFuture f = clock.submit(sys, proc, CallSpec("nxp_noop"));
        check(f, clock.wait(f), 0);
        r.callLat.push_back(sys.now() - c0);
    }
    const Tick h2n = sys.now() - start;

    // Identity: the per-phase histograms of the Host-NxP-Host leg sum
    // to its end-to-end time, and the phase means to its latency.
    if (traced) {
        const Tracer &tr = sys.debug().trace();
        Tick total = 0;
        double mean_sum = 0;
        for (unsigned i = 0; i < numTracePhases; ++i) {
            const TracePhaseStats &s = tr.phaseStats(TracePhase(i));
            total += s.total;
            mean_sum += s.count ? double(s.total) / double(s.count) : 0;
        }
        if (total != h2n || std::fabs(mean_sum - double(h2n) / n) > 1e-6)
            r.gateErrors.push_back(
                "phase sum of the Host-NxP-Host leg != its latency");
    }

    CallFuture warm = clock.submit(sys, proc, CallSpec("nxp_noop"));
    check(warm, clock.wait(warm), 0);
    Tick c1 = sys.now();
    CallFuture loop = clock.submit(
        sys, proc, CallSpec("nxp_calls_host").withArgs({n}));
    check(loop, clock.wait(loop), 0);
    const Tick trips = sys.now() - c1;
    Tick c2 = sys.now();
    CallFuture outer = clock.submit(
        sys, proc, CallSpec("nxp_calls_host").withArgs({0}));
    check(outer, clock.wait(outer), 0);
    const Tick outer_trip = sys.now() - c2;
    r.wallS = secondsSince(w0);
    r.simTicks = sys.now() - start;

    const double h2n_us = ticksToUs(h2n) / double(n);
    const double n2h_us = ticksToUs(trips - outer_trip) / double(n);
    r.sim["host_nxp_host_us"] = h2n_us;
    r.sim["nxp_host_nxp_us"] = n2h_us;
    r.sim["paper_err_pct"] = 100.0 * std::fabs(h2n_us - 18.3) / 18.3;
    r.sim["paper_err_pct.nxp_host_nxp"] =
        100.0 * std::fabs(n2h_us - 16.9) / 16.9;
    if (!matchesOneDecimal(h2n_us, 18.2) || !matchesOneDecimal(n2h_us, 17.0))
        r.gateErrors.push_back(
            "Table III drifted from EXPERIMENTS.md (18.2 / 17.0 us)");

    finishCounters(sys, r, before, events0);
    finishTrace(sys, clock, r);
    return r;
}

/*
 * bfs: Table IV's Epinions1 graph at the paper's size (scale 1), with
 * the workload seed as the graph seed. One host-over-PCIe bfs_host
 * traversal, then one bfs_nxp traversal that calls the host once per
 * discovered vertex.
 */
RepResult
runBfs(const Options &opts, bool traced)
{
    RepResult r;
    r.traced = traced;

    auto t0 = Clock::now();
    SystemConfig cfg;
    if (traced)
        cfg.withTrace();
    FlickSystem sys(cfg);
    Program prog;
    workloads::addMicrobench(prog);
    workloads::addBfsKernels(prog);
    auto tl = Clock::now();
    Process &proc = sys.load(prog);
    r.loadS = secondsSince(tl);

    auto ti = Clock::now();
    workloads::GraphSpec spec =
        workloads::snapDatasets(opts.size == Size::full ? 1 : 64).front();
    spec.seed = opts.seed;
    const workloads::CsrGraph graph = workloads::CsrGraph::generate(spec);
    const workloads::DeviceGraph dev =
        workloads::uploadGraph(sys, proc, graph);
    const std::uint64_t expect = graph.reachableFrom(0);
    r.inputS = secondsSince(ti);
    const VAddr dummy = proc.image.symbol("bfs_dummy");
    sys.submit(proc, CallSpec("nxp_noop")).wait(); // one-time NxP stack
    if (traced)
        sys.debug().trace().reset();
    r.setupS = secondsSince(t0);

    const Counters before = snapshotCounters(sys);
    const std::uint64_t events0 = sys.debug().events().eventsRun();
    CallClock clock(traced);
    auto w0 = Clock::now();
    const Tick start = sys.now();
    Tick leg[2] = {0, 0};
    const char *kernels[2] = {"bfs_host", "bfs_nxp"};
    for (int k = 0; k < 2; ++k) {
        workloads::resetVisited(sys, proc, dev);
        Tick c0 = sys.now();
        CallFuture f = clock.submit(
            sys, proc,
            CallSpec(kernels[k]).withArgs(
                {dev.rowOff, dev.col, dev.visited, dev.queue, 0, dummy}));
        std::uint64_t got = clock.wait(f);
        leg[k] = sys.now() - c0;
        ++r.attempted;
        if (f.status() != CallStatus::ok) {
            ++r.failed;
        } else if (got != expect) {
            ++r.failed;
            ++r.wrong;
        } else {
            r.callLat.push_back(leg[k]);
        }
    }
    r.wallS = secondsSince(w0);
    r.simTicks = sys.now() - start;

    const double speedup = double(leg[0]) / double(leg[1]);
    r.sim["baseline_s"] = ticksToSec(leg[0]);
    r.sim["flick_s"] = ticksToSec(leg[1]);
    r.sim["sim_speedup"] = speedup;
    r.sim["paper_err_pct"] = 100.0 * std::fabs(speedup - 0.75) / 0.75;
    r.sim["vertices_reached"] = double(expect);
    // EXPERIMENTS.md records 0.72x for the full-size graph; other graph
    // seeds of the same size land within 0.01 of it.
    if (opts.size == Size::full && std::fabs(speedup - 0.72) > 0.01)
        r.gateErrors.push_back(
            "bfs speedup drifted from EXPERIMENTS.md (0.72x)");

    finishCounters(sys, r, before, events0);
    finishTrace(sys, clock, r);
    return r;
}

namespace
{

/** One in-flight open-loop call. */
struct Pending
{
    Tick due = 0;
    CallFuture fut;
    std::uint64_t expect = 0;
    Task *task = nullptr;
};

} // namespace

/*
 * storm: open-loop Poisson arrivals of mix_hot(seed, 1200) onto a
 * 4-device fabric with least-loaded placement and QoS on, each call
 * carrying a deadline of 4x the unloaded latency. Latency counts from
 * each arrival's due time; the simulated clock is advanced in 2 us
 * steps between arrivals, as bench_slo does.
 */
RepResult
runStorm(const Options &opts, bool traced)
{
    constexpr unsigned devices = 4;
    constexpr std::uint64_t rounds = 1200;
    constexpr unsigned pool_cap = 96;
    constexpr double rate_per_sec = 40'000;
    const std::uint64_t arrivals_wanted =
        opts.size == Size::full ? 2'500 : 60;
    const Tick step = us(2);

    RepResult r;
    r.traced = traced;

    auto t0 = Clock::now();
    QosConfig q;
    q.tenantInFlight = 2 * devices;
    // The front door's completion estimate sheds a call now and then on
    // some arrival seeds; a shed call is a failed operation, so calls keep
    // their deadline but are not shed on the estimate.
    q.deadlineAdmission = false;
    SystemConfig cfg = SystemConfig{}
                           .withDevices(devices)
                           .withPlacement(PlacementKind::leastLoaded)
                           .withQos(q);
    if (traced)
        cfg.withTrace();
    FlickSystem sys(cfg);
    Program prog;
    workloads::addPlacementMix(prog, devices);
    auto tl = Clock::now();
    Process &proc = sys.load(prog);
    r.loadS = secondsSince(tl);

    // Warm-up, and the unloaded latency the deadline derives from.
    sys.submit(proc, CallSpec("mix_hot").withArgs({1, 10})).wait();
    sys.submit(proc, CallSpec("mix_hot").withArgs({1, rounds})).wait();
    Tick base0 = sys.now();
    for (std::uint64_t i = 1; i <= 8; ++i)
        sys.submit(proc, CallSpec("mix_hot").withArgs({i, rounds})).wait();
    const Tick slo = 4 * ((sys.now() - base0) / 8);

    auto ti = Clock::now();
    LoadGenConfig lg;
    lg.kind = ArrivalKind::poisson;
    lg.ratePerSec = rate_per_sec;
    lg.seed = opts.seed;
    lg.horizon = static_cast<Tick>(double(arrivals_wanted) /
                                   LoadGenerator::perTick(rate_per_sec));
    const std::vector<Arrival> arrivals = LoadGenerator(lg).generate();
    std::vector<std::uint64_t> expect(arrivals.size());
    for (std::size_t i = 0; i < arrivals.size(); ++i)
        expect[i] = workloads::mixHotRef(arrivals[i].seq % 1000 + 1, rounds);
    r.inputS = secondsSince(ti);
    if (traced)
        sys.debug().trace().reset();
    r.setupS = secondsSince(t0);

    const Counters before = snapshotCounters(sys);
    const std::uint64_t events0 = sys.debug().events().eventsRun();
    CallClock clock(traced);
    std::vector<Task *> free_tasks;
    unsigned spawned = 0;
    std::vector<Pending> inflight;
    std::uint64_t ok_in_slo = 0;

    auto poll = [&] {
        for (std::size_t i = 0; i < inflight.size();) {
            Pending &p = inflight[i];
            if (!p.fut.done()) {
                ++i;
                continue;
            }
            if (p.fut.status() != CallStatus::ok) {
                ++r.failed;
            } else if (p.fut.value() != p.expect) {
                ++r.failed;
                ++r.wrong;
            } else {
                Tick lat = sys.now() - p.due;
                r.callLat.push_back(lat);
                if (lat <= slo)
                    ++ok_in_slo;
            }
            free_tasks.push_back(p.task);
            inflight[i] = std::move(inflight.back());
            inflight.pop_back();
        }
    };

    auto w0 = Clock::now();
    const Tick start = sys.now();
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const Tick due = start + arrivals[i].when;
        while (sys.now() < due) {
            clock.advance(sys, std::min(step, due - sys.now()));
            poll();
        }
        r.lateUsMax = std::max(r.lateUsMax, ticksToUs(sys.now() - due));
        ++r.attempted;
        Task *task = nullptr;
        if (!free_tasks.empty()) {
            task = free_tasks.back();
            free_tasks.pop_back();
        } else if (spawned < pool_cap) {
            ++spawned;
            task = &sys.spawnThread(proc, 16 * 1024);
        } else {
            ++r.failed; // client population exhausted: dropped
            continue;
        }
        Pending p;
        p.due = due;
        p.expect = expect[i];
        p.task = task;
        p.fut = clock.submit(
            sys, proc,
            CallSpec("mix_hot")
                .withArgs({arrivals[i].seq % 1000 + 1, rounds})
                .onThread(*task)
                .withDeadline(slo));
        inflight.push_back(std::move(p));
        poll(); // a shed future is done already: recycle its client
    }
    while (!inflight.empty()) {
        clock.advance(sys, step);
        poll();
    }
    r.wallS = secondsSince(w0);
    r.simTicks = sys.now() - start;

    r.sim["slo_us"] = ticksToUs(slo);
    r.sim["offered_per_s"] = rate_per_sec;
    r.sim["sim_goodput_per_s"] =
        double(ok_in_slo) / ticksToSec(lg.horizon);

    finishCounters(sys, r, before, events0);
    finishTrace(sys, clock, r);
    return r;
}

} // namespace perfbench
