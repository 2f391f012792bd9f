/**
 * @file
 * flick_perfbench: the repository benchmark's binary (see README.md).
 *
 *   flick_perfbench --workload roundtrip|bfs|storm [--seed N]
 *                   [--seconds S] [--trace 0|1] [--size full|tiny]
 *                   [--commit ID]
 *
 * --trace 0 repeats the workload with tracing off until --seconds have
 * passed (at least three repetitions) and reports the end-to-end
 * metrics as medians over the repetitions. --trace 1 runs the layer
 * probes, then untraced/traced pairs of the workload, checks that the
 * traced run reproduces the untraced one exactly, and reports the
 * per-layer metrics. Every call result is checked against a reference;
 * the last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics. The exit code is 0 only when
 * every check passed.
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
#include <regex>
#include <thread>

#include "perfbench.hh"

using namespace flick;
using namespace perfbench;

namespace
{

#if !defined(__OPTIMIZE__) || PERFBENCH_SANITIZED || \
    defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool measurableBuild = false;
#else
constexpr bool measurableBuild = true;
#endif

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr,
                 "flick_perfbench: error: %s\n"
                 "usage: flick_perfbench --workload roundtrip|bfs|storm "
                 "[--seed N] [--seconds 1..600] [--trace 0|1] "
                 "[--size full|tiny] [--commit ID]\n",
                 msg.c_str());
    std::exit(2);
}

/** Parse a whole decimal string into [lo, hi]; no sign, no suffix. */
std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text,
              std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (text.empty() || ec != std::errc() || ptr != end || v < lo || v > hi)
        usageError("--" + flag + " wants a whole number in [" +
                   std::to_string(lo) + ", " + std::to_string(hi) +
                   "], got '" + text + "'");
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            usageError("unexpected argument '" + arg + "'");
        std::string name = arg.substr(2), value;
        if (auto eq = name.find('='); eq != std::string::npos) {
            value = name.substr(eq + 1);
            name.resize(eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            usageError("--" + name + " needs a value");
        }
        if (name == "workload") {
            if (value != "roundtrip" && value != "bfs" && value != "storm")
                usageError("unknown workload '" + value + "'");
            o.workload = value;
        } else if (name == "seed") {
            o.seed = parseUnsigned(name, value, 0, ~std::uint64_t(0));
        } else if (name == "seconds") {
            o.seconds = unsigned(parseUnsigned(name, value, 1, 600));
        } else if (name == "trace") {
            o.trace = parseUnsigned(name, value, 0, 1) == 1;
        } else if (name == "size") {
            if (value != "full" && value != "tiny")
                usageError("--size wants full or tiny, got '" + value + "'");
            o.size = value == "full" ? Size::full : Size::tiny;
        } else if (name == "commit") {
            if (value.empty() || value.size() > 64 ||
                value.find_first_not_of("0123456789abcdefghijklmnopqrstuv"
                                        "wxyzABCDEFGHIJKLMNOPQRSTUVWXYZ._-") !=
                    std::string::npos)
                usageError("--commit wants 1-64 of [A-Za-z0-9._-]");
            o.commit = value;
        } else {
            usageError("unknown flag '--" + name + "'");
        }
    }
    if (o.workload.empty())
        usageError("--workload is required");
    return o;
}

/** Nearest-rank percentile @p p (0..100) of @p v. */
template <typename T>
T
percentile(std::vector<T> v, double p)
{
    if (v.empty())
        return T{};
    std::sort(v.begin(), v.end());
    std::size_t rank = std::size_t(std::ceil(p / 100.0 * double(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::uint64_t
get(const Counters &c, const std::string &key)
{
    auto it = c.find(key);
    return it == c.end() ? 0 : it->second;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** hits / (hits + misses) over every counter family matching @p prefix. */
double
hitRatio(const Counters &c, const std::string &prefix,
         const std::string &hit, const std::string &miss)
{
    double h = double(sumMatching(c, prefix + hit));
    return ratio(h, h + double(sumMatching(c, prefix + miss)));
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Descriptors that crossed PCIe: one DMA burst each (batching is off). */
std::uint64_t
crossings(const RepResult &r)
{
    return sumMatching(r.counters, R"(dma\d*\.transfers)");
}

std::uint64_t
instructions(const RepResult &r)
{
    return sumMatching(r.counters, R"((host|nxp\d*)\.instructions)");
}

/**
 * Peak resident set of this process image in kB. VmHWM, unlike
 * getrusage's ru_maxrss, does not carry the parent's peak across exec.
 */
long
peakRssKb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    long kb = 0;
    while (std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1)
            break;
    std::fclose(f);
    return kb;
}

/** Simulated results that must repeat exactly between two runs. */
std::vector<std::string>
simDifferences(const RepResult &a, const RepResult &b)
{
    std::vector<std::string> diffs;
    if (a.simTicks != b.simTicks)
        diffs.push_back("sim_s");
    if (a.callLat != b.callLat)
        diffs.push_back("per-call latencies");
    if (a.sim != b.sim)
        diffs.push_back("workload results");
    if (a.events != b.events)
        diffs.push_back("sim.events_run");
    for (const auto &[k, v] : a.counters)
        if (get(b.counters, k) != v)
            diffs.push_back("counter " + k);
    for (const auto &[k, v] : b.counters)
        if (!a.counters.count(k) && v)
            diffs.push_back("counter " + k);
    if (a.attempted != b.attempted || a.failed != b.failed)
        diffs.push_back("call outcomes");
    return diffs;
}

/**
 * The simulated end-to-end results of one repetition, printed on every
 * run. They are exact, so they are checked rather than bounded.
 */
std::vector<Metric>
simulatedMetrics(const std::string &workload, const RepResult &r,
                 std::uint64_t attempted, std::uint64_t failed)
{
    std::vector<Metric> m;
    m.push_back({"sim_s", ticksToSec(r.simTicks), "sim_s"});
    if (workload != "bfs") {
        m.push_back({"sim_call_p50_us",
                     ticksToUs(percentile(r.callLat, 50)), "sim_us"});
        m.push_back({"sim_call_p99_us",
                     ticksToUs(percentile(r.callLat, 99)), "sim_us"});
    }
    for (const auto &[k, v] : r.sim) {
        if (k == "sim_goodput_per_s" || k == "offered_per_s")
            m.push_back({k, v, "1/sim_s"});
        else if (k == "sim_speedup")
            m.push_back({k, v, "x"});
        else if (k.rfind("paper_err_pct", 0) == 0)
            m.push_back({k, v, "%"});
        else if (k.size() > 3 && k.compare(k.size() - 3, 3, "_us") == 0)
            m.push_back({k, v, "sim_us"});
        else if (k.size() > 2 && k.compare(k.size() - 2, 2, "_s") == 0)
            m.push_back({k, v, "sim_s"});
        else
            m.push_back({k, v, "count"});
    }
    m.push_back({"fail_ratio", ratio(double(failed), double(attempted)),
                 "ratio"});
    return m;
}

/** Per-layer metrics of a traced repetition @p t (see README.md). */
std::vector<Metric>
layerMetrics(const RepResult &t, const std::vector<RepResult> &traced,
             const std::vector<RepResult> &untraced,
             const std::map<std::string, double> &probes)
{
    const Counters &c = t.counters;
    std::vector<Metric> m;
    auto add = [&](const std::string &name, double v,
                   const std::string &unit) { m.push_back({name, v, unit}); };

    // flick
    for (const char *p : {"flick.descriptor.to_wire_ns",
                          "flick.descriptor.wire_intact_ns",
                          "flick.descriptor.from_wire_ns"})
        add(p, probes.at(p), "ns");
    std::vector<double> submit_ns;
    double wait_ns = 0;
    std::uint64_t calls = 0;
    for (const RepResult &r : traced) {
        submit_ns.insert(submit_ns.end(), r.submitNs.begin(),
                         r.submitNs.end());
        wait_ns += r.waitNs;
        calls += r.attempted;
    }
    add("flick.submit_ns.p50", percentile(submit_ns, 50), "ns");
    add("flick.submit_ns.p99", percentile(submit_ns, 99), "ns");
    add("flick.wait_ns_per_call", ratio(wait_ns, double(calls)), "ns");
    add("flick.crossings", double(crossings(t)), "count");
    add("flick.naks", double(get(c, "flick.naks")), "count");
    add("flick.retries", double(get(c, "flick.retries")), "count");
    add("flick.qos.queued", double(get(c, "flick.qos.queued")), "count");
    add("flick.qos.shed", double(get(c, "flick.qos.shed")), "count");
    add("flick.ring.h2d_max", double(t.h2dRingMax), "count");
    add("flick.ring.d2h_max", double(t.d2hRingMax), "count");
    add("flick.inflight_max", double(t.inflightMax), "count");
    Tick phase_total = 0;
    for (const TracePhaseStats &s : t.phases)
        phase_total += s.total;
    for (unsigned i = 0; i < numTracePhases; ++i) {
        const std::string base =
            std::string("flick.phase.") + tracePhaseName(TracePhase(i));
        add(base + ".mean_us", t.phases[i].meanUs(), "sim_us");
        add(base + ".share",
            ratio(double(t.phases[i].total), double(phase_total)), "ratio");
    }

    // sim
    std::vector<double> ns_per_event, wall_u, wall_t;
    for (const RepResult &r : untraced) {
        ns_per_event.push_back(ratio(r.wallS * 1e9, double(r.events)));
        wall_u.push_back(r.wallS);
    }
    for (const RepResult &r : traced)
        wall_t.push_back(r.wallS);
    add("sim.events_run", double(t.events), "count");
    add("sim.events_per_call", ratio(double(t.events), double(t.attempted)),
        "count");
    add("sim.host_ns_per_event", median(ns_per_event), "ns");
    for (const char *p : {"sim.event_queue.cycle_ns.d4",
                          "sim.event_queue.cycle_ns.d256",
                          "sim.event_queue.run_until_ns.d256",
                          "sim.stats.inc_ns"})
        add(p, probes.at(p), "ns");
    add("sim.trace.overhead_pct",
        100.0 * (median(wall_t) / median(wall_u) - 1.0), "%");

    // mem
    for (const char *p : {"mem.sparse.read8_ns.seq",
                          "mem.sparse.read8_ns.rand",
                          "mem.sparse.write8_ns.rand", "mem.dma.copy_ns"})
        add(p, probes.at(p), "ns");
    add("mem.sparse.chunks", double(get(c, "mem.sparse.chunks")), "count");
    add("mem.dma.transfers", double(crossings(t)), "count");
    add("mem.dma.bytes", double(sumMatching(c, R"(dma\d*\.bytes)")),
        "count");
    add("mem.irq.raised", double(get(c, "irq.raised")), "count");
    add("mem.dma.queue_max", double(t.dmaQueueMax), "count");

    // vm
    add("vm.mmu.translate_hit_ns", probes.at("vm.mmu.translate_hit_ns"),
        "ns");
    add("vm.mmu.translate_miss_ns", probes.at("vm.mmu.translate_miss_ns"),
        "ns");
    for (const char *side : {"host", "nxp"}) {
        const std::string fam =
            std::string(side) == "host" ? "host" : R"(nxp\d*)";
        for (const char *tlb : {"itlb", "dtlb"})
            add(std::string("vm.") + side + "." + tlb + ".hit_ratio",
                hitRatio(c, fam + "\\." + tlb + "\\.", "hits", "misses"),
                "ratio");
        add(std::string("vm.") + side + ".walks",
            double(sumMatching(c, fam + R"(\.walker\.walks)")), "count");
    }

    // isa
    add("isa.rv64.ns_per_insn", probes.at("isa.rv64.ns_per_insn"), "ns");
    add("isa.hx64.ns_per_insn", probes.at("isa.hx64.ns_per_insn"), "ns");
    add("isa.rv64.instructions",
        double(sumMatching(c, R"(nxp\d*\.instructions)")), "count");
    add("isa.hx64.instructions", double(get(c, "host.instructions")),
        "count");
    for (const auto &[isa, fam] :
         {std::pair<const char *, const char *>{"rv64", R"(nxp\d*)"},
          {"hx64", "host"}}) {
        double hits = double(
            sumMatching(c, std::string(fam) + R"(\.decode_cache_hits)"));
        double other = double(sumMatching(
            c, std::string(fam) + R"(\.decode_cache_(fills|fallbacks))"));
        add(std::string("isa.") + isa + ".decode_cache_hit_ratio",
            ratio(hits, hits + other), "ratio");
    }
    add("isa.nxp.icache.hit_ratio",
        hitRatio(c, R"(nxp\d*\.icache\.)", "hits", "misses"), "ratio");

    // os
    add("os.kernel.nx_faults", double(get(c, "kernel.nx_faults")), "count");
    add("os.kernel.suspensions", double(get(c, "kernel.suspensions")),
        "count");
    add("os.kernel.wakeups", double(get(c, "kernel.wakeups")), "count");

    // policy: calls each device received, max over min.
    add("policy.rebalanced", double(get(c, "flick.placement.rebalanced")),
        "count");
    std::uint64_t lo = ~std::uint64_t(0), hi = 0;
    const std::regex per_dev(R"(flick\.host_to_nxp_calls_dev\d+)");
    for (const auto &[k, v] : c) {
        if (std::regex_match(k, per_dev)) {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
    }
    add("policy.device_imbalance",
        hi ? double(hi) / double(std::max<std::uint64_t>(lo, 1)) : 1.0,
        "ratio");

    // loader, workload set-up and the open-loop generator's lateness.
    std::vector<double> load_s, input_s;
    for (const auto *reps : {&traced, &untraced}) {
        for (const RepResult &r : *reps) {
            load_s.push_back(r.loadS);
            input_s.push_back(r.inputS);
        }
    }
    add("loader.load_s", median(load_s), "s");
    add("workloads.input_s", median(input_s), "s");
    add("driver.late_us_max", t.lateUsMax, "sim_us");
    return m;
}

void
printMetric(const Metric &m, const char *better)
{
    std::printf("  %-36s %-14.6g %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), better);
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    if (!measurableBuild) {
        std::fprintf(stderr,
                     "flick_perfbench: error: refusing to measure a %s "
                     "build; configure an optimised build without "
                     "sanitizers\n",
                     PERFBENCH_BUILD_TYPE);
        return 3;
    }

    std::function<RepResult(const Options &, bool)> run =
        opts.workload == "roundtrip" ? runRoundtrip
        : opts.workload == "bfs"     ? runBfs
                                     : runStorm;
    std::printf("# flick_perfbench workload=%s seed=%llu seconds=%u "
                "trace=%d size=%s\n",
                opts.workload.c_str(), (unsigned long long)opts.seed,
                opts.seconds, opts.trace ? 1 : 0,
                opts.size == Size::full ? "full" : "tiny");
    std::printf("# commit=%s build=%s compiler=\"%s\" nproc=%u\n",
                opts.commit.c_str(), PERFBENCH_BUILD_TYPE, __VERSION__,
                std::thread::hardware_concurrency());

    const auto begin = Clock::now();
    std::vector<std::string> errors;
    auto fail = [&](const std::string &e) {
        if (std::find(errors.begin(), errors.end(), e) == errors.end())
            errors.push_back(e);
    };
    std::map<std::string, double> probes;
    if (opts.trace)
        probes = runProbes(opts.seed, opts.size);

    // Repeat until the time is up: three untraced repetitions at least
    // with --trace 0, one untraced/traced pair at least with --trace 1.
    // Every repetition must reproduce the first one's simulated results
    // exactly; later ones drop their per-call latencies once compared.
    std::vector<RepResult> untraced, traced;
    long rss_kb = 0;
    auto compare = [&](std::vector<RepResult> &reps, const char *what) {
        RepResult &r = reps.back();
        for (const std::string &d : simDifferences(untraced.front(), r))
            fail(std::string(what) + " " + d);
        if (reps.size() > 1)
            std::vector<Tick>().swap(r.callLat);
    };
    while (true) {
        untraced.push_back(run(opts, false));
        if (untraced.size() == 1)
            rss_kb = peakRssKb(); // one repetition's peak, however many run
        compare(untraced, "repetitions differ in");
        if (opts.trace) {
            traced.push_back(run(opts, true));
            compare(traced, "traced run differs from untraced in");
        }
        bool enough = opts.trace || untraced.size() >= 3;
        if (enough && secondsSince(begin) >= opts.seconds)
            break;
    }

    std::uint64_t attempted = 0, failed = 0, wrong = 0;
    for (const auto *reps : {&untraced, &traced}) {
        for (const RepResult &r : *reps) {
            attempted += r.attempted;
            failed += r.failed;
            wrong += r.wrong;
            for (const std::string &e : r.gateErrors)
                fail(e);
        }
    }
    if (wrong)
        fail(std::to_string(wrong) +
             " call(s) returned a value unlike the reference");
    const RepResult &first = untraced.front();

    std::printf("# repetitions: %zu untraced, %zu traced; %.1f s\n",
                untraced.size(), traced.size(), secondsSince(begin));
    std::printf("# untraced wall_s per repetition:");
    for (const RepResult &r : untraced)
        std::printf(" %.4f", r.wallS);
    std::printf("\n");
    std::printf("# simulated end-to-end (exact; checked, not bounded):\n");
    for (const Metric &m :
         simulatedMetrics(opts.workload, first, attempted, failed))
        printMetric(m, "");

    std::vector<Metric> out;
    if (!opts.trace) {
        std::vector<double> wall, setup, xps, mips;
        for (const RepResult &r : untraced) {
            wall.push_back(r.wallS);
            setup.push_back(r.setupS);
            xps.push_back(double(crossings(r)) / r.wallS);
            mips.push_back(double(instructions(r)) / (r.wallS * 1e6));
        }
        out = {
            {"wall_s", median(wall), "s"},
            {"setup_s", median(setup), "s"},
            {"crossings_per_s", median(xps), "1/s"},
            {"sim_mips", median(mips), "insn/us"},
            {"peak_rss_mb", double(rss_kb) / 1024.0, "MB"},
        };
        std::printf("# host end-to-end (medians over repetitions):\n");
        for (const Metric &m : out) {
            bool higher = m.name == "crossings_per_s" || m.name == "sim_mips";
            printMetric(m, higher ? "higher is better" : "lower is better");
        }
    } else {
        out = layerMetrics(traced.front(), traced, untraced, probes);
        std::printf("# per-layer (traced run; probes are isolated):\n");
        for (const Metric &m : out)
            printMetric(m, "");
    }

    for (const std::string &e : errors)
        std::printf("# FAIL: %s\n", e.c_str());
    const bool correct = errors.empty();
    printResult(correct, attempted, failed, out);
    std::fflush(stdout);
    return correct ? 0 : 1;
}
