/**
 * @file
 * Figure 5 — pointer-chasing microbenchmark.
 *
 * Sweeps the number of traversed nodes per migration (the work available
 * to amortize each thread migration) and reports performance normalized
 * to the no-migration baseline (host traverses the NxP-resident list
 * over PCIe), for Flick and for emulated 500 us / 1 ms migration-latency
 * systems:
 *   Fig. 5a — frequent migration (no delay between calls).
 *   Fig. 5b — a migration every 100 us of host-side work.
 *
 * Paper shape: Flick reaches the baseline at ~32 accesses/migration and
 * plateaus at ~2.6x (5a); with 100 us intervals the benefit caps near 2x
 * (5b); the 500 us / 1 ms systems stay below baseline for the whole
 * sweep in 5a.
 */

#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "sim/trace.hh"
#include "workloads/pointer_chase.hh"

using namespace flick;
using namespace flick::bench;
using workloads::PointerChaseList;

namespace
{

struct Config
{
    const char *name;
    Tick extra;
};

/** Time per call (averaged over @p calls), including interval work. */
double
timePerCallUs(FlickSystem &sys, Process &proc, const char *fn,
              PointerChaseList &list, VAddr &cursor, std::uint64_t n,
              int calls, Tick interval)
{
    (void)list;
    Tick t0 = sys.now();
    for (int i = 0; i < calls; ++i) {
        if (interval)
            sys.advanceTime(interval);
        cursor =
            sys.submit(proc, CallSpec(fn).withArgs({cursor, n})).wait();
    }
    return ticksToUs(sys.now() - t0) / calls;
}

void
runFigure(const char *title, Tick interval, const std::vector<
              std::uint64_t> &sweep, int calls)
{
    SystemConfig cfg;
    FlickSystem sys(cfg);
    Program prog;
    workloads::addMicrobench(prog);
    workloads::addPointerChaseKernels(prog);
    Process &proc = sys.load(prog);

    // Nodes randomly spread across the NxP storage (Section V-B).
    PointerChaseList list(sys, proc, 64 * 1024, 1ull << 30, 2020);
    sys.submit(proc, CallSpec("nxp_noop")).wait(); // one-time NxP stack

    const Config configs[] = {
        {"flick", 0},
        {"500us", us(500)},
        {"1ms", msec(1)},
    };

    std::vector<std::vector<std::string>> rows;
    double crossover = 0;
    double plateau = 0;
    for (std::uint64_t n : sweep) {
        VAddr cursor = list.head();
        sys.setExtraRoundTripLatency(0);
        double baseline = timePerCallUs(sys, proc, "chase_host", list,
                                        cursor, n, calls, interval);
        std::vector<std::string> row = {
            std::to_string(n), fmtUs(baseline)};
        double flick_norm = 0;
        for (const Config &c : configs) {
            sys.setExtraRoundTripLatency(c.extra);
            double t = timePerCallUs(sys, proc, "chase_nxp", list,
                                     cursor, n, calls, interval);
            double norm = baseline / t;
            row.push_back(fmtX(norm));
            if (c.extra == 0)
                flick_norm = norm;
        }
        rows.push_back(std::move(row));
        if (crossover == 0 && flick_norm >= 1.0)
            crossover = static_cast<double>(n);
        plateau = flick_norm;
    }

    printTable(title,
               {"accesses/migration", "baseline(us/call)",
                "flick(norm)", "500us(norm)", "1ms(norm)"},
               rows);
    std::printf("flick crossover: %g accesses/migration; normalized "
                "performance at %llu accesses: %.2fx\n",
                crossover, (unsigned long long)sweep.back(), plateau);
    // The exact simulated time, on stderr so the table stays as it was:
    // a charge one tick (1 ps) longer shows here, not in the table.
    std::fprintf(stderr, "simulated ticks: %llu\n",
                 (unsigned long long)sys.now());
}

/**
 * Dump a Perfetto trace of a short pointer-chase run (--trace-json=FILE):
 * a handful of chase_nxp migrations at 64 accesses each, traced end to
 * end so the host->NxP->host arc of every migration is visible in
 * ui.perfetto.dev (EXPERIMENTS.md "Regenerating the Perfetto trace").
 */
int
dumpChaseTrace(const std::string &path)
{
    SystemConfig cfg;
    cfg.withTrace();
    FlickSystem sys(cfg);
    Program prog;
    workloads::addMicrobench(prog);
    workloads::addPointerChaseKernels(prog);
    Process &proc = sys.load(prog);
    PointerChaseList list(sys, proc, 64 * 1024, 1ull << 30, 2020);
    sys.submit(proc, CallSpec("nxp_noop")).wait();

    sys.debug().trace().reset(); // drop warmup; keep the chase itself
    VAddr cursor = list.head();
    for (int i = 0; i < 8; ++i)
        cursor = sys.submit(proc, CallSpec("chase_nxp")
                                      .withArgs({cursor, 64}))
                     .wait();

    if (!sys.debug().trace().dumpJson(path)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    std::printf("pointer-chase perfetto trace (8 migrations, 64 "
                "accesses each) written to %s\n",
                path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool full = flagValue(argc, argv, "full", 0) != 0;
    int calls = static_cast<int>(flagValue(argc, argv, "calls", 20));
    std::string trace_json = flagString(argc, argv, "trace-json", "");
    if (!trace_json.empty())
        return dumpChaseTrace(trace_json);

    std::vector<std::uint64_t> sweep;
    if (full) {
        // The paper's exact sweep: 4..1024 in increments of 4.
        for (std::uint64_t n = 4; n <= 1024; n += 4)
            sweep.push_back(n);
    } else {
        for (std::uint64_t n = 4; n <= 64; n += 4)
            sweep.push_back(n);
        for (std::uint64_t n = 96; n <= 256; n += 32)
            sweep.push_back(n);
        for (std::uint64_t n = 384; n <= 1024; n += 128)
            sweep.push_back(n);
    }

    runFigure("Figure 5a: frequent migration (no inter-call delay); "
              "paper: crossover ~32, plateau ~2.6x",
              0, sweep, calls);
    runFigure("Figure 5b: one migration per 100us of host work; "
              "paper: benefit reduced to ~2x",
              us(100), sweep, calls);
    return 0;
}
