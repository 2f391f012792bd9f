/**
 * @file
 * Shared declarations of the repository benchmark (see README.md).
 *
 * The benchmark drives the simulator only through its public API: it
 * builds FlickSystems, loads programs, submits calls and reads the
 * counters, trace and event-queue totals the program already exposes.
 * Host time is measured around the benchmark's own calls into each
 * module; nothing inside src/ is instrumented.
 */

#ifndef FLICK_PERFBENCH_PERFBENCH_HH
#define FLICK_PERFBENCH_PERFBENCH_HH

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/trace.hh"

namespace perfbench
{

/** Counter name -> value, as dumpStats() prints them. */
using Counters = std::map<std::string, std::uint64_t>;

/** Workload size: the benchmark's own, or a tiny one for the self-test. */
enum class Size { full, tiny };

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    unsigned seconds = 30;
    bool trace = false;
    Size size = Size::full;
    std::string commit = "unknown";
};

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of @p v (0 when empty). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** One repetition of a workload on a freshly built system. */
struct RepResult
{
    // Host clock.
    double setupS = 0; //!< build + load + input + warm-up
    double loadS = 0;  //!< FlickSystem::load alone
    double inputS = 0; //!< input generation and upload alone
    double wallS = 0;  //!< the timed phase

    // Outcome of the timed phase.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0; //!< error status, shed, dropped or wrong value
    std::uint64_t wrong = 0;  //!< ok status but a value unlike the reference
    std::vector<std::string> gateErrors; //!< paper-number drift etc.

    // Simulated clock: exact, repeats run to run.
    flick::Tick simTicks = 0;
    std::vector<flick::Tick> callLat; //!< per-call latency of ok calls
    std::map<std::string, double> sim; //!< workload-specific results

    // Work counts over the timed phase (dumpStats deltas plus a few
    // counters dumpStats does not print).
    std::uint64_t events = 0;
    Counters counters;

    // Traced repetitions only.
    bool traced = false;
    std::vector<double> submitNs;
    double waitNs = 0;
    std::array<flick::TracePhaseStats, flick::numTracePhases> phases{};
    std::uint64_t h2dRingMax = 0;
    std::uint64_t d2hRingMax = 0;
    std::uint64_t inflightMax = 0;
    std::uint64_t dmaQueueMax = 0;
    double lateUsMax = 0; //!< open-loop generator lateness (simulated)
};

RepResult runRoundtrip(const Options &opts, bool traced);
RepResult runBfs(const Options &opts, bool traced);
RepResult runStorm(const Options &opts, bool traced);

/**
 * Isolated per-layer probes: each times one module's public function
 * on its own and returns host ns per operation, by metric name.
 */
std::map<std::string, double> runProbes(std::uint64_t seed, Size size);

/** Sum of counters whose name matches the ECMAScript regex @p pattern. */
std::uint64_t sumMatching(const Counters &c, const std::string &pattern);

} // namespace perfbench

#endif // FLICK_PERFBENCH_PERFBENCH_HH
