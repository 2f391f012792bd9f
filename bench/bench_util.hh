/**
 * @file
 * Shared helpers for the reproduction benchmarks: paper-style table
 * printing and common measurement loops.
 *
 * Every bench binary regenerates one table or figure from the paper's
 * evaluation (Section V) and prints the same rows/series the paper
 * reports, measured in *simulated* time on the modelled platform.
 * EXPERIMENTS.md records paper-vs-measured for each.
 */

#ifndef FLICK_BENCH_BENCH_UTIL_HH
#define FLICK_BENCH_BENCH_UTIL_HH

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "flick/system.hh"
#include "workloads/microbench.hh"

namespace flick::bench
{

/** Print a titled, column-aligned table. */
inline void
printTable(const std::string &title,
           const std::vector<std::string> &headers,
           const std::vector<std::vector<std::string>> &rows)
{
    std::vector<std::size_t> width(headers.size());
    for (std::size_t c = 0; c < headers.size(); ++c)
        width[c] = headers[c].size();
    for (const auto &row : rows)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    std::printf("\n=== %s ===\n", title.c_str());
    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c)
            std::printf("%-*s  ", static_cast<int>(width[c]),
                        row[c].c_str());
        std::printf("\n");
    };
    print_row(headers);
    std::size_t total = 0;
    for (std::size_t c = 0; c < headers.size(); ++c)
        total += width[c] + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto &row : rows)
        print_row(row);
}

/** Format microseconds with one decimal. */
inline std::string
fmtUs(double us_value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.1fus", us_value);
    return buf;
}

/** Format seconds with one decimal. */
inline std::string
fmtSec(double s)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.1fs", s);
    return buf;
}

/** Format a ratio like "2.6x". */
inline std::string
fmtX(double x)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.2fx", x);
    return buf;
}

/**
 * Average Host-NxP-Host round trip over @p calls no-op migrations
 * (the Section V-A methodology), excluding first-call stack setup.
 */
inline double
measureHostNxpHostUs(FlickSystem &sys, Process &proc, int calls)
{
    // Warm-up: one-time NxP stack allocation.
    sys.submit(proc, CallSpec("nxp_noop")).wait();
    Tick t0 = sys.now();
    for (int i = 0; i < calls; ++i)
        sys.submit(proc, CallSpec("nxp_noop")).wait();
    return ticksToUs(sys.now() - t0) / calls;
}

/**
 * Average NxP-Host-NxP round trip: the NxP calls an immediately
 * returning host function @p calls times; the outer host->NxP round
 * trip is subtracted, as in the paper.
 */
inline double
measureNxpHostNxpUs(FlickSystem &sys, Process &proc, int calls)
{
    sys.submit(proc, CallSpec("nxp_noop")).wait();
    Tick t0 = sys.now();
    sys.submit(proc, CallSpec("nxp_calls_host")
                         .withArgs({static_cast<std::uint64_t>(calls)}))
        .wait();
    Tick total = sys.now() - t0;
    Tick t1 = sys.now();
    sys.submit(proc, CallSpec("nxp_calls_host").withArgs({0})).wait();
    Tick outer = sys.now() - t1;
    return ticksToUs(total - outer) / calls;
}

/**
 * Parse a "--name=value" integer flag of type T (the type of
 * @p fallback). The value must be a whole decimal number that fits in T
 * and is at least @p lo; junk, a sign, overflow or a smaller value
 * names the flag on stderr and exits with status 2.
 */
template <typename T>
T
flagValue(int argc, char **argv, const std::string &name, T fallback,
          T lo = 0)
{
    static_assert(std::is_integral_v<T>, "integer flags only");
    std::string prefix = "--" + name + "=";
    for (int i = 1; i < argc; ++i) {
        std::string_view arg = argv[i];
        if (arg.rfind(prefix, 0) != 0)
            continue;
        std::string_view text = arg.substr(prefix.size());
        std::uint64_t v = 0;
        const char *end = text.data() + text.size();
        auto [stop, ec] = std::from_chars(text.data(), end, v);
        if (text.empty() || ec != std::errc() || stop != end ||
            v > static_cast<std::uint64_t>(std::numeric_limits<T>::max()) ||
            v < static_cast<std::uint64_t>(lo)) {
            std::fprintf(stderr,
                         "%s: bad value '%.*s' for --%s (want a whole "
                         "number from %llu to %llu)\n",
                         argv[0], static_cast<int>(text.size()),
                         text.data(), name.c_str(),
                         static_cast<unsigned long long>(lo),
                         static_cast<unsigned long long>(
                             std::numeric_limits<T>::max()));
            std::exit(2);
        }
        return static_cast<T>(v);
    }
    return fallback;
}

/** Parse "--name=value" style string flags. */
inline std::string
flagString(int argc, char **argv, const std::string &name,
           const std::string &fallback)
{
    std::string prefix = "--" + name + "=";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind(prefix, 0) == 0)
            return arg.substr(prefix.size());
    }
    return fallback;
}

} // namespace flick::bench

#endif // FLICK_BENCH_BENCH_UTIL_HH
