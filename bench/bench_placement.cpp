/**
 * @file
 * Placement-policy and fabric-scaling benchmark (DESIGN.md §11-§12,
 * EXPERIMENTS.md).
 *
 * Phase 1 runs the same mixed workload — batches of concurrent threads
 * issuing hot xorshift kernels, an occasional long-occupancy cold
 * call, tiny adds that never amortize a crossing, and near-data sums
 * over a device-0 buffer — under each of the three shipped placement
 * policies and reports throughput (calls/s of simulated time) and p99
 * call latency. Expected shape:
 *
 *   - static       : everything queues on device 0; the cold call
 *                    convoys the batch.
 *   - least-loaded : hot/tiny calls spread across the device twins;
 *                    p99 drops and throughput scales.
 *   - profile-guided: additionally steers mix_tiny to its "__host"
 *                    twin after one probe, while the near-data sum
 *                    stays on its device.
 *
 * Phase 2 (at --devices >= 4) sweeps least-loaded over {2, 4, ...,
 * devices} NxPs at a fixed thread count and reports the scaling
 * curve; aggregate calls/s must be monotonically non-decreasing.
 *
 * --workload=sharded (DESIGN.md §15, EXPERIMENTS.md) switches to the
 * NUMA-sharded data-residency study instead: per-device data shards
 * plus host-resident gather regions, swept over words-per-call under
 * queue-depth-only and residency-aware placement — the Fig. 5-style
 * accesses-per-migration crossover, at page rather than thread
 * granularity.
 *
 * Flags: --threads=N (default 8), --batches=N (default 6),
 * --hot-rounds=N (default 2000), --devices=N (default 2, any count),
 * --workload=mix|sharded, --smoke (reduced sizes for CI), --json=FILE
 * (machine-readable dump). Exits 1 if any phase's gate fails.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <vector>

#include "bench/bench_util.hh"
#include "workloads/placement_mix.hh"
#include "workloads/sharded.hh"

using namespace flick;
using namespace flick::bench;

namespace
{

struct PolicyResult
{
    double callsPerSec = 0;
    double p99Us = 0;
    std::vector<std::uint64_t> devCalls;
    std::uint64_t hostSteered = 0;
    std::uint64_t rebalanced = 0;
};

struct Params
{
    unsigned threads = 8;
    unsigned batches = 6;
    std::uint64_t hotRounds = 2000;
    unsigned devices = 2;
    std::uint64_t nearWords = 64;
};

std::string
joinCounts(const std::vector<std::uint64_t> &v)
{
    std::string s;
    for (std::size_t i = 0; i < v.size(); ++i)
        s += (i ? "/" : "") + strfmt("%llu", (unsigned long long)v[i]);
    return s;
}

PolicyResult
runPolicy(PlacementKind kind, const Params &p)
{
    FlickSystem sys(SystemConfig{}
                        .withDevices(p.devices)
                        .withPlacement(kind));
    Program prog;
    workloads::addPlacementMix(prog, p.devices);
    Process &proc = sys.load(prog);

    VAddr buf = sys.nxpMalloc(p.nearWords * 8, 16, 0);
    std::uint64_t near_sum = 0;
    for (std::uint64_t i = 0; i < p.nearWords; ++i) {
        sys.writeVa(proc, buf + i * 8, 5 * i + 3);
        near_sum += 5 * i + 3;
    }

    std::vector<Task *> tasks;
    for (unsigned i = 0; i < p.threads; ++i)
        tasks.push_back(&sys.spawnThread(proc));

    // Warm-up: one-time NxP stack setup, and the profile-guided
    // policy's first device probes.
    sys.submit(proc, CallSpec("mix_hot").withArgs({1, 10})
                         .onThread(*tasks[0]))
        .wait();
    sys.submit(proc, CallSpec("mix_tiny").withArgs({1, 2})
                         .onThread(*tasks[0]))
        .wait();
    sys.submit(proc, CallSpec("mix_near").withArgs({buf, p.nearWords})
                         .onThread(*tasks[0]))
        .wait();

    std::vector<double> latencies;
    Tick start = sys.now();
    for (unsigned b = 0; b < p.batches; ++b) {
        Tick batch_start = sys.now();
        std::vector<CallFuture> futs;
        std::vector<std::uint64_t> expect;
        for (unsigned i = 0; i < p.threads; ++i) {
            std::uint64_t slot = b * p.threads + i + 1;
            if (slot % 5 == 4) {
                futs.push_back(sys.submit(
                    proc, CallSpec("mix_tiny").withArgs({slot, 1})
                              .onThread(*tasks[i])));
                expect.push_back(slot + 1);
            } else if (slot % 17 == 9) {
                futs.push_back(sys.submit(
                    proc,
                    CallSpec("mix_cold").withArgs({slot, p.hotRounds * 4})
                        .onThread(*tasks[i])));
                expect.push_back(
                    workloads::mixHotRef(slot, p.hotRounds * 4));
            } else if (slot % 7 == 5) {
                futs.push_back(sys.submit(
                    proc,
                    CallSpec("mix_near").withArgs({buf, p.nearWords})
                        .onThread(*tasks[i])));
                expect.push_back(near_sum);
            } else {
                futs.push_back(sys.submit(
                    proc, CallSpec("mix_hot").withArgs({slot, p.hotRounds})
                              .onThread(*tasks[i])));
                expect.push_back(
                    workloads::mixHotRef(slot, p.hotRounds));
            }
        }
        // Poll in 1us quanta so each call's completion tick (and thus
        // its latency) is observed, not just the batch makespan.
        std::vector<bool> seen(futs.size(), false);
        std::size_t done = 0;
        while (done < futs.size()) {
            sys.advanceTime(us(1));
            for (std::size_t i = 0; i < futs.size(); ++i) {
                if (seen[i] || !futs[i].done())
                    continue;
                seen[i] = true;
                ++done;
                latencies.push_back(
                    ticksToUs(sys.now() - batch_start));
            }
        }
        for (std::size_t i = 0; i < futs.size(); ++i) {
            if (futs[i].status() != CallStatus::ok ||
                futs[i].value() != expect[i]) {
                std::fprintf(stderr,
                             "FAIL: %s batch %u call %zu: status %s "
                             "value %llu (want %llu)\n",
                             placementKindName(kind), b, i,
                             callStatusName(futs[i].status()),
                             (unsigned long long)futs[i].value(),
                             (unsigned long long)expect[i]);
                std::exit(1);
            }
        }
    }
    Tick makespan = sys.now() - start;

    PolicyResult r;
    double secs = ticksToUs(makespan) * 1e-6;
    r.callsPerSec = (double)(p.batches * p.threads) / secs;
    std::sort(latencies.begin(), latencies.end());
    r.p99Us = latencies[std::min(latencies.size() - 1,
                                 (latencies.size() * 99 + 99) / 100 - 1)];
    const StatGroup &st = sys.debug().engine().stats();
    for (unsigned d = 0; d < p.devices; ++d)
        r.devCalls.push_back(
            st.get(strfmt("host_to_nxp_calls_dev%u", d)));
    r.hostSteered = st.get("placement.host_steered");
    r.rebalanced = st.get("placement.rebalanced");
    return r;
}

/**
 * Fabric-scaling point: a pure mix_hot storm (no cold-call convoy, no
 * device-0-pinned near calls) under least-loaded placement, so the
 * aggregate throughput is bounded by the fabric, not by the longest
 * single call. Returns calls/s and the per-device spread.
 */
PolicyResult
runScalePoint(unsigned devices, unsigned threads, unsigned batches,
              std::uint64_t rounds)
{
    FlickSystem sys(SystemConfig{}
                        .withDevices(devices)
                        .withPlacement(PlacementKind::leastLoaded));
    Program prog;
    workloads::addPlacementMix(prog, devices);
    Process &proc = sys.load(prog);

    std::vector<Task *> tasks;
    for (unsigned i = 0; i < threads; ++i)
        tasks.push_back(&sys.spawnThread(proc));
    sys.submit(proc, CallSpec("mix_hot").withArgs({1, 10})
                         .onThread(*tasks[0]))
        .wait();

    Tick start = sys.now();
    for (unsigned b = 0; b < batches; ++b) {
        std::vector<CallFuture> futs;
        for (unsigned i = 0; i < threads; ++i) {
            std::uint64_t slot = b * threads + i + 1;
            futs.push_back(sys.submit(
                proc, CallSpec("mix_hot").withArgs({slot, rounds})
                          .onThread(*tasks[i])));
        }
        for (std::size_t i = 0; i < futs.size(); ++i) {
            std::uint64_t slot = b * threads + i + 1;
            if (futs[i].wait() != workloads::mixHotRef(slot, rounds)) {
                std::fprintf(stderr,
                             "FAIL: scaling run bad value at %u "
                             "devices, slot %llu\n",
                             devices, (unsigned long long)slot);
                std::exit(1);
            }
        }
    }
    PolicyResult r;
    double secs = ticksToUs(sys.now() - start) * 1e-6;
    r.callsPerSec = (double)(batches * threads) / secs;
    const StatGroup &st = sys.debug().engine().stats();
    for (unsigned d = 0; d < devices; ++d)
        r.devCalls.push_back(
            st.get(strfmt("host_to_nxp_calls_dev%u", d)));
    return r;
}

// --- The NUMA-sharded data-residency study (--workload=sharded) ------

enum class ShardedMode
{
    queueDepth,  //!< least-loaded: blind to where the data lives.
    residency,   //!< residency-aware placement.
};

const char *
shardedModeName(ShardedMode m)
{
    switch (m) {
      case ShardedMode::queueDepth: return "queue-depth-only";
      case ShardedMode::residency: return "residency-aware";
    }
    return "?";
}

struct ShardedResult
{
    double callsPerSec = 0;
    Tick makespan = 0;
    std::vector<std::uint64_t> devCalls;
};

/**
 * One sharded run: a sum shard per device, resident in that device's
 * DRAM, hit by hint-free shard_sum calls the policy must place; plus a
 * host-resident gather region per thread, hit by shard_gather calls
 * pinned (hinted) to thread%devices — identical traffic in every mode.
 * @p words is the working set each call reads: the
 * accesses-per-migration knob.
 */
ShardedResult
runSharded(ShardedMode mode, const Params &p, std::uint64_t words)
{
    FlickSystem sys(SystemConfig{}.withDevices(p.devices).withPlacement(
        mode == ShardedMode::queueDepth ? PlacementKind::leastLoaded
                                        : PlacementKind::residencyAware));
    Program prog;
    workloads::addShardedKernels(prog, p.devices);
    Process &proc = sys.load(prog);

    // Sum shards: one per device 1..N-1. Device 0's window is excluded
    // on purpose: under the default address map its BAR sits inside
    // every peer's local-DRAM shadow (DESIGN.md §15), so data there is
    // host/device-0-private and a data-blind policy dereferencing it
    // from another NxP would read the wrong DRAM. Devices >= 1 are
    // peer-addressable from the whole fabric.
    unsigned nshards = p.devices - 1;
    std::vector<VAddr> shard(nshards);
    std::vector<std::uint64_t> ssum(nshards);
    for (unsigned s = 0; s < nshards; ++s) {
        shard[s] = sys.nxpMalloc(words * 8, 4096, s + 1);
        for (std::uint64_t i = 0; i < words; ++i)
            sys.writeVa(proc, shard[s] + i * 8, workloads::shardWord(s, i));
        ssum[s] = workloads::shardSumRef(s, 0, words);
    }

    // Gather regions: one per thread, host-resident. The kernel has no
    // host twin, so every call pays bridge reads.
    std::vector<Task *> tasks;
    std::vector<VAddr> gat(p.threads);
    std::vector<std::uint64_t> gsum(p.threads);
    for (unsigned i = 0; i < p.threads; ++i) {
        tasks.push_back(&sys.spawnThread(proc));
        gat[i] = sys.hostMalloc(proc, words * 8, 4096);
        for (std::uint64_t j = 0; j < words; ++j)
            sys.writeVa(proc, gat[i] + j * 8,
                        workloads::shardWord(100 + i, j));
        gsum[i] = workloads::shardSumRef(100 + i, 0, words);
    }

    // Warm-up: NxP stack setup on the calling thread.
    sys.submit(proc, CallSpec("shard_sum").withArgs({shard[0], words})
                         .onThread(*tasks[0]))
        .wait();

    Tick start = sys.now();
    for (unsigned b = 0; b < p.batches; ++b) {
        std::vector<CallFuture> futs;
        std::vector<std::uint64_t> expect;
        for (unsigned i = 0; i < p.threads; ++i) {
            // The shard a sum call reads rotates per batch, so a policy
            // that ignores data placement keeps landing calls on the
            // wrong device; gather pinning stays fixed per thread.
            unsigned s = (i + b) % nshards;
            if ((b + i) % 2 == 0) {
                futs.push_back(sys.submit(
                    proc, CallSpec("shard_sum").withArgs({shard[s], words})
                              .onThread(*tasks[i])));
                expect.push_back(ssum[s]);
            } else {
                futs.push_back(sys.submit(
                    proc,
                    CallSpec("shard_gather").withArgs({gat[i], words})
                        .withPlacementHint(i % p.devices)
                        .onThread(*tasks[i])));
                expect.push_back(gsum[i]);
            }
        }
        for (std::size_t i = 0; i < futs.size(); ++i) {
            futs[i].wait();
            if (futs[i].status() != CallStatus::ok ||
                futs[i].value() != expect[i]) {
                std::fprintf(stderr,
                             "FAIL: sharded %s W=%llu batch %u call %zu: "
                             "status %s value %llu (want %llu)\n",
                             shardedModeName(mode),
                             (unsigned long long)words, b, i,
                             callStatusName(futs[i].status()),
                             (unsigned long long)futs[i].value(),
                             (unsigned long long)expect[i]);
                std::exit(1);
            }
        }
    }
    Tick makespan = sys.now() - start;

    ShardedResult r;
    r.makespan = makespan;
    double secs = ticksToUs(makespan) * 1e-6;
    r.callsPerSec = (double)(p.batches * p.threads) / secs;
    const StatGroup &st = sys.debug().engine().stats();
    for (unsigned d = 0; d < p.devices; ++d)
        r.devCalls.push_back(
            st.get(strfmt("host_to_nxp_calls_dev%u", d)));
    return r;
}

/** The sharded study: sweep words/call across both modes. */
int
runShardedStudy(const Params &p, bool smoke, const std::string &json)
{
    std::vector<std::uint64_t> sweep;
    if (smoke)
        sweep = {64};
    else
        sweep = {4, 16, 32, 64, 128};

    const ShardedMode modes[] = {ShardedMode::queueDepth,
                                 ShardedMode::residency};
    std::vector<std::vector<ShardedResult>> res; // [sweep][mode]
    std::vector<std::vector<std::string>> rows;
    for (std::uint64_t w : sweep) {
        res.emplace_back();
        for (ShardedMode m : modes) {
            res.back().push_back(runSharded(m, p, w));
            // The exact simulated makespan and where the calls ran, on
            // stderr so the table stays as it was: one tick or one call
            // placed elsewhere shows here, not in the rounded c/s.
            std::fprintf(stderr,
                         "%s W=%llu simulated ticks: %llu, "
                         "per-device calls: %s\n",
                         shardedModeName(m), (unsigned long long)w,
                         (unsigned long long)res.back().back().makespan,
                         joinCounts(res.back().back().devCalls).c_str());
        }
        const auto &r = res.back();
        rows.push_back(
            {strfmt("%llu", (unsigned long long)w),
             strfmt("%.0f", r[0].callsPerSec),
             strfmt("%.0f", r[1].callsPerSec),
             fmtX(r[1].callsPerSec / r[0].callsPerSec)});
    }
    printTable(
        strfmt("Sharded residency study: %u threads x %u batches, %u "
               "device(s)",
               p.threads, p.batches, p.devices),
        {"Words/call", "queue-depth c/s", "residency c/s", "res/qd"},
        rows);

    if (!json.empty()) {
        std::ofstream os(json);
        if (!os) {
            std::fprintf(stderr, "FAIL: cannot write %s\n", json.c_str());
            return 1;
        }
        os << "{\n  \"workload\": \"sharded\", \"threads\": " << p.threads
           << ", \"batches\": " << p.batches
           << ", \"devices\": " << p.devices << ",\n  \"points\": [";
        for (std::size_t i = 0; i < sweep.size(); ++i) {
            os << (i ? "," : "") << "\n    {\"words\": " << sweep[i];
            for (int m = 0; m < 2; ++m)
                os << ", \"" << shardedModeName(modes[m])
                   << "\": " << res[i][m].callsPerSec;
            os << "}";
        }
        os << "\n  ]\n}\n";
        std::printf("wrote %s\n", json.c_str());
    }

    // Gate: on the largest point, where localization matters most,
    // residency-aware placement must beat queue-depth-only.
    const auto &last = res.back();
    if (last[1].callsPerSec <= last[0].callsPerSec) {
        std::fprintf(stderr,
                     "FAIL: residency-aware (%.0f c/s) did not beat "
                     "queue-depth-only (%.0f c/s)\n",
                     last[1].callsPerSec, last[0].callsPerSec);
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Params p;
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--smoke")
            smoke = true;
    if (smoke) {
        p.threads = 4;
        p.batches = 3;
        p.hotRounds = 600;
    }
    // Zero threads or batches leaves nothing to place.
    p.threads = flagValue(argc, argv, "threads", p.threads, 1u);
    p.batches = flagValue(argc, argv, "batches", p.batches, 1u);
    p.hotRounds = flagValue(argc, argv, "hot-rounds", p.hotRounds);
    p.devices = flagValue(argc, argv, "devices", p.devices);
    if (p.devices == 0) {
        std::fprintf(stderr, "FAIL: --devices must be >= 1\n");
        return 1;
    }
    std::string json = flagString(argc, argv, "json", "");

    std::string workload = flagString(argc, argv, "workload", "mix");
    if (workload == "sharded") {
        Params sp = p;
        // Shards live on devices 1..N-1 (the peer-addressable windows),
        // so the study needs at least three devices to actually split
        // data across multiple NxP DRAMs.
        if (sp.devices < 3)
            sp.devices = 3;
        return runShardedStudy(sp, smoke, json);
    }
    if (workload != "mix") {
        std::fprintf(stderr, "FAIL: unknown --workload=%s\n",
                     workload.c_str());
        return 1;
    }

    const PlacementKind kinds[] = {PlacementKind::staticPlacement,
                                   PlacementKind::leastLoaded,
                                   PlacementKind::profileGuided};
    PolicyResult results[3];
    for (int k = 0; k < 3; ++k)
        results[k] = runPolicy(kinds[k], p);

    std::vector<std::vector<std::string>> rows;
    for (int k = 0; k < 3; ++k) {
        const PolicyResult &r = results[k];
        rows.push_back(
            {placementKindName(kinds[k]),
             strfmt("%.0f", r.callsPerSec), fmtUs(r.p99Us),
             joinCounts(r.devCalls),
             strfmt("%llu", (unsigned long long)r.hostSteered),
             strfmt("%llu", (unsigned long long)r.rebalanced)});
    }
    printTable(
        strfmt("Placement policies: mixed workload, %u threads x %u "
               "batches, %u device(s)",
               p.threads, p.batches, p.devices),
        {"Policy", "Calls/s", "p99", "per-device calls", "host-steered",
         "rebalanced"},
        rows);
    std::printf("\nSpeedup over static: least-loaded %s, "
                "profile-guided %s\n",
                fmtX(results[1].callsPerSec / results[0].callsPerSec)
                    .c_str(),
                fmtX(results[2].callsPerSec / results[0].callsPerSec)
                    .c_str());

    // Phase 2: least-loaded scaling curve across the fabric.
    std::vector<unsigned> scaleDevs;
    std::vector<PolicyResult> scale;
    if (p.devices >= 4) {
        // The curve needs enough concurrency to expose the widest
        // fabric (fewer threads than devices would flatline the tail)
        // and calls long enough that submission isn't the bottleneck.
        unsigned sthreads = std::max(16u, 2 * p.devices);
        std::uint64_t srounds = std::max<std::uint64_t>(p.hotRounds, 2000);
        for (unsigned n = 2; n <= p.devices; n *= 2)
            scaleDevs.push_back(n);
        if (scaleDevs.back() != p.devices)
            scaleDevs.push_back(p.devices);
        std::vector<std::vector<std::string>> srows;
        for (unsigned n : scaleDevs) {
            scale.push_back(
                runScalePoint(n, sthreads, p.batches, srounds));
            srows.push_back({strfmt("%u", n),
                             strfmt("%.0f", scale.back().callsPerSec),
                             joinCounts(scale.back().devCalls)});
        }
        printTable(
            strfmt("Least-loaded scaling: %u threads x %u batches of "
                   "mix_hot(%llu)",
                   sthreads, p.batches, (unsigned long long)srounds),
            {"Devices", "Calls/s", "per-device calls"}, srows);
    }

    if (!json.empty()) {
        std::ofstream os(json);
        if (!os) {
            std::fprintf(stderr, "FAIL: cannot write %s\n",
                         json.c_str());
            return 1;
        }
        os << "{\n  \"threads\": " << p.threads
           << ", \"batches\": " << p.batches
           << ", \"hot_rounds\": " << p.hotRounds
           << ", \"devices\": " << p.devices << ",\n  \"policies\": [";
        for (int k = 0; k < 3; ++k) {
            const PolicyResult &r = results[k];
            os << (k ? "," : "") << "\n    {\"name\": \""
               << placementKindName(kinds[k])
               << "\", \"calls_per_sec\": " << r.callsPerSec
               << ", \"p99_us\": " << r.p99Us << ", \"dev_calls\": [";
            for (std::size_t d = 0; d < r.devCalls.size(); ++d)
                os << (d ? ", " : "") << r.devCalls[d];
            os << "], \"host_steered\": " << r.hostSteered
               << ", \"rebalanced\": " << r.rebalanced << "}";
        }
        os << "\n  ],\n  \"scaling\": [";
        for (std::size_t i = 0; i < scale.size(); ++i)
            os << (i ? "," : "") << "\n    {\"devices\": " << scaleDevs[i]
               << ", \"calls_per_sec\": " << scale[i].callsPerSec << "}";
        os << "\n  ]\n}\n";
        std::printf("wrote %s\n", json.c_str());
    }

    bool ok = true;
    if (p.devices >= 2 &&
        results[1].callsPerSec <= results[0].callsPerSec) {
        std::fprintf(stderr, "FAIL: least-loaded did not beat static "
                             "throughput with %u devices\n",
                     p.devices);
        ok = false;
    }
    if (results[2].hostSteered == 0) {
        std::fprintf(stderr, "FAIL: profile-guided never steered a "
                             "call to a host twin\n");
        ok = false;
    }
    for (std::size_t i = 1; i < scale.size(); ++i) {
        if (scale[i].callsPerSec < scale[i - 1].callsPerSec * 0.999) {
            std::fprintf(stderr,
                         "FAIL: least-loaded calls/s fell from %u to "
                         "%u devices (%.0f -> %.0f)\n",
                         scaleDevs[i - 1], scaleDevs[i],
                         scale[i - 1].callsPerSec,
                         scale[i].callsPerSec);
            ok = false;
        }
    }
    return ok ? 0 : 1;
}
