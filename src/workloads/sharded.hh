/**
 * @file
 * The NUMA-sharded workload (DESIGN.md §15, EXPERIMENTS.md).
 *
 * A function family whose working set is split into per-device shards —
 * the data layout that makes residency-aware placement matter. Used by
 * bench_placement --workload=sharded and the residency tests:
 *
 *   - shard_sum(ptr, words)    — sums a shard of 64-bit words; homed on
 *     device 0 with a "__dev<k>" twin per extra device AND a "__host"
 *     twin, so placement may land it anywhere. Called against shards
 *     living in different NxP DRAMs, a queue-depth-only policy pays a
 *     peer crossing per word on most calls; a residency-aware policy
 *     steers each call to the device holding its shard.
 *   - shard_gather(ptr, words) — the same sum kernel with device twins
 *     but NO host twin: the call always runs on some NxP, so data it
 *     reads from host DRAM crosses the bridge on every word.
 *
 * Deterministic fill: word i of shard s is shardWord(s, i), so every
 * mode of the benchmark can verify its sums against shardSumRef().
 */

#ifndef FLICK_WORKLOADS_SHARDED_HH
#define FLICK_WORKLOADS_SHARDED_HH

#include <cstdint>

#include "flick/program.hh"

namespace flick::workloads
{

/**
 * Add the sharded kernels to @p program. @p devices is the platform's
 * NxP count: a "__dev<k>" twin set is emitted for every device k >= 1.
 */
void addShardedKernels(Program &program, unsigned devices = 2);

/** Deterministic fill value: word @p i of shard @p s. */
inline std::uint64_t
shardWord(unsigned s, std::uint64_t i)
{
    return std::uint64_t(s) * 1000003 + i * 7 + 1;
}

/** Reference model of shard_sum / shard_gather over one shard. */
inline std::uint64_t
shardSumRef(unsigned s, std::uint64_t first_word, std::uint64_t words)
{
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < words; ++i)
        sum += shardWord(s, first_word + i);
    return sum;
}

} // namespace flick::workloads

#endif // FLICK_WORKLOADS_SHARDED_HH
