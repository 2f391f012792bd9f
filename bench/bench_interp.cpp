/**
 * @file
 * Interpreter fast-path benchmark (DESIGN.md §13).
 *
 * Unlike the other benches, this one measures *simulator* speed, not
 * simulated time: the decoded-instruction cache and threaded dispatch
 * exist so long-running workloads (BFS, kvstore, the fabric sweeps)
 * finish in reasonable wall-clock. Two legs:
 *
 *   1. Bare-core execute loops. Each interpreter spins a tight ALU
 *      loop and reports simulated MIPS (simulated instructions per
 *      wall-clock second) with the decode cache on vs off. The cached
 *      run must be >= 5x the reference run on both ISAs, and both
 *      runs must retire the same instruction count, tick count, and
 *      final register file — the cache is a pure speed optimization.
 *
 *   2. An 8-device fabric storm (the bench_placement scaling
 *      workload) run end to end with the cache on vs off. Simulated
 *      time and every call result must match exactly; wall-clock is
 *      reported as the before/after row for EXPERIMENTS.md.
 *
 * Flags: --iters=N (loop iterations, default 2000000), --reps=N
 * (timed repetitions, best-of, default 3), --devices=N (default 8),
 * --threads=N (default 16), --batches=N (default 2), --rounds=N
 * (default 2000), --smoke (tiny sizes, identity checks only — the
 * 5x gate needs full-size runs to time stably).
 * Exits 1 if any identity or speedup gate fails, and 2 on a malformed
 * flag value (every count but --rounds must be at least 1).
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "isa/hx64/core.hh"
#include "isa/hx64/insn.hh"
#include "isa/rv64/core.hh"
#include "isa/rv64/encoding.hh"
#include "vm/page_table.hh"
#include "workloads/placement_mix.hh"

using namespace flick;
using namespace flick::bench;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** A bare core's world: one executable page, nothing else. */
struct LoopEnv
{
    LoopEnv() : mem(timing, platform), alloc("bench", 0x100000, 16 << 20),
                ptm(mem, alloc)
    {
        cr3 = ptm.createRoot();
        text_pa = alloc.allocate(4096);
        ptm.map(cr3, codeVa, text_pa, 4096, PageSize::size4K, pte::user);
    }

    static constexpr VAddr codeVa = 0x400000;

    void
    setCode(const void *bytes, std::size_t len)
    {
        mem.hostDram().write(text_pa, bytes, len);
    }

    TimingConfig timing;
    PlatformConfig platform;
    MemSystem mem;
    PhysAllocator alloc;
    PageTableManager ptm;
    Addr cr3 = 0;
    Addr text_pa = 0;
};

/** One mode's measurement: wall-clock best-of plus the final state. */
struct LoopResult
{
    double mips = 0;
    Fault stop = Fault::none;
    Tick elapsed = 0;
    std::uint64_t instructions = 0;
    CoreContext context{};

    bool
    sameArchState(const LoopResult &o) const
    {
        return stop == o.stop && elapsed == o.elapsed &&
               instructions == o.instructions && context == o.context;
    }
};

CoreParams
coreParams(const char *name, Requester req, std::uint64_t freq,
           bool decode_cache)
{
    CoreParams p;
    p.name = name;
    p.requester = req;
    p.freqHz = freq;
    p.decodeCache = decode_cache;
    return p;
}

/**
 * Time @p reps runs of a prepared core, taking the fastest to shave
 * scheduler noise. @p reset rewinds architectural state between runs;
 * the first (untimed) run warms the decode cache, TLBs, and sparse
 * memory so every timed run sees steady state.
 */
template <typename CoreT, typename ResetFn>
LoopResult
timeLoop(CoreT &core, ResetFn reset, std::uint64_t limit, int reps)
{
    reset(core);
    core.run(limit); // warm-up: pays the cold TLB walks once
    reset(core);
    RunResult steady = core.run(limit);
    LoopResult r;
    r.stop = steady.stop;
    r.elapsed = steady.elapsed;
    r.instructions = steady.instructions;
    r.context = core.saveContext();

    double best = 1e30;
    for (int i = 0; i < reps; ++i) {
        reset(core);
        auto t0 = std::chrono::steady_clock::now();
        RunResult run = core.run(limit);
        double secs = secondsSince(t0);
        best = std::min(best, secs);
        if (run.stop != r.stop || run.elapsed != r.elapsed ||
            run.instructions != r.instructions) {
            std::fprintf(stderr,
                         "FAIL: %s rep %d not reproducible "
                         "(instructions %llu vs %llu)\n",
                         core.stats().name().c_str(), i,
                         (unsigned long long)run.instructions,
                         (unsigned long long)r.instructions);
            std::exit(1);
        }
    }
    r.mips = (double)r.instructions / best / 1e6;
    return r;
}

/** addi t0, t0, 1; bne t0, t1, loop; ebreak. */
LoopResult
runRv64Loop(bool cached, std::uint64_t iters, int reps)
{
    using namespace rv64;
    LoopEnv env;
    std::uint32_t code[3] = {
        encI(opImm, 5, 0, 5, 1),
        encB(opBranch, 1, 5, 6, -4),
        0x00100073, // ebreak
    };
    env.setCode(code, sizeof code);
    Rv64Core core(coreParams("nxp", Requester::nxpCore, 200'000'000,
                             cached),
                  env.mem);
    core.mmu().setCr3(env.cr3);
    auto reset = [&](Rv64Core &c) {
        c.setReg(5, 0);
        c.setReg(6, iters);
        c.setPc(LoopEnv::codeVa);
    };
    return timeLoop(core, reset, 2 * iters + 16, reps);
}

/** add rax, 1; cmp rax, rcx; jne loop; halt. */
LoopResult
runHx64Loop(bool cached, std::uint64_t iters, int reps)
{
    using namespace hx64;
    LoopEnv env;
    std::uint8_t code[] = {
        opAddI, 0x00, 0x01, 0x00, 0x00, 0x00, // add rax, 1
        opCmpRR, 0x01,                        // cmp rax, rcx
        opJcc, ccNe, 0xf2, 0xff, 0xff, 0xff,  // jne -14 -> loop
        opHalt,
    };
    env.setCode(code, sizeof code);
    Hx64Core core(coreParams("host", Requester::hostCore,
                             2'400'000'000ull, cached),
                  env.mem);
    core.mmu().setCr3(env.cr3);
    auto reset = [&](Hx64Core &c) {
        c.setReg(rax, 0);
        c.setReg(rcx, iters);
        c.setPc(LoopEnv::codeVa);
    };
    return timeLoop(core, reset, 3 * iters + 16, reps);
}

/** End-to-end fabric storm: wall-clock plus the simulated makespan. */
struct FabricResult
{
    double wallSecs = 0;
    Tick makespan = 0;
    std::vector<std::uint64_t> values;
};

FabricResult
runFabric(bool cached, unsigned devices, unsigned threads,
          unsigned batches, std::uint64_t rounds)
{
    SystemConfig config = SystemConfig{}
                              .withDevices(devices)
                              .withPlacement(PlacementKind::leastLoaded);
    if (!cached)
        config.withDecodeCache(false);
    FlickSystem sys(config);
    Program prog;
    workloads::addPlacementMix(prog, devices);
    Process &proc = sys.load(prog);

    std::vector<Task *> tasks;
    for (unsigned i = 0; i < threads; ++i)
        tasks.push_back(&sys.spawnThread(proc));
    sys.submit(proc, CallSpec("mix_hot").withArgs({1, 10})
                         .onThread(*tasks[0]))
        .wait();

    FabricResult r;
    Tick start = sys.now();
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned b = 0; b < batches; ++b) {
        std::vector<CallFuture> futs;
        for (unsigned i = 0; i < threads; ++i) {
            std::uint64_t slot = b * threads + i + 1;
            futs.push_back(sys.submit(
                proc, CallSpec("mix_hot").withArgs({slot, rounds})
                          .onThread(*tasks[i])));
        }
        for (auto &f : futs)
            f.wait();
        for (auto &f : futs)
            r.values.push_back(f.value());
    }
    r.wallSecs = secondsSince(t0);
    r.makespan = sys.now() - start;

    for (unsigned b = 0; b < batches; ++b) {
        for (unsigned i = 0; i < threads; ++i) {
            std::uint64_t slot = b * threads + i + 1;
            if (r.values[b * threads + i] !=
                workloads::mixHotRef(slot, rounds)) {
                std::fprintf(stderr,
                             "FAIL: fabric storm bad value at slot "
                             "%llu (%s)\n",
                             (unsigned long long)slot,
                             cached ? "cached" : "reference");
                std::exit(1);
            }
        }
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--smoke")
            smoke = true;

    std::uint64_t iters = smoke ? 20'000 : 2'000'000;
    int reps = smoke ? 1 : 3;
    unsigned devices = smoke ? 4 : 8;
    unsigned threads = smoke ? 8 : 16;
    unsigned batches = 2;
    std::uint64_t rounds = smoke ? 300 : 2000;
    // Zero iterations or "best of 0" would time nothing, and the fabric
    // storm needs a device, a thread and a batch.
    iters = flagValue(argc, argv, "iters", iters, std::uint64_t(1));
    reps = flagValue(argc, argv, "reps", reps, 1);
    devices = flagValue(argc, argv, "devices", devices, 1u);
    threads = flagValue(argc, argv, "threads", threads, 1u);
    batches = flagValue(argc, argv, "batches", batches, 1u);
    rounds = flagValue(argc, argv, "rounds", rounds);

    LoopResult rvRef = runRv64Loop(false, iters, reps);
    LoopResult rvCached = runRv64Loop(true, iters, reps);
    LoopResult hxRef = runHx64Loop(false, iters, reps);
    LoopResult hxCached = runHx64Loop(true, iters, reps);

    double rvX = rvCached.mips / rvRef.mips;
    double hxX = hxCached.mips / hxRef.mips;
    printTable(
        strfmt("Interpreter execute loop: simulated MIPS, %llu "
               "iterations (best of %d)",
               (unsigned long long)iters, reps),
        {"ISA", "Reference", "Cached", "Speedup", "Insns"},
        {{"rv64", strfmt("%.1f", rvRef.mips),
          strfmt("%.1f", rvCached.mips), fmtX(rvX),
          strfmt("%llu", (unsigned long long)rvCached.instructions)},
         {"hx64", strfmt("%.1f", hxRef.mips),
          strfmt("%.1f", hxCached.mips), fmtX(hxX),
          strfmt("%llu", (unsigned long long)hxCached.instructions)}});

    bool ok = true;
    if (!rvCached.sameArchState(rvRef)) {
        std::fprintf(stderr, "FAIL: rv64 cached run diverged from "
                             "reference\n");
        ok = false;
    }
    if (!hxCached.sameArchState(hxRef)) {
        std::fprintf(stderr, "FAIL: hx64 cached run diverged from "
                             "reference\n");
        ok = false;
    }
    // The halting instruction (ebreak/halt) executes but does not
    // retire, so the loop body alone is the retired count.
    if (rvCached.instructions != 2 * iters) {
        std::fprintf(stderr, "FAIL: rv64 loop retired %llu insns, "
                             "want %llu\n",
                     (unsigned long long)rvCached.instructions,
                     (unsigned long long)(2 * iters));
        ok = false;
    }
    if (hxCached.instructions != 3 * iters) {
        std::fprintf(stderr, "FAIL: hx64 loop retired %llu insns, "
                             "want %llu\n",
                     (unsigned long long)hxCached.instructions,
                     (unsigned long long)(3 * iters));
        ok = false;
    }

    FabricResult fabRef = runFabric(false, devices, threads, batches,
                                    rounds);
    FabricResult fabCached = runFabric(true, devices, threads, batches,
                                       rounds);
    printTable(
        strfmt("%u-device fabric storm: %u threads x %u batches of "
               "mix_hot(%llu)",
               devices, threads, batches, (unsigned long long)rounds),
        {"Mode", "Wall", "Sim ticks"},
        {{"reference", fmtSec(fabRef.wallSecs),
          strfmt("%llu", (unsigned long long)fabRef.makespan)},
         {"cached", fmtSec(fabCached.wallSecs),
          strfmt("%llu", (unsigned long long)fabCached.makespan)},
         {"speedup", fmtX(fabRef.wallSecs / fabCached.wallSecs), "-"}});

    if (fabCached.makespan != fabRef.makespan) {
        std::fprintf(stderr,
                     "FAIL: fabric storm simulated time diverged "
                     "(%llu vs %llu ticks)\n",
                     (unsigned long long)fabCached.makespan,
                     (unsigned long long)fabRef.makespan);
        ok = false;
    }
    if (fabCached.values != fabRef.values) {
        std::fprintf(stderr, "FAIL: fabric storm call results "
                             "diverged\n");
        ok = false;
    }

    // Wall-clock gates only run at full size; smoke runs are too
    // short to time stably but still prove tick identity end to end.
    if (!smoke) {
        if (rvX < 5.0) {
            std::fprintf(stderr, "FAIL: rv64 decode cache speedup "
                                 "%.2fx < 5x\n", rvX);
            ok = false;
        }
        if (hxX < 5.0) {
            std::fprintf(stderr, "FAIL: hx64 decode cache speedup "
                                 "%.2fx < 5x\n", hxX);
            ok = false;
        }
    }
    return ok ? 0 : 1;
}
