/**
 * @file
 * Isolated per-layer probes. Each probe calls one module's public
 * function in a loop on a small private fixture and reports the median
 * over several batches of host ns per operation. Inputs come from the
 * workload seed; every result feeds a sink so no call is optimised away.
 */

#include <algorithm>

#include "flick/descriptor.hh"
#include "isa/hx64/core.hh"
#include "isa/hx64/insn.hh"
#include "isa/rv64/core.hh"
#include "isa/rv64/encoding.hh"
#include "mem/dma.hh"
#include "perfbench.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "vm/mmu.hh"
#include "vm/page_table.hh"
#include "vm/phys_allocator.hh"

using namespace flick;

namespace perfbench
{

namespace
{

volatile std::uint64_t sink;

constexpr int batches = 7;

/** Median over batches of host ns per call of @p body(i), i < ops. */
template <typename Body>
double
nsPerOp(std::uint64_t ops, Body body)
{
    std::vector<double> per;
    for (int b = 0; b < batches; ++b) {
        auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < ops; ++i)
            body(i);
        per.push_back(std::chrono::duration<double, std::nano>(
                          Clock::now() - t0)
                          .count() /
                      double(ops));
    }
    return median(per);
}

void
probeDescriptor(Rng &rng, std::uint64_t ops,
                std::map<std::string, double> &out)
{
    MigrationDescriptor d;
    d.kind = DescriptorKind::hostToNxpCall;
    d.pid = 7;
    d.target = rng.next();
    d.cr3 = rng.next() & ~Addr(4095);
    d.nxpSp = rng.next();
    d.nargs = MigrationDescriptor::maxArgs;
    for (auto &a : d.args)
        a = rng.next();
    d.callId = rng.next();

    out["flick.descriptor.to_wire_ns"] = nsPerOp(ops, [&](std::uint64_t i) {
        d.seq = i;
        sink = d.toWire()[MigrationDescriptor::wireBytes - 1];
    });
    const MigrationDescriptor::Wire wire = d.toWire();
    out["flick.descriptor.wire_intact_ns"] =
        nsPerOp(ops, [&](std::uint64_t) {
            sink = MigrationDescriptor::wireIntact(wire);
        });
    out["flick.descriptor.from_wire_ns"] =
        nsPerOp(ops, [&](std::uint64_t) {
            sink = MigrationDescriptor::fromWire(wire).seq;
        });
}

void
probeEventQueue(Rng &rng, std::uint64_t ops,
                std::map<std::string, double> &out)
{
    std::vector<Tick> delay(4096);
    for (Tick &t : delay)
        t = 1 + rng.below(us(100));
    auto noop = [] {};

    for (unsigned depth : {4u, 256u}) {
        EventQueue q;
        for (unsigned i = 0; i < depth; ++i)
            q.scheduleIn(delay[i], "probe", noop);
        out["sim.event_queue.cycle_ns.d" + std::to_string(depth)] =
            nsPerOp(ops, [&](std::uint64_t i) {
                q.scheduleIn(delay[i & 4095], "probe", noop);
                q.step();
            });
        if (depth == 256) {
            out["sim.event_queue.run_until_ns.d256"] =
                nsPerOp(ops, [&](std::uint64_t i) {
                    q.scheduleIn(delay[i & 4095], "probe", noop);
                    q.runUntil(q.nextEventTime());
                });
        }
        q.run(); // drain: the queue frees entries as they run
    }
}

void
probeStats(std::uint64_t ops, std::map<std::string, double> &out)
{
    // Keys as the engine bumps them: string literals converted per call.
    StatGroup g("probe");
    out["sim.stats.inc_ns"] = nsPerOp(ops, [&](std::uint64_t i) {
        switch (i & 3) {
          case 0: g.inc("host_to_nxp_calls"); break;
          case 1: g.inc("doorbell_writes_dev0"); break;
          case 2: g.inc("host_nxp_host_roundtrips"); break;
          default: g.inc("calls_completed"); break;
        }
    });
    sink = g.get("calls_completed");
}

void
probeSparseMemory(Rng &rng, std::uint64_t ops,
                  std::map<std::string, double> &out)
{
    // A 16 MiB working set: 4096 backing chunks, like a BFS graph's.
    constexpr std::uint64_t span = 16ull << 20;
    SparseMemory m(1ull << 30);
    for (Addr a = 0; a < span; a += SparseMemory::chunkBytes)
        m.write64(a, a);
    std::vector<Addr> addr(8192);
    for (Addr &a : addr)
        a = rng.below(span / 8) * 8;

    out["mem.sparse.read8_ns.seq"] = nsPerOp(ops, [&](std::uint64_t i) {
        sink = m.read64((i * 8) % span);
    });
    out["mem.sparse.read8_ns.rand"] = nsPerOp(ops, [&](std::uint64_t i) {
        sink = m.read64(addr[i & 8191]);
    });
    out["mem.sparse.write8_ns.rand"] = nsPerOp(ops, [&](std::uint64_t i) {
        m.write64(addr[i & 8191], i);
    });
}

void
probeDma(std::uint64_t ops, std::map<std::string, double> &out)
{
    TimingConfig timing;
    PlatformConfig platform;
    MemSystem mem(timing, platform);
    EventQueue events;
    DmaEngine dma(events, mem, nullptr);
    mem.hostDram().fill(0x100000, 0x5a, 128);
    std::uint64_t done = 0;
    // One 128 B descriptor-sized burst, issued and run to completion.
    out["mem.dma.copy_ns"] = nsPerOp(ops, [&](std::uint64_t) {
        dma.copyHostToNxp(0x100000, platform.nxpDramLocalBase + 0x1000, 128,
                          [&] { ++done; });
        events.run();
    });
    sink = done;
}

void
probeMmu(std::uint64_t ops, std::map<std::string, double> &out)
{
    TimingConfig timing;
    PlatformConfig platform;
    MemSystem mem(timing, platform);
    PhysAllocator alloc("probe", 0x100000, 64ull << 20);
    PageTableManager ptm(mem, alloc);
    const Addr cr3 = ptm.createRoot();
    constexpr VAddr base = 0x10000000;
    constexpr std::uint64_t pages = 1024;
    const Addr pa = alloc.allocate(pages * 4096);
    ptm.map(cr3, base, pa, pages * 4096, PageSize::size4K, pte::user);

    Mmu mmu("probe", mem, Requester::hostCore, timing.hostMmuWalkOverhead, 64,
            64, MmuPolicy{});
    mmu.setCr3(cr3);
    // 16 pages fit the 64-entry TLB; a cyclic sweep over 1024 pages
    // misses the LRU TLB on every access and walks the page table.
    out["vm.mmu.translate_hit_ns"] = nsPerOp(ops, [&](std::uint64_t i) {
        sink = mmu.translate(base + (i & 15) * 4096, AccessType::read).pa;
    });
    out["vm.mmu.translate_miss_ns"] = nsPerOp(ops, [&](std::uint64_t i) {
        sink = mmu.translate(base + (i % pages) * 4096, AccessType::read).pa;
    });
}

/** A bare core's world: one executable page, nothing else. */
struct LoopEnv
{
    LoopEnv()
        : mem(timing, platform), alloc("probe", 0x100000, 16 << 20),
          ptm(mem, alloc)
    {
        cr3 = ptm.createRoot();
        textPa = alloc.allocate(4096);
        ptm.map(cr3, codeVa, textPa, 4096, PageSize::size4K, pte::user);
    }

    static constexpr VAddr codeVa = 0x400000;

    TimingConfig timing;
    PlatformConfig platform;
    MemSystem mem;
    PhysAllocator alloc;
    PageTableManager ptm;
    Addr cr3 = 0;
    Addr textPa = 0;
};

CoreParams
coreParams(const char *name, Requester req, std::uint64_t freq)
{
    CoreParams p;
    p.name = name;
    p.requester = req;
    p.freqHz = freq;
    p.decodeCache = true;
    return p;
}

/** Median ns per retired instruction of @p core over @p reset + run. */
template <typename CoreT, typename ResetFn>
double
nsPerInsn(CoreT &core, ResetFn reset, std::uint64_t limit)
{
    reset(core);
    core.run(limit); // warm the decode cache and TLBs
    std::vector<double> per;
    for (int b = 0; b < batches; ++b) {
        reset(core);
        auto t0 = Clock::now();
        RunResult run = core.run(limit);
        double ns = std::chrono::duration<double, std::nano>(Clock::now() -
                                                             t0)
                        .count();
        per.push_back(ns / double(run.instructions));
    }
    return median(per);
}

void
probeInterpreters(std::uint64_t iters, std::map<std::string, double> &out)
{
    {
        using namespace rv64;
        LoopEnv env;
        // addi t0, t0, 1; bne t0, t1, loop; ebreak
        std::uint32_t code[3] = {encI(opImm, 5, 0, 5, 1),
                                 encB(opBranch, 1, 5, 6, -4), 0x00100073};
        env.mem.hostDram().write(env.textPa, code, sizeof code);
        Rv64Core core(coreParams("nxp", Requester::nxpCore, 200'000'000),
                      env.mem);
        core.mmu().setCr3(env.cr3);
        out["isa.rv64.ns_per_insn"] = nsPerInsn(
            core,
            [&](Rv64Core &c) {
                c.setReg(5, 0);
                c.setReg(6, iters);
                c.setPc(LoopEnv::codeVa);
            },
            2 * iters + 16);
    }
    {
        using namespace hx64;
        LoopEnv env;
        std::uint8_t code[] = {
            opAddI, 0x00, 0x01, 0x00, 0x00, 0x00, // add rax, 1
            opCmpRR, 0x01,                        // cmp rax, rcx
            opJcc, ccNe, 0xf2, 0xff, 0xff, 0xff,  // jne loop
            opHalt,
        };
        env.mem.hostDram().write(env.textPa, code, sizeof code);
        Hx64Core core(coreParams("host", Requester::hostCore,
                                 2'400'000'000ull),
                      env.mem);
        core.mmu().setCr3(env.cr3);
        out["isa.hx64.ns_per_insn"] = nsPerInsn(
            core,
            [&](Hx64Core &c) {
                c.setReg(rax, 0);
                c.setReg(rcx, iters);
                c.setPc(LoopEnv::codeVa);
            },
            3 * iters + 16);
    }
}

} // namespace

std::map<std::string, double>
runProbes(std::uint64_t seed, Size size)
{
    const std::uint64_t ops = size == Size::full ? 100'000 : 2'000;
    Rng rng(seed);
    std::map<std::string, double> out;
    probeDescriptor(rng, ops / 5, out);
    probeEventQueue(rng, ops, out);
    probeStats(ops, out);
    probeSparseMemory(rng, ops, out);
    probeDma(ops / 4, out);
    probeMmu(ops, out);
    probeInterpreters(size == Size::full ? 500'000 : 5'000, out);
    return out;
}

} // namespace perfbench
