/**
 * @file
 * Differential suite for the decoded-instruction cache (DESIGN.md §13).
 *
 * The cache is an opt-out simulator speed optimization that must be
 * invisible to the model: every workload and every randomized
 * instruction stream must produce bit-identical architectural state,
 * memory, and tick counts whether the interpreters dispatch through
 * cached predecoded entries or re-decode raw bytes on every step. Each
 * randomized leg prints its seed on failure so a divergence can be
 * replayed exactly.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <sstream>
#include <vector>

#include "flick/system.hh"
#include "isa/hx64/core.hh"
#include "isa/hx64/insn.hh"
#include "isa/rv64/core.hh"
#include "isa/rv64/encoding.hh"
#include "sim/random.hh"
#include "vm/fault.hh"
#include "vm/page_table.hh"
#include "workloads/microbench.hh"

namespace flick
{
namespace
{

// --- Workload legs: full systems, cached vs reference --------------------

// Device-1 kernels for the multi-NxP leg (mirrors chaos_test).
const char *dev1Source = R"(
dev1_scale:
    slli a0, a0, 2
    ret
dev1_add:
    add a0, a0, a1
    ret
)";

const char *dev0ChainSource = R"(
dev0_chain:
    addi sp, sp, -16
    sd ra, 8(sp)
    call dev1_scale
    addi a0, a0, 1
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
)";

enum class Workload
{
    microbench,
    nestedCallback,
    multiNxp,
    concurrentSubmit,
};

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::microbench: return "microbench";
      case Workload::nestedCallback: return "nested-callback";
      case Workload::multiNxp: return "multi-nxp";
      case Workload::concurrentSubmit: return "concurrent-submit";
    }
    return "?";
}

struct WorkloadResult
{
    std::vector<std::uint64_t> values;
    Tick finalTick = 0;
    std::uint64_t hostInstructions = 0;
    std::uint64_t nxpInstructions = 0;
    std::uint64_t decodeHits = 0;
    std::uint64_t decodeFills = 0;
    std::uint64_t decodeFallbacks = 0;
};

WorkloadResult
runWorkload(Workload w, SystemConfig config)
{
    if (w == Workload::multiNxp)
        config.withDevices(2);
    FlickSystem sys(config);
    Program prog;
    workloads::addMicrobench(prog);
    if (w == Workload::multiNxp) {
        prog.addNxpAsm(dev1Source, 1);
        prog.addNxpAsm(dev0ChainSource);
    }
    Process &proc = sys.load(prog);

    WorkloadResult r;
    auto run = [&](const char *symbol, std::vector<std::uint64_t> args) {
        r.values.push_back(sys.call(proc, symbol, std::move(args)));
    };

    switch (w) {
      case Workload::microbench:
        run("nxp_noop", {});
        run("nxp_add", {7, 35});
        run("nxp_sum6", {1, 2, 3, 4, 5, 6});
        run("host_add", {3, 4});
        run("host_calls_nxp", {4});
        break;
      case Workload::nestedCallback:
        run("host_fact_nxp", {6});
        run("nxp_fact_host", {5});
        run("nxp_calls_host", {3});
        break;
      case Workload::multiNxp:
        run("nxp_add", {1, 2});
        run("dev1_add", {3, 4});
        run("dev1_scale", {5});
        run("dev0_chain", {10});
        break;
      case Workload::concurrentSubmit: {
        Task &t1 = sys.spawnThread(proc);
        Task &t2 = sys.spawnThread(proc);
        std::vector<CallFuture> futures;
        futures.push_back(
            sys.submit(proc, CallSpec("host_calls_nxp").withArgs({4})));
        futures.push_back(sys.submit(
            proc, CallSpec("host_fact_nxp").withArgs({5}).onThread(t1)));
        futures.push_back(sys.submit(
            proc, CallSpec("nxp_sum6").withArgs({6, 5, 4, 3, 2, 1})
                      .onThread(t2)));
        for (CallFuture &f : futures)
            r.values.push_back(f.wait());
        sys.exitThread(t1);
        sys.exitThread(t2);
        break;
      }
    }

    r.finalTick = sys.now();
    auto debug = sys.debug();
    r.hostInstructions = debug.hostCore().totalInstructions();
    for (unsigned d = 0; d < debug.nxpDeviceCount(); ++d)
        r.nxpInstructions += debug.nxpCore(d).totalInstructions();
    std::vector<Core *> cores{static_cast<Core *>(&debug.hostCore())};
    for (unsigned d = 0; d < debug.nxpDeviceCount(); ++d)
        cores.push_back(static_cast<Core *>(&debug.nxpCore(d)));
    for (Core *core : cores) {
        r.decodeHits += core->stats().get("decode_cache_hits");
        r.decodeFills += core->stats().get("decode_cache_fills");
        r.decodeFallbacks += core->stats().get("decode_cache_fallbacks");
    }
    return r;
}

std::vector<std::uint64_t>
expectedValues(Workload w)
{
    switch (w) {
      case Workload::microbench: return {0, 42, 21, 7, 0};
      case Workload::nestedCallback: return {720, 120, 0};
      case Workload::multiNxp: return {3, 7, 20, 41};
      case Workload::concurrentSubmit: return {0, 120, 21};
    }
    return {};
}

class InterpWorkloadDiff : public ::testing::TestWithParam<int>
{
  protected:
    Workload workload() const
    {
        return static_cast<Workload>(GetParam());
    }
};

TEST_P(InterpWorkloadDiff, CachedRunIsTickIdenticalToReference)
{
    WorkloadResult cached = runWorkload(workload(), SystemConfig{});
    WorkloadResult reference =
        runWorkload(workload(), SystemConfig{}.withDecodeCache(false));

    ASSERT_EQ(cached.values, expectedValues(workload()))
        << workloadName(workload());
    EXPECT_EQ(reference.values, cached.values) << workloadName(workload());
    EXPECT_EQ(reference.finalTick, cached.finalTick)
        << workloadName(workload());
    EXPECT_EQ(reference.hostInstructions, cached.hostInstructions)
        << workloadName(workload());
    EXPECT_EQ(reference.nxpInstructions, cached.nxpInstructions)
        << workloadName(workload());
    // The cached run demonstrably dispatched through the cache; the
    // reference run never touched one.
    EXPECT_GT(cached.decodeHits, 0u) << workloadName(workload());
    EXPECT_GT(cached.decodeFills, 0u) << workloadName(workload());
    EXPECT_EQ(reference.decodeHits + reference.decodeFills +
                  reference.decodeFallbacks,
              0u)
        << workloadName(workload());
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, InterpWorkloadDiff, ::testing::Range(0, 4),
    [](const ::testing::TestParamInfo<int> &info) {
        std::string s = workloadName(static_cast<Workload>(info.param));
        for (char &c : s)
            if (c == '-')
                c = '_';
        return s;
    });

// --- Randomized instruction streams on bare cores ------------------------

/**
 * One bare core with two text pages, a data page, and a stack page —
 * everything a randomized straight-line-plus-jumps stream can touch.
 * Two identically constructed environments (cached and reference) see
 * the same code bytes, the same seeded register file, and the same data
 * page contents.
 */
class DiffEnv
{
  public:
    DiffEnv() : mem(timing, platform), alloc("t", 0x100000, 16 << 20),
                ptm(mem, alloc)
    {
        cr3 = ptm.createRoot();
        text_pa = alloc.allocate(8192);
        data_pa = alloc.allocate(4096);
        stack_pa = alloc.allocate(4096);
        ptm.map(cr3, codeVa, text_pa, 8192, PageSize::size4K, pte::user);
        ptm.map(cr3, dataVa, data_pa, 4096, PageSize::size4K,
                pte::user | pte::writable);
        ptm.map(cr3, stackVa, stack_pa, 4096, PageSize::size4K,
                pte::user | pte::writable);
    }

    static constexpr VAddr codeVa = 0x400000;
    static constexpr VAddr dataVa = 0x500000;
    static constexpr VAddr stackVa = 0x600000;

    void
    setCode(const void *bytes, std::size_t len)
    {
        // Back-door write: zero both pages, then place the stream. The
        // write listener fires either way, so a cached core drops any
        // stale predecoded text.
        std::vector<std::uint8_t> zeros(8192, 0);
        mem.hostDram().write(text_pa, zeros.data(), zeros.size());
        mem.hostDram().write(text_pa, bytes, len);
    }

    void
    setData(const std::vector<std::uint8_t> &bytes)
    {
        mem.hostDram().write(data_pa, bytes.data(), bytes.size());
        std::vector<std::uint8_t> zeros(4096, 0);
        mem.hostDram().write(stack_pa, zeros.data(), zeros.size());
    }

    std::vector<std::uint8_t>
    snapshotMemory()
    {
        std::vector<std::uint8_t> snap(8192);
        mem.hostDram().read(data_pa, snap.data(), 4096);
        mem.hostDram().read(stack_pa, snap.data() + 4096, 4096);
        return snap;
    }

    TimingConfig timing;
    PlatformConfig platform;
    MemSystem mem;
    PhysAllocator alloc;
    PageTableManager ptm;
    Addr cr3 = 0;
    Addr text_pa = 0;
    Addr data_pa = 0;
    Addr stack_pa = 0;
};

/** Everything observable about one bare-core slice. */
struct StreamResult
{
    Fault stop = Fault::none;
    VAddr faultVa = 0;
    Tick elapsed = 0;
    std::uint64_t instructions = 0;
    std::vector<std::uint64_t> context; //!< saveContext(): regs + pc (+flags).
    std::vector<std::uint8_t> memory;   //!< Data + stack pages.

    bool
    operator==(const StreamResult &o) const
    {
        return stop == o.stop && faultVa == o.faultVa &&
               elapsed == o.elapsed && instructions == o.instructions &&
               context == o.context && memory == o.memory;
    }
};

std::string
describe(const StreamResult &r)
{
    std::ostringstream os;
    os << "stop=" << faultName(r.stop) << " faultVa=0x" << std::hex
       << r.faultVa << std::dec << " elapsed=" << r.elapsed
       << " instructions=" << r.instructions;
    return os.str();
}

template <typename CoreT>
StreamResult
runStream(CoreT &core, DiffEnv &env, std::uint64_t max_instructions)
{
    RunResult r = core.run(max_instructions);
    StreamResult s;
    s.stop = r.stop;
    s.faultVa = r.faultVa;
    s.elapsed = r.elapsed;
    s.instructions = r.instructions;
    s.context = core.saveContext();
    s.memory = env.snapshotMemory();
    return s;
}

// --- RV64 stream generator ------------------------------------------------

std::vector<std::uint32_t>
genRv64Stream(Rng &rng, unsigned count)
{
    using namespace rv64;
    std::vector<std::uint32_t> code(count);
    for (unsigned i = 0; i < count; ++i) {
        unsigned pick = static_cast<unsigned>(rng.below(100));
        unsigned rd_ = static_cast<unsigned>(rng.below(32));
        unsigned rs1_ = static_cast<unsigned>(rng.below(32));
        unsigned rs2_ = static_cast<unsigned>(rng.below(32));
        unsigned f3 = static_cast<unsigned>(rng.below(8));
        if (pick < 25) {
            // Register-register, including M and the alt (sub/sra) rows
            // and a sprinkling of illegal funct3/funct7 combinations.
            unsigned f7 = static_cast<unsigned>(rng.below(8)) < 3
                              ? 0x01
                              : (rng.below(2) ? 0x20 : 0x00);
            code[i] = encR(rng.below(2) ? opReg : opReg32, rd_, f3, rs1_,
                           rs2_, f7);
        } else if (pick < 50) {
            std::int64_t imm = sext(rng.next() & 0xfff, 12);
            code[i] = encI(rng.below(2) ? opImm : opImm32, rd_, f3, rs1_,
                           imm);
        } else if (pick < 62) {
            // Loads based on x21 (seeded to the data page; later
            // instructions may clobber it — faults are part of the diff).
            code[i] = encI(opLoad, rd_, f3, 21,
                           static_cast<std::int64_t>(rng.below(2040)));
        } else if (pick < 72) {
            code[i] = encS(opStore, f3, 21, rs2_,
                           static_cast<std::int64_t>(rng.below(2040)));
        } else if (pick < 84) {
            // Branch to a random instruction boundary (f3 2/3 = illegal
            // encodings stay in the mix on purpose).
            std::int64_t disp =
                (static_cast<std::int64_t>(rng.below(count)) -
                 static_cast<std::int64_t>(i)) *
                4;
            code[i] = encB(opBranch, f3, rs1_, rs2_, disp);
        } else if (pick < 90) {
            std::int64_t disp =
                (static_cast<std::int64_t>(rng.below(count)) -
                 static_cast<std::int64_t>(i)) *
                4;
            code[i] = encJ(opJal, rd_, disp);
        } else if (pick < 94) {
            code[i] = encU(rng.below(2) ? opLui : opAuipc, rd_,
                           static_cast<std::int64_t>(rng.next() & 0xfffff));
        } else {
            // Fully random word: mostly illegal encodings; both paths
            // must fault identically.
            code[i] = static_cast<std::uint32_t>(rng.next());
        }
    }
    return code;
}

// --- HX64 stream generator ------------------------------------------------

std::vector<std::uint8_t>
genHx64Stream(Rng &rng, unsigned count)
{
    using namespace hx64;
    std::vector<std::uint8_t> bytes;
    std::vector<std::size_t> starts;
    // (position of the 4-byte displacement, end-of-instruction offset,
    //  target instruction index) patched once the layout is known.
    struct Fixup
    {
        std::size_t immPos;
        std::size_t nextOffset;
        unsigned targetIndex;
    };
    std::vector<Fixup> fixups;

    auto emit8 = [&](std::uint8_t b) { bytes.push_back(b); };
    auto emit32 = [&](std::uint32_t v) {
        for (int k = 0; k < 4; ++k)
            emit8(static_cast<std::uint8_t>(v >> (8 * k)));
    };

    for (unsigned i = 0; i < count; ++i) {
        starts.push_back(bytes.size());
        unsigned pick = static_cast<unsigned>(rng.below(100));
        std::uint8_t regbyte = static_cast<std::uint8_t>(rng.next());
        if (pick < 30) {
            // Two-byte register-register forms.
            static const std::uint8_t ops[] = {opMovRR, opAdd, opSub,
                                               opAnd, opOr, opXor, opShl,
                                               opShr, opSar, opMul, opUdiv,
                                               opUrem, opCmpRR};
            emit8(ops[rng.below(sizeof ops)]);
            emit8(regbyte);
        } else if (pick < 42) {
            // Six-byte immediate forms.
            static const std::uint8_t ops[] = {opMovI32, opAddI, opSubI,
                                               opAndI, opOrI, opXorI,
                                               opCmpI, opLea};
            emit8(ops[rng.below(sizeof ops)]);
            emit8(regbyte);
            emit32(static_cast<std::uint32_t>(rng.next()));
        } else if (pick < 48) {
            emit8(opMovI64);
            emit8(regbyte);
            std::uint64_t v = rng.next();
            emit32(static_cast<std::uint32_t>(v));
            emit32(static_cast<std::uint32_t>(v >> 32));
        } else if (pick < 54) {
            static const std::uint8_t ops[] = {opShlI, opShrI, opSarI};
            emit8(ops[rng.below(sizeof ops)]);
            emit8(regbyte);
            emit8(static_cast<std::uint8_t>(rng.next()));
        } else if (pick < 66) {
            // Loads/stores based on r13 (seeded to the data page).
            static const std::uint8_t lds[] = {opLd8, opLd16, opLd32,
                                               opLd64, opLds8, opLds16,
                                               opLds32};
            static const std::uint8_t sts[] = {opSt8, opSt16, opSt32,
                                               opSt64};
            bool is_store = rng.below(2);
            std::uint8_t op = is_store ? sts[rng.below(sizeof sts)]
                                       : lds[rng.below(sizeof lds)];
            unsigned other = static_cast<unsigned>(rng.below(16));
            // ld other, [r13+imm] / st [r13+imm], other
            std::uint8_t rb = is_store
                                  ? static_cast<std::uint8_t>(0xd0 | other)
                                  : static_cast<std::uint8_t>(
                                        (other << 4) | 0xd);
            emit8(op);
            emit8(rb);
            emit32(static_cast<std::uint32_t>(rng.below(2040)));
        } else if (pick < 72) {
            emit8(rng.below(2) ? opPush : opPop);
            emit8(regbyte);
        } else if (pick < 80) {
            emit8(opJmp);
            fixups.push_back(
                {bytes.size(), bytes.size() + 4,
                 static_cast<unsigned>(rng.below(count))});
            emit32(0);
        } else if (pick < 92) {
            emit8(opJcc);
            // evalCond() panics on cc > 9, so the generator only emits
            // valid condition codes; jumps land on instruction starts
            // only, so no byte is ever re-read as a bogus Jcc.
            emit8(static_cast<std::uint8_t>(rng.below(10)));
            fixups.push_back(
                {bytes.size(), bytes.size() + 4,
                 static_cast<unsigned>(rng.below(count))});
            emit32(0);
        } else if (pick < 96) {
            emit8(opNop);
        } else {
            // An invalid opcode: both paths must fault identically.
            emit8(0xff);
        }
    }
    starts.push_back(bytes.size());

    for (const Fixup &f : fixups) {
        std::int64_t disp =
            static_cast<std::int64_t>(starts[f.targetIndex]) -
            static_cast<std::int64_t>(f.nextOffset);
        std::uint32_t u = static_cast<std::uint32_t>(disp);
        for (int k = 0; k < 4; ++k)
            bytes[f.immPos + k] = static_cast<std::uint8_t>(u >> (8 * k));
    }
    return bytes;
}

// --- Differential drivers -------------------------------------------------

CoreParams
rv64Params(bool decode_cache)
{
    CoreParams p;
    p.name = "nxp";
    p.requester = Requester::nxpCore;
    p.freqHz = 200'000'000;
    p.decodeCache = decode_cache;
    return p;
}

CoreParams
hx64Params(bool decode_cache)
{
    CoreParams p;
    p.name = "host";
    p.requester = Requester::hostCore;
    p.freqHz = 2'400'000'000ull;
    p.decodeCache = decode_cache;
    return p;
}

constexpr unsigned streamInsns = 300;
constexpr std::uint64_t runLimit = 600;

class Rv64StreamDiff : public ::testing::TestWithParam<int>
{
};

TEST_P(Rv64StreamDiff, CachedAndReferenceStateBitIdentical)
{
    std::uint64_t seed = 9000 + GetParam();
    Rng rng(seed);

    DiffEnv cachedEnv, refEnv;
    Rv64Core cached(rv64Params(true), cachedEnv.mem);
    Rv64Core reference(rv64Params(false), refEnv.mem);
    cached.mmu().setCr3(cachedEnv.cr3);
    reference.mmu().setCr3(refEnv.cr3);

    std::vector<std::uint8_t> data(4096);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());

    // Two phases over the same environments: the second overwrites the
    // text pages through the back door, so the cached core must drop its
    // predecoded entries and observe the new stream.
    for (int phase = 0; phase < 2; ++phase) {
        std::vector<std::uint32_t> code = genRv64Stream(rng, streamInsns);
        for (DiffEnv *env : {&cachedEnv, &refEnv}) {
            env->setCode(code.data(), code.size() * 4);
            env->setData(data);
        }
        std::vector<std::uint64_t> regs(32);
        for (auto &r : regs)
            r = rng.next();
        for (auto *core : {&cached, &reference}) {
            for (unsigned r = 1; r < 32; ++r)
                core->setReg(r, regs[r]);
            core->setReg(2, DiffEnv::stackVa + 2048);
            core->setReg(21, DiffEnv::dataVa);
            core->setPc(DiffEnv::codeVa);
        }
        StreamResult c = runStream(cached, cachedEnv, runLimit);
        StreamResult r = runStream(reference, refEnv, runLimit);
        ASSERT_TRUE(c == r)
            << "rv64 stream diverged: seed " << seed << " phase " << phase
            << "\n  cached:    " << describe(c)
            << "\n  reference: " << describe(r);
    }
    // The cached core demonstrably decoded through the cache.
    EXPECT_GT(cached.stats().get("decode_cache_fills") +
                  cached.stats().get("decode_cache_fallbacks"),
              0u)
        << "seed " << seed;
    EXPECT_EQ(reference.stats().get("decode_cache_fills"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Rv64StreamDiff, ::testing::Range(0, 104));

class Hx64StreamDiff : public ::testing::TestWithParam<int>
{
};

TEST_P(Hx64StreamDiff, CachedAndReferenceStateBitIdentical)
{
    std::uint64_t seed = 7000 + GetParam();
    Rng rng(seed);

    DiffEnv cachedEnv, refEnv;
    Hx64Core cached(hx64Params(true), cachedEnv.mem);
    Hx64Core reference(hx64Params(false), refEnv.mem);
    cached.mmu().setCr3(cachedEnv.cr3);
    reference.mmu().setCr3(refEnv.cr3);

    std::vector<std::uint8_t> data(4096);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());

    for (int phase = 0; phase < 2; ++phase) {
        std::vector<std::uint8_t> code = genHx64Stream(rng, streamInsns);
        ASSERT_LT(code.size(), std::size_t(8192)) << "seed " << seed;
        // Odd phases start the stream just before the page boundary so
        // instructions straddle it — the uncacheable fallback path.
        std::size_t offset =
            phase % 2 ? 4096 - 1 - static_cast<std::size_t>(rng.below(16))
                      : 0;
        if (offset + code.size() > 8192)
            offset = 0;
        std::vector<std::uint8_t> page(offset, hx64::opNop);
        page.insert(page.end(), code.begin(), code.end());
        for (DiffEnv *env : {&cachedEnv, &refEnv}) {
            env->setCode(page.data(), page.size());
            env->setData(data);
        }
        std::vector<std::uint64_t> regs(16);
        for (auto &r : regs)
            r = rng.next();
        for (auto *core : {&cached, &reference}) {
            for (unsigned r = 0; r < 16; ++r)
                core->setReg(r, regs[r]);
            core->setReg(hx64::rsp, DiffEnv::stackVa + 2048);
            core->setReg(hx64::r13, DiffEnv::dataVa);
            core->setPc(DiffEnv::codeVa + offset);
        }
        StreamResult c = runStream(cached, cachedEnv, runLimit);
        StreamResult r = runStream(reference, refEnv, runLimit);
        ASSERT_TRUE(c == r)
            << "hx64 stream diverged: seed " << seed << " phase " << phase
            << " offset " << offset << "\n  cached:    " << describe(c)
            << "\n  reference: " << describe(r);
    }
    EXPECT_GT(cached.stats().get("decode_cache_fills") +
                  cached.stats().get("decode_cache_fallbacks"),
              0u)
        << "seed " << seed;
    EXPECT_EQ(reference.stats().get("decode_cache_fills"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Hx64StreamDiff, ::testing::Range(0, 104));

// --- Cache demonstrably engages on hot loops ------------------------------

TEST(InterpCacheStats, TightLoopHitsAfterFirstIteration)
{
    using namespace rv64;
    DiffEnv env;
    Rv64Core core(rv64Params(true), env.mem);
    core.mmu().setCr3(env.cr3);

    // addi x5, x5, 1; bne x5, x6, -4  — 1000 iterations, then ebreak.
    std::uint32_t code[3] = {
        encI(opImm, 5, 0, 5, 1),
        encB(opBranch, 1, 5, 6, -4),
        0x00100073, // ebreak
    };
    env.setCode(code, sizeof code);
    core.setReg(5, 0);
    core.setReg(6, 1000);
    core.setPc(DiffEnv::codeVa);
    RunResult r = core.run(~0ull);
    ASSERT_EQ(r.stop, Fault::halt);
    EXPECT_EQ(core.reg(5), 1000u);
    // Only the first pass over each of the three slots decodes. The
    // halting ebreak goes through the cache too but does not retire,
    // hence the +1 against the retired-instruction count.
    EXPECT_EQ(core.stats().get("decode_cache_fills"), 3u);
    EXPECT_EQ(core.stats().get("decode_cache_hits"),
              r.instructions + 1u - 3u);
    EXPECT_EQ(core.stats().get("decode_cache_fallbacks"), 0u);
}

TEST(InterpCacheStats, ReferenceCoreReportsNoDecodeCacheCounters)
{
    using namespace rv64;
    DiffEnv env;
    Rv64Core core(rv64Params(false), env.mem);
    core.mmu().setCr3(env.cr3);
    std::uint32_t code[2] = {encI(opImm, 5, 0, 0, 7), 0x00100073};
    env.setCode(code, sizeof code);
    core.setPc(DiffEnv::codeVa);
    RunResult r = core.run(~0ull);
    ASSERT_EQ(r.stop, Fault::halt);
    EXPECT_EQ(core.reg(5), 7u);
    for (const char *key :
         {"decode_cache_hits", "decode_cache_fills",
          "decode_cache_fallbacks", "decode_cache_invalidated_pages"}) {
        EXPECT_EQ(core.stats().get(key), 0u) << key;
    }
}

} // namespace
} // namespace flick
