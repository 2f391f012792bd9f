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

#include "flick/nxp_platform.hh"
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
    /** @p text_flags: writable text lets a stream rewrite its own code. */
    explicit DiffEnv(std::uint64_t text_flags = pte::user)
        : mem(timing, platform), alloc("t", 0x100000, 16 << 20),
          ptm(mem, alloc)
    {
        cr3 = ptm.createRoot();
        text_pa = alloc.allocate(8192);
        data_pa = alloc.allocate(4096);
        stack_pa = alloc.allocate(4096);
        ptm.map(cr3, codeVa, text_pa, 8192, PageSize::size4K, text_flags);
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
        std::vector<std::uint8_t> snap(16384);
        mem.hostDram().read(data_pa, snap.data(), 4096);
        mem.hostDram().read(stack_pa, snap.data() + 4096, 4096);
        mem.hostDram().read(text_pa, snap.data() + 8192, 8192);
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
    CoreContext context{}; //!< saveContext(): regs + pc (+flags).
    std::vector<std::uint8_t> memory;   //!< Data, stack and text pages.

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
genHx64Stream(Rng &rng, unsigned count,
              std::vector<std::size_t> *starts_out = nullptr)
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
            // Only valid condition codes (a cc above 9 is an illegal
            // instruction, checked by its own directed case); jumps land
            // on instruction starts only, so no byte is ever re-read as
            // a bogus Jcc.
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
    if (starts_out) {
        starts.pop_back(); // The end-of-stream sentinel.
        *starts_out = std::move(starts);
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

// --- Counter-level lockstep under random budgets -------------------------

/*
 * Block dispatch (DESIGN.md §17) gives every instruction step()'s fetch
 * effects but publishes them on exit, so these suites compare counters,
 * not only state, after every slice of a random budget. A 4-line I-cache
 * makes text lines evict each other, a 1-entry iTLB makes every change
 * of text page evict, and a 2-entry dTLB lets LRU order pick which data
 * page goes.
 */

CoreParams
tightParams(CoreParams p)
{
    p.modelIcache = true;
    p.icacheLines = 4;
    p.itlbEntries = 1;
    p.dtlbEntries = 2;
    return p;
}

using Counters = std::map<std::string, std::uint64_t>;

/** Every iTLB, dTLB and I-cache counter of @p core, plus retirement. */
Counters
fetchCounters(Core &core)
{
    Counters c;
    auto take = [&](const char *group, StatGroup &g,
                    std::initializer_list<const char *> keys) {
        for (const char *key : keys)
            c[std::string(group) + "." + key] = g.get(key);
    };
    for (const char *tlb : {"itlb", "dtlb"}) {
        Tlb &t = tlb[0] == 'i' ? core.mmu().itlb() : core.mmu().dtlb();
        take(tlb, t.stats(),
             {"hits", "misses", "fills", "evictions", "flushes"});
    }
    if (ICache *icache = core.icache())
        take("icache", icache->stats(), {"hits", "misses", "flushes"});
    c["instructions"] = core.stats().get("instructions");
    return c;
}

std::string
describeCounters(const Counters &c)
{
    std::ostringstream os;
    for (const auto &[key, value] : c)
        os << key << "=" << value << " ";
    return os.str();
}

/** Run both cores for @p budget and require identical everything. */
template <typename CoreT>
::testing::AssertionResult
sliceInLockstep(CoreT &cached, DiffEnv &cachedEnv, CoreT &reference,
                DiffEnv &refEnv, std::uint64_t budget, StreamResult &out)
{
    StreamResult c = runStream(cached, cachedEnv, budget);
    StreamResult r = runStream(reference, refEnv, budget);
    if (!(c == r)) {
        return ::testing::AssertionFailure()
               << "state diverged\n  cached:    " << describe(c)
               << "\n  reference: " << describe(r);
    }
    Counters cc = fetchCounters(cached);
    Counters rc = fetchCounters(reference);
    if (cc != rc) {
        return ::testing::AssertionFailure()
               << "counters diverged (" << describe(c)
               << ")\n  cached:    " << describeCounters(cc)
               << "\n  reference: " << describeCounters(rc);
    }
    out = c;
    return ::testing::AssertionSuccess();
}

constexpr unsigned lockstepInsns = 1800; //!< Spans both text pages.
constexpr unsigned lockstepSlices = 300;

/**
 * A random page for a load/store base: data, stack or, when
 * @p with_text, either text page (stores there rewrite code under the
 * running block). HX64 streams keep their text intact, as the streams
 * this suite has always compared did.
 */
VAddr
randomBase(Rng &rng, bool with_text)
{
    static const VAddr pages[] = {DiffEnv::dataVa, DiffEnv::stackVa,
                                  DiffEnv::codeVa, DiffEnv::codeVa + 4096};
    return pages[rng.below(with_text ? 4 : 2)] + rng.below(2048);
}

class Rv64CounterLockstep : public ::testing::TestWithParam<int>
{
};

TEST_P(Rv64CounterLockstep, CountersMatchAfterEverySlice)
{
    std::uint64_t seed = 11000 + GetParam();
    Rng rng(seed);
    DiffEnv cachedEnv(pte::user | pte::writable);
    DiffEnv refEnv(pte::user | pte::writable);
    Rv64Core cached(tightParams(rv64Params(true)), cachedEnv.mem);
    Rv64Core reference(tightParams(rv64Params(false)), refEnv.mem);
    cached.mmu().setCr3(cachedEnv.cr3);
    reference.mmu().setCr3(refEnv.cr3);

    std::vector<std::uint32_t> code = genRv64Stream(rng, lockstepInsns);
    std::vector<std::uint8_t> data(4096);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    std::vector<std::uint64_t> regs(32);
    for (auto &r : regs)
        r = rng.next();
    for (DiffEnv *env : {&cachedEnv, &refEnv}) {
        env->setCode(code.data(), code.size() * 4);
        env->setData(data);
    }
    for (auto *core : {&cached, &reference}) {
        for (unsigned r = 1; r < 32; ++r)
            core->setReg(r, regs[r]);
        core->setReg(21, DiffEnv::dataVa);
        core->setPc(DiffEnv::codeVa);
    }

    for (unsigned slice = 0; slice < lockstepSlices; ++slice) {
        std::uint64_t budget = rng.range(1, 24);
        StreamResult c;
        ASSERT_TRUE(sliceInLockstep(cached, cachedEnv, reference, refEnv,
                                    budget, c))
            << "rv64 seed " << seed << " slice " << slice << " budget "
            << budget;
        // A stopped slice (fault, ebreak) restarts both cores at one
        // random instruction; now and then the base register moves.
        bool restart = c.stop != Fault::none;
        VAddr pc = DiffEnv::codeVa + 4 * rng.below(lockstepInsns);
        bool rebase = rng.below(4) == 0;
        VAddr base = randomBase(rng, true);
        for (auto *core : {&cached, &reference}) {
            if (restart)
                core->setPc(pc);
            if (rebase)
                core->setReg(21, base);
        }
    }
    EXPECT_GT(cached.stats().get("decode_cache_hits"), 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, Rv64CounterLockstep, ::testing::Range(0, 48));

class Hx64CounterLockstep : public ::testing::TestWithParam<int>
{
};

TEST_P(Hx64CounterLockstep, CountersMatchAfterEverySlice)
{
    std::uint64_t seed = 13000 + GetParam();
    Rng rng(seed);
    DiffEnv cachedEnv, refEnv;
    Hx64Core cached(tightParams(hx64Params(true)), cachedEnv.mem);
    Hx64Core reference(tightParams(hx64Params(false)), refEnv.mem);
    cached.mmu().setCr3(cachedEnv.cr3);
    reference.mmu().setCr3(refEnv.cr3);

    std::vector<std::size_t> starts;
    std::vector<std::uint8_t> code =
        genHx64Stream(rng, lockstepInsns, &starts);
    ASSERT_LT(code.size(), std::size_t(8192)) << "seed " << seed;
    std::vector<std::uint8_t> data(4096);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    std::vector<std::uint64_t> regs(16);
    for (auto &r : regs)
        r = rng.next();
    for (DiffEnv *env : {&cachedEnv, &refEnv}) {
        env->setCode(code.data(), code.size());
        env->setData(data);
    }
    for (auto *core : {&cached, &reference}) {
        for (unsigned r = 0; r < 16; ++r)
            core->setReg(r, regs[r]);
        core->setReg(hx64::rsp, DiffEnv::stackVa + 2048);
        core->setReg(hx64::r13, DiffEnv::dataVa);
        core->setPc(DiffEnv::codeVa);
    }

    for (unsigned slice = 0; slice < lockstepSlices; ++slice) {
        std::uint64_t budget = rng.range(1, 24);
        StreamResult c;
        ASSERT_TRUE(sliceInLockstep(cached, cachedEnv, reference, refEnv,
                                    budget, c))
            << "hx64 seed " << seed << " slice " << slice << " budget "
            << budget;
        bool restart = c.stop != Fault::none;
        VAddr pc = DiffEnv::codeVa + starts[rng.below(starts.size())];
        bool rebase = rng.below(4) == 0;
        VAddr base = randomBase(rng, false);
        for (auto *core : {&cached, &reference}) {
            if (restart) {
                core->setPc(pc);
                core->setReg(hx64::rsp, DiffEnv::stackVa + 2048);
            }
            if (rebase)
                core->setReg(hx64::r13, base);
        }
    }
    EXPECT_GT(cached.stats().get("decode_cache_hits"), 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, Hx64CounterLockstep, ::testing::Range(0, 48));

// --- Directed block-boundary cases ----------------------------------------

/** Run both cores in slices of @p budget until they stop; all slices in
 *  lockstep. Returns the final slice. */
template <typename CoreT>
StreamResult
runInLockstep(CoreT &cached, DiffEnv &cachedEnv, CoreT &reference,
              DiffEnv &refEnv, std::uint64_t budget = ~0ull)
{
    StreamResult c;
    for (int slice = 0; slice < 100000; ++slice) {
        EXPECT_TRUE(sliceInLockstep(cached, cachedEnv, reference, refEnv,
                                    budget, c))
            << "slice " << slice;
        if (c.stop != Fault::none || ::testing::Test::HasFailure())
            break;
    }
    return c;
}

/** Two RV64 cores, cached and reference, on one program each. */
struct Rv64Pair
{
    explicit Rv64Pair(const std::vector<std::uint32_t> &code)
        : cachedEnv(pte::user | pte::writable),
          refEnv(pte::user | pte::writable),
          cached(tightParams(rv64Params(true)), cachedEnv.mem),
          reference(tightParams(rv64Params(false)), refEnv.mem)
    {
        for (DiffEnv *env : {&cachedEnv, &refEnv})
            env->setCode(code.data(), code.size() * 4);
        cached.mmu().setCr3(cachedEnv.cr3);
        reference.mmu().setCr3(refEnv.cr3);
    }

    void
    setReg(unsigned r, std::uint64_t v)
    {
        cached.setReg(r, v);
        reference.setReg(r, v);
    }

    void
    setPc(VAddr pc)
    {
        cached.setPc(pc);
        reference.setPc(pc);
    }

    DiffEnv cachedEnv;
    DiffEnv refEnv;
    Rv64Core cached;
    Rv64Core reference;
};

constexpr std::uint32_t rvNop = 0x00000013;    // addi x0, x0, 0
constexpr std::uint32_t rvEbreak = 0x00100073;

TEST(BlockBoundary, StoreRewritesLaterInstructionOnRunningPage)
{
    using namespace rv64;
    // Five iterations; on the third, x20 moves from the data page to the
    // text page, so the store — dispatched from a block, its entry cached
    // since the first iteration — rewrites the instruction at 0x18,
    // three slots on. The page's entries read back empty at once, the
    // block ends, and step() decodes and runs the new instruction.
    std::vector<std::uint32_t> code = {
        encI(opImm, 8, 0, 8, 1),          // 0x00 addi x8, x8, 1
        encB(opBranch, 1, 8, 9, 8),       // 0x04 bne x8, x9, 0x0c
        encI(opImm, 20, 0, 21, 0),        // 0x08 addi x20, x21, 0
        encS(opStore, 2, 20, 7, 0x18),    // 0x0c sw x7, 0x18(x20)
        rvNop,                            // 0x10
        rvNop,                            // 0x14
        encI(opImm, 5, 0, 5, 1),          // 0x18 addi x5, x5, 1
        encB(opBranch, 4, 8, 10, -0x1c),  // 0x1c blt x8, x10, 0x00
        rvEbreak,                         // 0x20
    };
    Rv64Pair p(code);
    p.setReg(20, DiffEnv::dataVa);
    p.setReg(21, DiffEnv::codeVa);
    p.setReg(7, encI(opImm, 5, 0, 5, 100)); // addi x5, x5, 100
    p.setReg(9, 3);
    p.setReg(10, 5);
    p.setPc(DiffEnv::codeVa);

    StreamResult last =
        runInLockstep(p.cached, p.cachedEnv, p.reference, p.refEnv);
    ASSERT_EQ(last.stop, Fault::halt);
    // Two iterations of the old instruction, three of the new one.
    EXPECT_EQ(p.cached.reg(5), 1u + 1u + 100u + 100u + 100u);
    // Iteration 1 fills the seven slots it runs; iteration 2 only hits.
    // Iteration 3 fills 0x08, then its store empties the page and 0x10 to
    // 0x1c refill: five. Iterations 4 and 5 store from the start, seven
    // fills each, and the ebreak is the last.
    EXPECT_EQ(p.cached.stats().get("decode_cache_fills"),
              7u + 5u + 7u + 7u + 1u);
    EXPECT_EQ(p.cached.stats().get("decode_cache_invalidated_pages"), 3u);
}

TEST(BlockBoundary, LoopBodyCrossesIcacheLine)
{
    using namespace rv64;
    // The body at 0x38..0x44 spans the 64-byte line boundary at 0x40, so
    // every iteration's fetches alternate between two lines: the first
    // fetch from each line is a real I-cache access, the second a
    // same-line hit the block counts itself.
    std::vector<std::uint32_t> code(14, rvNop);
    code.push_back(encI(opImm, 5, 0, 5, 1));       // 0x38 addi x5, x5, 1
    code.push_back(encI(opImm, 6, 0, 6, 2));       // 0x3c addi x6, x6, 2
    code.push_back(encI(opImm, 7, 0, 7, 3));       // 0x40 addi x7, x7, 3
    code.push_back(encB(opBranch, 1, 5, 9, -0xc)); // 0x44 bne x5, x9, 0x38
    code.push_back(rvEbreak);                      // 0x48
    Rv64Pair p(code);
    p.setReg(9, 200);
    p.setPc(DiffEnv::codeVa + 0x38);

    StreamResult last =
        runInLockstep(p.cached, p.cachedEnv, p.reference, p.refEnv);
    ASSERT_EQ(last.stop, Fault::halt);
    EXPECT_EQ(p.cached.reg(7), 600u);
    StatGroup &icache = p.cached.icache()->stats();
    // Two cold lines; every other fetch (ebreak included) hits.
    EXPECT_EQ(icache.get("misses"), 2u);
    EXPECT_EQ(icache.get("hits"), 4u * 200u + 1u - 2u);
}

TEST(BlockBoundary, BudgetEndsMidPage)
{
    using namespace rv64;
    std::vector<std::uint32_t> code = {
        encI(opImm, 5, 0, 5, 1),       // 0x00 addi x5, x5, 1
        encI(opImm, 6, 0, 6, 7),       // 0x04 addi x6, x6, 7
        encB(opBranch, 1, 5, 9, -8),   // 0x08 bne x5, x9, 0x00
        rvEbreak,                      // 0x0c
    };
    Rv64Pair p(code);
    p.setReg(9, 400);
    p.setPc(DiffEnv::codeVa);
    // Budgets of 1 to 13 end the slice mid-block at every position of
    // the three-instruction body; each slice must retire exactly its
    // budget until the ebreak.
    std::uint64_t retired = 0;
    for (std::uint64_t i = 0;; ++i) {
        std::uint64_t budget = 1 + i % 13;
        StreamResult c;
        ASSERT_TRUE(sliceInLockstep(p.cached, p.cachedEnv, p.reference,
                                    p.refEnv, budget, c))
            << "slice " << i << " budget " << budget;
        retired += c.instructions;
        if (c.stop == Fault::halt)
            break;
        ASSERT_EQ(c.instructions, budget) << "slice " << i;
        ASSERT_EQ(c.stop, Fault::none) << "slice " << i;
    }
    EXPECT_EQ(retired, 3u * 400u);
    EXPECT_EQ(p.cached.reg(6), 7u * 400u);
}

TEST(BlockBoundary, Hx64LoopWithInstructionStraddlingPageEnd)
{
    using namespace hx64;
    // add rax, 1 at 4084; cmp rax, rcx at 4090; jne back at 4092..4097
    // straddles the page end and is never cached, so every iteration's
    // block ends at it and step() re-translates its second page.
    const std::uint8_t loop[] = {
        opAddI, 0x00, 0x01, 0x00, 0x00, 0x00, // add rax, 1
        opCmpRR, 0x01,                        // cmp rax, rcx
        opJcc, ccNe, 0xf2, 0xff, 0xff, 0xff,  // jne -14 -> 4084
        opHalt,
    };
    std::vector<std::uint8_t> page(4084 + sizeof loop, opNop);
    std::memcpy(page.data() + 4084, loop, sizeof loop);
    for (unsigned itlb : {64u, 1u}) {
        SCOPED_TRACE(testing::Message() << "itlb entries " << itlb);
        DiffEnv cachedEnv, refEnv;
        CoreParams cp = tightParams(hx64Params(true));
        CoreParams rp = tightParams(hx64Params(false));
        cp.itlbEntries = rp.itlbEntries = itlb;
        Hx64Core cached(cp, cachedEnv.mem);
        Hx64Core reference(rp, refEnv.mem);
        for (DiffEnv *env : {&cachedEnv, &refEnv})
            env->setCode(page.data(), page.size());
        for (Hx64Core *core : {&cached, &reference}) {
            core->mmu().setCr3(core == &cached ? cachedEnv.cr3 : refEnv.cr3);
            core->setReg(rax, 0);
            core->setReg(rcx, 50);
            core->setPc(DiffEnv::codeVa + 4084);
        }
        StreamResult last =
            runInLockstep(cached, cachedEnv, reference, refEnv, 7);
        ASSERT_EQ(last.stop, Fault::halt);
        EXPECT_EQ(cached.reg(rax), 50u);
        EXPECT_EQ(cached.stats().get("decode_cache_fallbacks"), 50u);
    }
}

TEST(BlockBoundary, Hx64JccWithUnknownConditionFaultsAlike)
{
    using namespace hx64;
    // Five turns of a loop, then a Jcc whose condition byte names no
    // condition. The first pass decodes it in step(); the second runs it
    // from its cached entry in a block. Both paths raise illegalInstr at
    // its PC, with the same ticks and counters.
    for (unsigned cc : {10u, 0x80u, 0xffu}) {
        SCOPED_TRACE(testing::Message() << "cc " << cc);
        const std::uint8_t code[] = {
            opAddI, 0x00, 0x01, 0x00, 0x00, 0x00,    // 0: add rax, 1
            opCmpRR, 0x01,                           // 6: cmp rax, rcx
            opJcc, ccNe, 0xf2, 0xff, 0xff, 0xff,     // 8: jne -14 -> 0
            opJcc, static_cast<std::uint8_t>(cc), 0x00, 0x00, 0x00,
            0x00,                                    // 14: bad cc
            opHalt,                                  // 20
        };
        DiffEnv cachedEnv, refEnv;
        Hx64Core cached(tightParams(hx64Params(true)), cachedEnv.mem);
        Hx64Core reference(tightParams(hx64Params(false)), refEnv.mem);
        for (DiffEnv *env : {&cachedEnv, &refEnv})
            env->setCode(code, sizeof code);
        cached.mmu().setCr3(cachedEnv.cr3);
        reference.mmu().setCr3(refEnv.cr3);
        for (int pass = 0; pass < 2; ++pass) {
            for (Hx64Core *core : {&cached, &reference}) {
                core->setReg(rax, 0);
                core->setReg(rcx, 5);
                core->setPc(DiffEnv::codeVa);
            }
            StreamResult last =
                runInLockstep(cached, cachedEnv, reference, refEnv);
            ASSERT_EQ(last.stop, Fault::illegalInstr) << "pass " << pass;
            EXPECT_EQ(last.faultVa, DiffEnv::codeVa + 14) << "pass " << pass;
        }
        // The second pass decoded nothing: the bad Jcc ran from its entry.
        EXPECT_EQ(cached.stats().get("decode_cache_fills"), 4u);
    }
}

/**
 * An NxP core whose text VA maps into the BAR0 window, so the TLB's
 * remap stage (Section IV-A) picks the page it fetches from, and which
 * can reprogram that stage by storing to its control window. The remap
 * is a plain subtraction; here the offsets point the window at one of
 * two host-DRAM text pages, A or B.
 */
struct RemapEnv
{
    RemapEnv()
        : mem(timing, platform), alloc("t", 0x100000, 16 << 20),
          ptm(mem, alloc), control(mem, 0)
    {
        cr3 = ptm.createRoot();
        text_a = alloc.allocate(4096);
        text_b = alloc.allocate(4096);
        ptm.map(cr3, codeVa, platform.barBase(0), 4096, PageSize::size4K,
                pte::user);
        ptm.map(cr3, ctrlVa, platform.nxpCtrlLocalBase, 4096,
                PageSize::size4K, pte::user | pte::writable);
    }

    /** Remap offset that sends the text VA to @p text_pa. */
    Addr offsetTo(Addr text_pa) const { return platform.barBase(0) - text_pa; }

    static constexpr VAddr codeVa = 0x400000;
    static constexpr VAddr ctrlVa = 0x700000;

    TimingConfig timing;
    PlatformConfig platform;
    MemSystem mem;
    PhysAllocator alloc;
    PageTableManager ptm;
    NxpPlatform control;
    Addr cr3 = 0;
    Addr text_a = 0;
    Addr text_b = 0;
};

TEST(BlockBoundary, BarRemapStoreMidPageEndsBlock)
{
    using namespace rv64;
    // Pages A (the remap at boot) and B hold the same loop except at
    // 0x10. On the third iteration the store to
    // regBarRemap moves the text window by one page mid-block: the next
    // fetch must come from B, although A's entry for 0x10 is cached.
    auto text = [](std::int64_t bump) {
        return std::vector<std::uint32_t>{
            encI(opImm, 5, 0, 5, 1),         // 0x00 addi x5, x5, 1
            encB(opBranch, 1, 5, 6, 8),      // 0x04 bne x5, x6, 0x0c
            encI(opImm, 7, 0, 9, 0),         // 0x08 addi x7, x9, 0
            encS(opStore, 3, 20, 7,
                 static_cast<std::int64_t>(NxpPlatform::regBarRemap)),
                                             // 0x0c sd x7, 0x10(x20)
            encI(opImm, 8, 0, 8, bump),      // 0x10 addi x8, x8, bump
            encB(opBranch, 4, 5, 6, -0x14),  // 0x14 blt x5, x6, 0x00
            rvEbreak,                        // 0x18
        };
    };
    std::vector<std::uint32_t> a = text(1), b = text(100);

    RemapEnv cachedEnv, refEnv;
    const PlatformConfig &plat = cachedEnv.platform;
    Rv64Core cached(tightParams(rv64Params(true)), cachedEnv.mem);
    Rv64Core reference(tightParams(rv64Params(false)), refEnv.mem);
    for (RemapEnv *env : {&cachedEnv, &refEnv}) {
        env->mem.hostDram().write(env->text_a, a.data(), a.size() * 4);
        env->mem.hostDram().write(env->text_b, b.data(), b.size() * 4);
    }
    cachedEnv.control.setNxpMmu(&cached.mmu());
    refEnv.control.setNxpMmu(&reference.mmu());
    cached.mmu().setCr3(cachedEnv.cr3);
    reference.mmu().setCr3(refEnv.cr3);
    for (Rv64Core *core : {&cached, &reference}) {
        core->mmu().setBarRemap(plat.barBase(0), plat.deviceDramBytes(0),
                                cachedEnv.offsetTo(cachedEnv.text_a));
        core->setReg(6, 3);
        core->setReg(7, cachedEnv.offsetTo(cachedEnv.text_a));
        core->setReg(9, cachedEnv.offsetTo(cachedEnv.text_b));
        core->setReg(20, RemapEnv::ctrlVa);
        core->setPc(RemapEnv::codeVa);
    }

    Tick elapsed[2] = {0, 0};
    Counters counters[2];
    RunResult results[2];
    for (int i = 0; i < 2; ++i) {
        Rv64Core &core = i == 0 ? cached : reference;
        results[i] = core.run(1000);
        elapsed[i] = results[i].elapsed;
        counters[i] = fetchCounters(core);
    }
    ASSERT_EQ(results[0].stop, Fault::halt);
    EXPECT_EQ(results[0].instructions, results[1].instructions);
    EXPECT_EQ(elapsed[0], elapsed[1]);
    EXPECT_EQ(counters[0], counters[1])
        << "\n  cached:    " << describeCounters(counters[0])
        << "\n  reference: " << describeCounters(counters[1]);
    EXPECT_EQ(cached.saveContext(), reference.saveContext());
    // Two iterations on A, the third's 0x10 and the ebreak on B.
    EXPECT_EQ(cached.reg(8), 1u + 1u + 100u);
    EXPECT_EQ(cachedEnv.control.stats().get("bar_remap_writes"), 3u);
}

} // namespace
} // namespace flick
