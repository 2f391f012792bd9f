/**
 * @file
 * Unit tests for the HX64 ISA: encodings, assembler, interpreter.
 */

#include <gtest/gtest.h>

#include "isa/hx64/assembler.hh"
#include "isa/hx64/core.hh"
#include "isa/hx64/insn.hh"
#include "sim/random.hh"
#include "vm/page_table.hh"

namespace flick
{
namespace
{

using namespace hx64;

TEST(Hx64Insn, LengthsCoverAllOpcodes)
{
    EXPECT_EQ(insnLength(opHalt), 1u);
    EXPECT_EQ(insnLength(opRet), 1u);
    EXPECT_EQ(insnLength(opMovRR), 2u);
    EXPECT_EQ(insnLength(opShlI), 3u);
    EXPECT_EQ(insnLength(opJmp), 5u);
    EXPECT_EQ(insnLength(opLd64), 6u);
    EXPECT_EQ(insnLength(opMovI64), 10u);
    EXPECT_EQ(insnLength(0xff), 0u);
    EXPECT_EQ(insnLength(0x47), 0u); // gap in the load opcodes
}

class Hx64Run : public ::testing::Test
{
  protected:
    static constexpr VAddr codeVa = 0x400000;
    static constexpr VAddr stackVa = 0x800000;
    static constexpr VAddr dataVa = 0x600000;

    Hx64Run()
        : mem(timing, platform), alloc("t", 0x100000, 64 << 20),
          ptm(mem, alloc)
    {
        CoreParams p;
        p.name = "host";
        p.requester = Requester::hostCore;
        p.freqHz = 2'400'000'000ull;
        p.itlbEntries = 64;
        p.dtlbEntries = 64;
        p.mmuPolicy.faultOnNxFetch = true;
        core = std::make_unique<Hx64Core>(p, mem);
    }

    void
    load(const std::string &src)
    {
        Section s = hx64Assemble(src);
        for (const Relocation &r : s.relocations) {
            auto it = s.symbols.find(r.symbol);
            ASSERT_TRUE(it != s.symbols.end())
                << "undefined symbol " << r.symbol;
            hx64ApplyRelocation(s.bytes, r, codeVa, codeVa + it->second);
        }
        cr3 = ptm.createRoot();
        std::uint64_t text_bytes = (s.bytes.size() + 4095) & ~4095ull;
        Addr text_pa = alloc.allocate(text_bytes);
        mem.hostDram().write(text_pa, s.bytes.data(), s.bytes.size());
        ptm.map(cr3, codeVa, text_pa, text_bytes, PageSize::size4K,
                pte::user);
        Addr stack_pa = alloc.allocate(1 << 16);
        ptm.map(cr3, stackVa - (1 << 16), stack_pa, 1 << 16,
                PageSize::size4K,
                pte::user | pte::writable | pte::noExecute);
        Addr data_pa = alloc.allocate(1 << 16);
        ptm.map(cr3, dataVa, data_pa, 1 << 16, PageSize::size4K,
                pte::user | pte::writable | pte::noExecute);
        core->mmu().setCr3(cr3);
        symbols = s.symbols;
    }

    std::uint64_t
    call(const std::string &name, std::vector<std::uint64_t> args = {},
         std::uint64_t max_insn = 1'000'000)
    {
        core->setStackPointer(stackVa - 64);
        core->setupCall(codeVa + symbols.at(name), args);
        last = core->run(max_insn);
        EXPECT_EQ(last.stop, Fault::trampoline)
            << "stopped with " << faultName(last.stop);
        return core->retVal();
    }

    TimingConfig timing;
    PlatformConfig platform;
    MemSystem mem;
    PhysAllocator alloc;
    PageTableManager ptm;
    std::unique_ptr<Hx64Core> core;
    Addr cr3 = 0;
    std::map<std::string, std::uint64_t> symbols;
    RunResult last;
};

TEST_F(Hx64Run, MovForms)
{
    load(R"(
f:
    mov rax, 7
    mov rbx, rax
    mov rcx, -5
    add rbx, rcx
    mov rax, rbx
    ret
g:
    mov rax, 0x123456789abcdef0
    ret
)");
    EXPECT_EQ(call("f"), 2u);
    EXPECT_EQ(call("g"), 0x123456789abcdef0ull);
}

TEST_F(Hx64Run, AluOps)
{
    load(R"(
f:
    mov rax, rdi
    add rax, rsi
    sub rax, 3
    and rax, 0xff
    or rax, 0x100
    xor rax, 1
    ret
)");
    std::uint64_t expect = ((((10u + 20 - 3) & 0xff) | 0x100) ^ 1);
    EXPECT_EQ(call("f", {10, 20}), expect);
}

TEST_F(Hx64Run, Shifts)
{
    load(R"(
f:
    mov rax, rdi
    shl rax, 4
    mov rcx, 2
    shr rax, rcx
    ret
g:
    mov rax, rdi
    sar rax, 3
    ret
)");
    EXPECT_EQ(call("f", {3}), (3u << 4) >> 2);
    EXPECT_EQ(call("g", {static_cast<std::uint64_t>(-64)}),
              static_cast<std::uint64_t>(-8));
}

TEST_F(Hx64Run, MulDivRem)
{
    load(R"(
f:
    mov rax, rdi
    mul rax, rsi
    ret
g:
    mov rax, rdi
    udiv rax, rsi
    ret
h:
    mov rax, rdi
    urem rax, rsi
    ret
)");
    EXPECT_EQ(call("f", {6, 7}), 42u);
    EXPECT_EQ(call("g", {100, 6}), 16u);
    EXPECT_EQ(call("h", {100, 6}), 4u);
    EXPECT_EQ(call("g", {1, 0}), ~0ull);
}

TEST_F(Hx64Run, LoadsStoresAllSizes)
{
    load(R"(
f:  # rdi = base
    mov rbx, -2
    st [rdi+0], rbx
    st32 [rdi+8], rbx
    st16 [rdi+16], rbx
    st8 [rdi+24], rbx
    ld rax, [rdi+0]
    ld32 rcx, [rdi+8]
    ld16 rdx, [rdi+16]
    ld8 rsi, [rdi+24]
    lds32 r8, [rdi+8]
    lds16 r9, [rdi+16]
    lds8 r10, [rdi+24]
    add rax, rcx
    add rax, rdx
    add rax, rsi
    add rax, r8
    add rax, r9
    add rax, r10
    ret
)");
    std::uint64_t expect = std::uint64_t(-2) + 0xfffffffeull + 0xfffeull +
                           0xfeull + std::uint64_t(-2) +
                           std::uint64_t(-2) + std::uint64_t(-2);
    EXPECT_EQ(call("f", {dataVa}), expect);
}

TEST_F(Hx64Run, NegativeDisplacement)
{
    load(R"(
f:
    mov rbx, 77
    st [rdi-8], rbx
    ld rax, [rdi-8]
    ret
)");
    EXPECT_EQ(call("f", {dataVa + 64}), 77u);
}

TEST_F(Hx64Run, ConditionCodes)
{
    load(R"(
# builds a mask of taken conditions for (rdi=-1, rsi=1)
f:
    mov rax, 0
    cmp rdi, rdi
    jne skip_eq
    or rax, 1
skip_eq:
    cmp rdi, rsi
    je skip_ne
    or rax, 2
skip_ne:
    cmp rdi, rsi
    jge skip_lt
    or rax, 4
skip_lt:
    cmp rsi, rdi
    jl skip_ge
    or rax, 8
skip_ge:
    cmp rsi, rdi
    jae skip_b
    or rax, 16
skip_b:
    cmp rdi, rsi
    jb skip_ae
    or rax, 32
skip_ae:
    cmp rdi, 0
    jg skip_le
    or rax, 64
skip_le:
    cmp rsi, 0
    jle skip_gt
    or rax, 128
skip_gt:
    ret
)");
    // rdi=-1 rsi=1: eq(self) t, ne t, lt(signed) t, ge(1>=-1) t,
    // b(1<unsigned -1) t, ae(-1>=u 1) t, le(-1<=0) t, gt(1>0) t.
    EXPECT_EQ(call("f", {static_cast<std::uint64_t>(-1), 1}), 255u);
}

TEST_F(Hx64Run, UnsignedConditions)
{
    load(R"(
f:
    cmp rdi, rsi
    ja yes
    mov rax, 0
    ret
yes:
    mov rax, 1
    ret
g:
    cmp rdi, rsi
    jbe yes2
    mov rax, 0
    ret
yes2:
    mov rax, 1
    ret
)");
    EXPECT_EQ(call("f", {2, 1}), 1u);
    EXPECT_EQ(call("f", {1, 2}), 0u);
    EXPECT_EQ(call("g", {1, 1}), 1u);
}

TEST_F(Hx64Run, CallRetPushPop)
{
    load(R"(
helper:
    add rdi, 1
    mov rax, rdi
    ret
f:
    push rbx
    mov rbx, 41
    mov rdi, rbx
    call helper
    pop rbx
    ret
)");
    EXPECT_EQ(call("f"), 42u);
}

TEST_F(Hx64Run, IndirectCallAndJump)
{
    load(R"(
target:
    mov rax, 1234
    ret
f:
    mov rbx, target
    callr rbx
    ret
g:
    mov rbx, tail
    jmp rbx
    mov rax, 0
    ret
tail:
    mov rax, 77
    ret
)");
    EXPECT_EQ(call("f"), 1234u);
    EXPECT_EQ(call("g"), 77u);
}

TEST_F(Hx64Run, Lea)
{
    load(R"(
f:
    lea rax, [rdi+24]
    ret
)");
    EXPECT_EQ(call("f", {100}), 124u);
}

TEST_F(Hx64Run, LoopCountsInstructions)
{
    load(R"(
f:
    mov rax, 0
loop:
    cmp rdi, 0
    je done
    add rax, rdi
    sub rdi, 1
    jmp loop
done:
    ret
)");
    EXPECT_EQ(call("f", {100}), 5050u);
    // 2 setup-ish + 100 iterations x 4 + final cmp/je + ret.
    EXPECT_GT(last.instructions, 400u);
}

TEST_F(Hx64Run, HaltStops)
{
    load("f: halt\n");
    core->setStackPointer(stackVa - 64);
    core->setupCall(codeVa, {});
    RunResult r = core->run();
    EXPECT_EQ(r.stop, Fault::halt);
}

TEST_F(Hx64Run, SyscallExitHalts)
{
    load(R"(
f:
    mov rax, 55
    syscall 0
)");
    core->setStackPointer(stackVa - 64);
    core->setupCall(codeVa, {});
    RunResult r = core->run();
    EXPECT_EQ(r.stop, Fault::halt);
    EXPECT_EQ(core->retVal(), 55u);
}

TEST_F(Hx64Run, ArgumentRegisters)
{
    load(R"(
f:
    mov rax, rdi
    add rax, rsi
    add rax, rdx
    add rax, rcx
    add rax, r8
    add rax, r9
    ret
)");
    EXPECT_EQ(call("f", {1, 2, 3, 4, 5, 6}), 21u);
}

TEST_F(Hx64Run, NxFetchFaultOnMarkedPage)
{
    load(R"(
f:
    mov rbx, 0x500000
    callr rbx
    ret
)");
    // Map an NX page at 0x500000: fetching it must fault, with the
    // arguments and the pushed return address intact.
    Addr pa = alloc.allocate(4096);
    ptm.map(cr3, 0x500000, pa, 4096, PageSize::size4K,
            pte::user | pte::noExecute);
    core->setStackPointer(stackVa - 64);
    core->setupCall(codeVa + symbols.at("f"),
                    std::array<std::uint64_t, 2>{11, 22});
    RunResult r = core->run();
    EXPECT_EQ(r.stop, Fault::nxFetch);
    EXPECT_EQ(r.faultVa, 0x500000u);
    EXPECT_EQ(core->pc(), 0x500000u);
    EXPECT_EQ(core->arg(0), 11u);
    EXPECT_EQ(core->arg(1), 22u);
    // Completing the hijacked call resumes after the callr.
    core->finishHijackedCall(1000);
    RunResult r2 = core->run();
    EXPECT_EQ(r2.stop, Fault::trampoline);
    EXPECT_EQ(core->retVal(), 1000u);
}

TEST_F(Hx64Run, ContextSaveRestoreRoundTrip)
{
    load("f: ret\n");
    for (unsigned i = 0; i < 16; ++i)
        core->setReg(i, i * 7);
    core->setPc(0x1234);
    auto ctx = core->saveContext();
    for (unsigned i = 0; i < 16; ++i)
        core->setReg(i, 0);
    core->restoreContext(ctx);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(core->reg(i), i * 7);
    EXPECT_EQ(core->pc(), 0x1234u);
}

TEST_F(Hx64Run, VariableLengthAcrossPageBoundary)
{
    // Pad so a 10-byte mov straddles the first 4 KB page, then check it
    // executes correctly (both pages mapped executable).
    std::string src = "f:\n";
    // 409 nops + jmp to land near the boundary is fiddly; instead pad
    // with .space to put the big instruction at 4090.
    src = "f: jmp entry\n.space 4085\nentry: mov rax, "
          "0x1122334455667788\n ret\n";
    load(src);
    EXPECT_EQ(call("f"), 0x1122334455667788ull);
}

TEST(Hx64Assembler, RejectsBadInput)
{
    EXPECT_DEATH(hx64Assemble("bogus rax"), "unknown mnemonic");
    EXPECT_DEATH(hx64Assemble("mov rax"), "operand count");
    EXPECT_DEATH(hx64Assemble("mul rax, 5"), "no immediate form");
    EXPECT_DEATH(hx64Assemble("ld rax, rbx"), "expected");
    EXPECT_DEATH(hx64Assemble("shl rax, 99"), "out of range");
}

TEST(Hx64Assembler, SectionMetadata)
{
    Section s = hx64Assemble("f: ret");
    EXPECT_EQ(s.name, ".text.hx64");
    EXPECT_EQ(s.isa, IsaKind::hx64);
    EXPECT_TRUE(s.executable);
    EXPECT_EQ(s.bytes.size(), 1u);
}

/** Property: random ALU programs agree with C++ semantics. */
class Hx64AluProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(Hx64AluProperty, RandomOps)
{
    Rng rng(GetParam());
    std::uint64_t a = rng.next();
    std::uint64_t b = rng.next() | 1; // avoid div-by-zero
    unsigned shift = static_cast<unsigned>(rng.below(64));

    struct Case
    {
        const char *op;
        std::uint64_t expect;
    };
    const Case cases[] = {
        {"add", a + b},
        {"sub", a - b},
        {"and", a & b},
        {"or", a | b},
        {"xor", a ^ b},
        {"mul", a * b},
        {"udiv", a / b},
        {"urem", a % b},
    };

    for (const Case &c : cases) {
        TimingConfig timing;
        PlatformConfig platform;
        MemSystem mem(timing, platform);
        PhysAllocator alloc("t", 0x100000, 16 << 20);
        PageTableManager ptm(mem, alloc);
        std::string src = std::string("f: mov rax, rdi\n ") + c.op +
                          " rax, rsi\n ret\n";
        Section s = hx64Assemble(src);
        Addr cr3 = ptm.createRoot();
        Addr pa = alloc.allocate(4096);
        mem.hostDram().write(pa, s.bytes.data(), s.bytes.size());
        ptm.map(cr3, 0x400000, pa, 4096, PageSize::size4K, pte::user);
        Addr sp_pa = alloc.allocate(4096);
        ptm.map(cr3, 0x7ff000, sp_pa, 4096, PageSize::size4K,
                pte::user | pte::writable | pte::noExecute);

        CoreParams p;
        p.name = "c";
        p.requester = Requester::hostCore;
        p.freqHz = 2'400'000'000ull;
        p.mmuPolicy.faultOnNxFetch = true;
        Hx64Core core(p, mem);
        core.mmu().setCr3(cr3);
        core.setStackPointer(0x7ffff8);
        core.setupCall(0x400000, std::array<std::uint64_t, 2>{a, b});
        RunResult r = core.run(100);
        ASSERT_EQ(r.stop, Fault::trampoline) << c.op;
        EXPECT_EQ(core.retVal(), c.expect) << c.op;
    }
    (void)shift;
}

INSTANTIATE_TEST_SUITE_P(Seeds, Hx64AluProperty, ::testing::Range(1, 17));

} // namespace
} // namespace flick
