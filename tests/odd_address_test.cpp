/**
 * @file
 * Regression test for the cross-ISA odd-address hazard found by the
 * call-graph fuzzer.
 *
 * RISC-V's JALR clears bit 0 of its computed target (reserved for
 * compressed-mode interworking), so if a variable-length host function
 * starts at an odd address, an NxP call lands one byte short and
 * executes whatever bytes precede the function. Real x86 toolchains
 * align function entries; our HX64 assembler keeps every label at an
 * even address for the same reason. These tests pin that behaviour.
 */

#include <gtest/gtest.h>

#include "flick/system.hh"
#include "isa/hx64/assembler.hh"

namespace flick
{
namespace
{

TEST(OddAddress, LabelsAreAlwaysEven)
{
    // `ret` is one byte, so g would start at offset 1 without padding.
    Section s = hx64Assemble(R"(
f:
    ret
g:
    ret
h:
    mov rax, 1
    ret
i:
    ret
)");
    for (const auto &[name, offset] : s.symbols)
        EXPECT_EQ(offset % 2, 0u) << name << " at odd offset";
}

TEST(OddAddress, PaddingIsFallthroughSafe)
{
    // Code that falls through a padded label must still compute the
    // right value (the pad is a nop).
    FlickSystem sys;
    Program prog;
    prog.addHostAsm(R"(
f:
    mov rax, 5
    jmp join
unreachable:
    ret
join:
    add rax, 2
    ret
)");
    Process &proc = sys.load(prog);
    EXPECT_EQ(sys.call(proc, "f"), 7u);
}

TEST(OddAddress, NxpCallsHostFunctionAfterOneByteInsn)
{
    // Without alignment, `target` would sit at an odd address right
    // after the 1-byte ret, and the NxP's JALR would land on the ret
    // itself, silently returning a stale value — the exact failure the
    // fuzzer caught.
    FlickSystem sys;
    Program prog;
    prog.addHostAsm(R"(
pad:
    ret
target:
    mov rax, rdi
    add rax, 1000
    ret
)");
    prog.addNxpAsm(R"(
caller:
    addi sp, sp, -16
    sd ra, 8(sp)
    call target
    addi a0, a0, 1
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
)");
    Process &proc = sys.load(prog);
    EXPECT_EQ(sys.call(proc, "caller", {5}), 1006u);
    // One NxP->host round trip actually happened (we did not silently
    // run the wrong bytes).
    EXPECT_EQ(sys.debug().engine().stats().get("nxp_to_host_calls"), 1u);
}

TEST(OddAddress, FunctionPointerFromNxpToOddishHostTargets)
{
    FlickSystem sys;
    Program prog;
    prog.addHostAsm(R"(
a:
    ret
b:
    ret
c:
    mov rax, 77
    ret
)");
    prog.addNxpAsm(R"(
call_ptr:
    addi sp, sp, -16
    sd ra, 8(sp)
    mv t0, a0
    jalr t0
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
)");
    Process &proc = sys.load(prog);
    EXPECT_EQ(sys.call(proc, "call_ptr", {proc.image.symbol("c")}), 77u);
}

} // namespace
} // namespace flick
