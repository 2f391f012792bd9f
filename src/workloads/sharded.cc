#include "workloads/sharded.hh"

#include <string>

namespace flick::workloads
{

namespace
{

// The word-sum loop shared by every twin. @p sym is the function
// symbol, @p lbl the per-twin label prefix (labels are global across
// assembly units).
std::string
sumFn(const std::string &sym, const std::string &lbl)
{
    return sym + ":\n"
           "    li t0, 0\n" +
           lbl + "_loop:\n"
           "    beqz a1, " + lbl + "_done\n"
           "    ld t1, 0(a0)\n"
           "    add t0, t0, t1\n"
           "    addi a0, a0, 8\n"
           "    addi a1, a1, -1\n"
           "    j " + lbl + "_loop\n" +
           lbl + "_done:\n"
           "    mv a0, t0\n"
           "    ret\n";
}

std::string
nxpShardedDev0()
{
    return "# --- sharded workload, device-0 home symbols (RV64) "
           "----------------\n\n" +
           sumFn("shard_sum", "ss0") + "\n" +
           sumFn("shard_gather", "sg0");
}

// Device-k twins (identical RV64 text, assembled for NxP k).
std::string
nxpShardedTwin(unsigned k)
{
    std::string n = std::to_string(k);
    return "\n# --- device-" + n + " twins (identical RV64 text, "
           "assembled for NxP " + n + ") -------\n\n" +
           sumFn("shard_sum__dev" + n, "ss" + n) + "\n" +
           sumFn("shard_gather__dev" + n, "sg" + n);
}

// Host-ISA twin of shard_sum only: shard_gather deliberately has none,
// so its calls always run on an NxP, whichever DRAM holds their data.
const char *hostShardedTwin = R"(
# --- host-ISA twin (identical value, HX64) ---------------------------

shard_sum__host:
    mov rax, 0
ssh_loop:
    cmp rsi, 0
    je ssh_done
    ld rdx, [rdi+0]
    add rax, rdx
    add rdi, 8
    sub rsi, 1
    jmp ssh_loop
ssh_done:
    ret
)";

} // namespace

void
addShardedKernels(Program &program, unsigned devices)
{
    program.addNxpAsm(nxpShardedDev0(), 0);
    for (unsigned k = 1; k < devices; ++k)
        program.addNxpAsm(nxpShardedTwin(k), k);
    program.addHostAsm(hostShardedTwin);
}

} // namespace flick::workloads
