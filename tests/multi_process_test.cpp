/**
 * @file
 * Multi-process tests: address-space isolation, per-process heaps and
 * tasks, interleaved execution across processes, shared NxP window.
 */

#include <gtest/gtest.h>

#include "flick/system.hh"
#include "workloads/microbench.hh"

namespace flick
{
namespace
{

const char *memAsm = R"(
poke:           # poke(addr, value)
    st [rdi+0], rsi
    mov rax, 0
    ret
peek:           # peek(addr)
    ld rax, [rdi+0]
    ret
)";

const char *nxpMemAsm = R"(
nxp_poke:
    sd a1, 0(a0)
    li a0, 0
    ret
nxp_peek:
    ld a0, 0(a0)
    ret
)";

class MultiProcessTest : public ::testing::Test
{
  protected:
    Process &
    spawn()
    {
        Program prog;
        workloads::addMicrobench(prog);
        prog.addHostAsm(memAsm);
        prog.addNxpAsm(nxpMemAsm);
        return sys.load(prog);
    }

    FlickSystem sys;
};

TEST_F(MultiProcessTest, HostHeapsAreIsolated)
{
    Process &a = spawn();
    Process &b = spawn();
    VAddr pa = sys.hostMalloc(a, 64);
    VAddr pb = sys.hostMalloc(b, 64);
    // Same VA range (both heaps start at the same base address), but
    // distinct physical frames per process.
    EXPECT_EQ(pa, pb);
    sys.call(a, "poke", {pa, 111});
    sys.call(b, "poke", {pb, 222});
    EXPECT_EQ(sys.call(a, "peek", {pa}), 111u);
    EXPECT_EQ(sys.call(b, "peek", {pb}), 222u);
}

TEST_F(MultiProcessTest, NxpWindowIsSharedPhysicalMemory)
{
    // The NxP window maps the same device DRAM in every process: one
    // process's writes are the other's reads (it is device memory, like
    // the paper's graph shared between loader and traversal).
    Process &a = spawn();
    Process &b = spawn();
    VAddr buf = sys.nxpMalloc(64);
    sys.call(a, "poke", {buf, 777});
    EXPECT_EQ(sys.call(b, "peek", {buf}), 777u);
    EXPECT_EQ(sys.call(b, "nxp_peek", {buf}), 777u);
}

TEST_F(MultiProcessTest, InterleavedMigrations)
{
    Process &a = spawn();
    Process &b = spawn();
    for (std::uint64_t i = 0; i < 10; ++i) {
        ASSERT_EQ(sys.call(a, "nxp_add", {i, 1}), i + 1);
        ASSERT_EQ(sys.call(b, "nxp_add", {i, 2}), i + 2);
    }
    EXPECT_EQ(sys.debug().engine().stats().get("host_to_nxp_calls"), 20u);
    // Each process's thread has its own NxP stack.
    EXPECT_NE(a.task->nxpStackTop[0], b.task->nxpStackTop[0]);
}

TEST_F(MultiProcessTest, ManyProcesses)
{
    std::vector<Process *> procs;
    for (int i = 0; i < 8; ++i)
        procs.push_back(&spawn());
    for (int i = 0; i < 8; ++i) {
        ASSERT_EQ(sys.call(*procs[i], "nxp_add",
                           {static_cast<std::uint64_t>(i), 100}),
                  static_cast<std::uint64_t>(i) + 100);
    }
    // Eight tasks, eight distinct PIDs and CR3s.
    for (int i = 0; i < 8; ++i) {
        for (int j = i + 1; j < 8; ++j) {
            EXPECT_NE(procs[i]->task->pid, procs[j]->task->pid);
            EXPECT_NE(procs[i]->image.cr3, procs[j]->image.cr3);
        }
    }
}

TEST_F(MultiProcessTest, TextIsSharedReadOnlyButDistinctFrames)
{
    Process &a = spawn();
    Process &b = spawn();
    // Identical programs load at identical VAs...
    EXPECT_EQ(a.image.symbol("poke"), b.image.symbol("poke"));
    // ...but each process got its own frames (no sharing model).
    auto ta = sys.debug().pageTables().translate(a.image.cr3, a.image.symbol(
                                                          "poke"));
    auto tb = sys.debug().pageTables().translate(b.image.cr3, b.image.symbol(
                                                          "poke"));
    ASSERT_TRUE(ta && tb);
    EXPECT_NE(ta->pa, tb->pa);
}

} // namespace
} // namespace flick
