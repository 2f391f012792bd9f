/**
 * @file
 * Unit tests for the program loader: NX bits by section ISA, placement
 * of NxP-local sections, stack/heap/window/native-gate mappings.
 */

#include <gtest/gtest.h>

#include "isa/hx64/assembler.hh"
#include "isa/rv64/assembler.hh"
#include "loader/loader.hh"

namespace flick
{
namespace
{

class LoaderTest : public ::testing::Test
{
  protected:
    LoaderTest()
        : mem(timing, platform),
          hostAlloc("host", 0x100000, 256 << 20),
          nxpAlloc("nxp", platform.nxpDramLocalBase + (1 << 20),
                   256 << 20),
          ptm(mem, hostAlloc),
          loader(mem, ptm, hostAlloc, nxpAlloc)
    {}

    LinkedImage
    makeImage()
    {
        MultiIsaLinker linker;
        linker.addSection(hx64Assemble("hmain: call nfunc\n ret\n"));
        linker.addSection(rv64Assemble("nfunc: ret\n"));
        Section data;
        data.name = ".data.glob";
        data.isa = IsaKind::hx64;
        data.writable = true;
        data.bytes = std::vector<std::uint8_t>(64, 0xaa);
        data.symbols["glob"] = 0;
        linker.addSection(data);
        Section nxp_data;
        nxp_data.name = ".data.nxp.hot";
        nxp_data.isa = IsaKind::rv64;
        nxp_data.writable = true;
        nxp_data.nxpLocal = true;
        nxp_data.bytes = std::vector<std::uint8_t>(64, 0xbb);
        nxp_data.symbols["hot"] = 0;
        linker.addSection(nxp_data);
        return linker.link();
    }

    TimingConfig timing;
    PlatformConfig platform;
    MemSystem mem;
    PhysAllocator hostAlloc;
    PhysAllocator nxpAlloc;
    PageTableManager ptm;
    ProgramLoader loader;
};

TEST_F(LoaderTest, NxBitsBySectionIsa)
{
    LinkedImage img = makeImage();
    LoadedProgram prog = loader.load(img);

    // Host text: NX clear. NxP text: NX set (the extended mprotect).
    auto host_text = ptm.translate(prog.cr3, prog.symbol("hmain"));
    ASSERT_TRUE(host_text);
    EXPECT_FALSE(host_text->entry & pte::noExecute);
    EXPECT_FALSE(host_text->entry & pte::writable);

    auto nxp_text = ptm.translate(prog.cr3, prog.symbol("nfunc"));
    ASSERT_TRUE(nxp_text);
    EXPECT_TRUE(nxp_text->entry & pte::noExecute);
}

TEST_F(LoaderTest, DataPlacedInHostMemoryNxSet)
{
    LinkedImage img = makeImage();
    LoadedProgram prog = loader.load(img);
    auto d = ptm.translate(prog.cr3, prog.symbol("glob"));
    ASSERT_TRUE(d);
    EXPECT_TRUE(d->entry & pte::noExecute);
    EXPECT_TRUE(d->entry & pte::writable);
    EXPECT_TRUE(platform.inHostDram(d->pa));
    // Bytes are in place.
    EXPECT_EQ(mem.hostDram().readInt(d->pa, 1), 0xaau);
}

TEST_F(LoaderTest, AnnotatedSectionsLandInNxpDram)
{
    LinkedImage img = makeImage();
    LoadedProgram prog = loader.load(img);
    auto d = ptm.translate(prog.cr3, prog.symbol("hot"));
    ASSERT_TRUE(d);
    // The PTE holds a BAR0 physical address (Section III-D): the host
    // reaches it over PCIe, the NxP TLB remaps it to local DRAM.
    EXPECT_TRUE(platform.inBar0(d->pa));
    Addr local = d->pa - platform.barRemapOffset();
    EXPECT_EQ(mem.nxpDram().readInt(local - platform.nxpDramLocalBase, 1),
              0xbbu);
}

TEST_F(LoaderTest, StackHeapAndGatesMapped)
{
    LinkedImage img = makeImage();
    LoadedProgram prog = loader.load(img);

    auto stack = ptm.translate(prog.cr3, prog.hostStackTop - 8);
    ASSERT_TRUE(stack);
    EXPECT_TRUE(stack->entry & pte::writable);

    auto heap = ptm.translate(prog.cr3, prog.hostHeapBase);
    ASSERT_TRUE(heap);
    EXPECT_TRUE(heap->entry & pte::writable);

    auto host_gate = ptm.translate(prog.cr3, layout::nativeGateHost);
    ASSERT_TRUE(host_gate);
    EXPECT_FALSE(host_gate->entry & pte::noExecute);

    auto nxp_gate = ptm.translate(prog.cr3, layout::nativeGateNxp);
    ASSERT_TRUE(nxp_gate);
    EXPECT_TRUE(nxp_gate->entry & pte::noExecute);
}

TEST_F(LoaderTest, NxpWindowMappedWithHugePages)
{
    LinkedImage img = makeImage();
    LoadedProgram prog = loader.load(img);

    ASSERT_EQ(prog.nxpWindows.size(), 1u);
    ASSERT_EQ(prog.nxpWindows[0], layout::nxpWindowBase);
    ASSERT_EQ(prog.nxpWindowSizes[0], platform.nxpDramBytes);

    auto w = ptm.translate(prog.cr3, prog.nxpWindows[0] + 0x12345);
    ASSERT_TRUE(w);
    EXPECT_EQ(w->size, PageSize::size1G);
    EXPECT_EQ(w->pa, platform.bar0Base + 0x12345);

    // Last byte of the window.
    auto end = ptm.translate(
        prog.cr3, prog.nxpWindows[0] + platform.nxpDramBytes - 1);
    ASSERT_TRUE(end);
    EXPECT_EQ(end->pa, platform.bar0Base + platform.nxpDramBytes - 1);
}

TEST_F(LoaderTest, WindowPageSizeOption)
{
    LinkedImage img = makeImage();
    LoadOptions opt;
    opt.nxpWindowPageSize = PageSize::size2M;
    LoadedProgram prog = loader.load(img, opt);
    auto w = ptm.translate(prog.cr3, prog.nxpWindows[0]);
    ASSERT_TRUE(w);
    EXPECT_EQ(w->size, PageSize::size2M);
}

TEST_F(LoaderTest, WindowCanBeDisabled)
{
    LinkedImage img = makeImage();
    LoadOptions opt;
    opt.mapNxpWindow = false;
    LoadedProgram prog = loader.load(img, opt);
    EXPECT_TRUE(prog.nxpWindows.empty());
    EXPECT_FALSE(
        ptm.translate(prog.cr3, layout::nxpWindowBase).has_value());
}

TEST_F(LoaderTest, TwoProcessesAreIsolated)
{
    LinkedImage img = makeImage();
    LoadedProgram a = loader.load(img);
    LoadedProgram b = loader.load(img);
    EXPECT_NE(a.cr3, b.cr3);
    auto ta = ptm.translate(a.cr3, a.symbol("glob"));
    auto tb = ptm.translate(b.cr3, b.symbol("glob"));
    ASSERT_TRUE(ta);
    ASSERT_TRUE(tb);
    EXPECT_NE(ta->pa, tb->pa); // separate frames
}

TEST_F(LoaderTest, SymbolLookup)
{
    LinkedImage img = makeImage();
    LoadedProgram prog = loader.load(img);
    EXPECT_NO_FATAL_FAILURE(prog.symbol("hmain"));
    EXPECT_DEATH(prog.symbol("missing"), "undefined symbol");
}

} // namespace
} // namespace flick
