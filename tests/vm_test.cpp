/**
 * @file
 * Unit tests for virtual memory: PTEs, allocators, page tables, walker,
 * TLB (incl. BAR remap), MMU policies and holes.
 */

#include <gtest/gtest.h>

#include "mem/mem_system.hh"
#include "sim/random.hh"
#include "vm/mmu.hh"
#include "vm/page_table.hh"
#include "vm/phys_allocator.hh"

namespace flick
{
namespace
{

TEST(Pte, FieldHelpers)
{
    std::uint64_t e = pte::makeEntry(0x12345000, pte::present |
                                                     pte::writable |
                                                     pte::noExecute);
    EXPECT_EQ(pte::entryAddr(e), 0x12345000u);
    EXPECT_TRUE(e & pte::present);
    EXPECT_TRUE(e & pte::noExecute);
    EXPECT_FALSE(e & pte::user);
}

TEST(Pte, IsaTagRoundTrip)
{
    for (unsigned tag = 0; tag < 0x80; ++tag) {
        std::uint64_t e = pte::makeEntry(0x1000, pte::makeIsaTag(tag));
        EXPECT_EQ(pte::isaTag(e), tag);
    }
    // The tag field does not collide with NX or the address.
    std::uint64_t e = pte::makeEntry(pte::addrMask,
                                     pte::makeIsaTag(0x7f) | pte::noExecute);
    EXPECT_EQ(pte::entryAddr(e), pte::addrMask);
    EXPECT_TRUE(e & pte::noExecute);
}

TEST(Pte, Canonical)
{
    EXPECT_TRUE(isCanonical(0));
    EXPECT_TRUE(isCanonical(0x00007fffffffffffull));
    EXPECT_FALSE(isCanonical(0x0000800000000000ull));
    EXPECT_TRUE(isCanonical(0xffff800000000000ull));
    EXPECT_TRUE(isCanonical(~0ull));
}

TEST(Pte, TableIndex)
{
    VAddr va = (3ull << 39) | (5ull << 30) | (7ull << 21) | (9ull << 12);
    EXPECT_EQ(tableIndex(va, 3), 3u);
    EXPECT_EQ(tableIndex(va, 2), 5u);
    EXPECT_EQ(tableIndex(va, 1), 7u);
    EXPECT_EQ(tableIndex(va, 0), 9u);
}

TEST(PhysAllocator, AlignedAllocation)
{
    PhysAllocator alloc("t", 0x1000, 1 << 20);
    Addr a = alloc.allocate(4096);
    Addr b = alloc.allocate(8192, 8192);
    EXPECT_EQ(a % 4096, 0u);
    EXPECT_EQ(b % 8192, 0u);
    EXPECT_EQ(alloc.allocatedBytes(), 4096u + 8192u);
}

TEST(PhysAllocator, ExhaustionIsFatal)
{
    PhysAllocator alloc("t", 0, 8192);
    alloc.allocate(8192);
    EXPECT_DEATH(alloc.allocate(4096), "exhausted");
}

class PageTableTest : public ::testing::Test
{
  protected:
    TimingConfig timing;
    PlatformConfig platform;
    MemSystem mem{timing, platform};
    PhysAllocator alloc{"pt", 0x100000, 64 << 20};
    PageTableManager ptm{mem, alloc};
};

TEST_F(PageTableTest, Map4kAndTranslate)
{
    Addr cr3 = ptm.createRoot();
    ptm.map(cr3, 0x400000, 0x7000, 4096, PageSize::size4K,
            pte::user | pte::writable);
    auto tr = ptm.translate(cr3, 0x400123);
    ASSERT_TRUE(tr.has_value());
    EXPECT_EQ(tr->pa, 0x7123u);
    EXPECT_EQ(tr->size, PageSize::size4K);
    EXPECT_TRUE(tr->entry & pte::writable);
    EXPECT_FALSE(ptm.translate(cr3, 0x401000).has_value());
}

TEST_F(PageTableTest, MapHugePages)
{
    Addr cr3 = ptm.createRoot();
    ptm.map(cr3, 1ull << 30, 2ull << 30, 1ull << 30, PageSize::size1G,
            pte::user);
    ptm.map(cr3, 4ull << 30, 2ull << 21, 2ull << 21, PageSize::size2M,
            pte::user);

    auto tr1 = ptm.translate(cr3, (1ull << 30) + 0x555);
    ASSERT_TRUE(tr1);
    EXPECT_EQ(tr1->pa, (2ull << 30) + 0x555);
    EXPECT_EQ(tr1->size, PageSize::size1G);

    auto tr2 = ptm.translate(cr3, (4ull << 30) + (1ull << 21) + 9);
    ASSERT_TRUE(tr2);
    EXPECT_EQ(tr2->pa, (2ull << 21) + (1ull << 21) + 9);
    EXPECT_EQ(tr2->size, PageSize::size2M);
}

TEST_F(PageTableTest, ProtectTogglesNx)
{
    Addr cr3 = ptm.createRoot();
    ptm.map(cr3, 0x400000, 0x8000, 8192, PageSize::size4K, pte::user);
    EXPECT_FALSE(ptm.translate(cr3, 0x400000)->entry & pte::noExecute);

    // The loader's extended mprotect() marks NxP text pages NX.
    ptm.protect(cr3, 0x400000, 8192, pte::noExecute, 0);
    EXPECT_TRUE(ptm.translate(cr3, 0x400000)->entry & pte::noExecute);
    EXPECT_TRUE(ptm.translate(cr3, 0x401000)->entry & pte::noExecute);

    ptm.protect(cr3, 0x401000, 4096, 0, pte::noExecute);
    EXPECT_TRUE(ptm.translate(cr3, 0x400000)->entry & pte::noExecute);
    EXPECT_FALSE(ptm.translate(cr3, 0x401000)->entry & pte::noExecute);
}

TEST_F(PageTableTest, Unmap)
{
    Addr cr3 = ptm.createRoot();
    ptm.map(cr3, 0x400000, 0x8000, 8192, PageSize::size4K, pte::user);
    ptm.unmap(cr3, 0x400000, 4096);
    EXPECT_FALSE(ptm.translate(cr3, 0x400000).has_value());
    EXPECT_TRUE(ptm.translate(cr3, 0x401000).has_value());
}

TEST_F(PageTableTest, DoubleMapPanics)
{
    Addr cr3 = ptm.createRoot();
    ptm.map(cr3, 0x400000, 0x8000, 4096, PageSize::size4K, pte::user);
    EXPECT_DEATH(
        ptm.map(cr3, 0x400000, 0x9000, 4096, PageSize::size4K, pte::user),
        "already mapped");
}

TEST_F(PageTableTest, SeparateAddressSpaces)
{
    Addr cr3a = ptm.createRoot();
    Addr cr3b = ptm.createRoot();
    ptm.map(cr3a, 0x400000, 0x8000, 4096, PageSize::size4K, pte::user);
    EXPECT_TRUE(ptm.translate(cr3a, 0x400000).has_value());
    EXPECT_FALSE(ptm.translate(cr3b, 0x400000).has_value());
}

TEST_F(PageTableTest, RandomMappingsProperty)
{
    Addr cr3 = ptm.createRoot();
    Rng rng(5);
    std::map<VAddr, Addr> expect;
    for (int i = 0; i < 200; ++i) {
        VAddr va = (rng.below(1 << 16)) << 12;
        Addr pa = (rng.below(1 << 12)) << 12;
        if (expect.count(va))
            continue;
        ptm.map(cr3, va, pa, 4096, PageSize::size4K, pte::user);
        expect[va] = pa;
    }
    for (auto [va, pa] : expect) {
        auto tr = ptm.translate(cr3, va + 7);
        ASSERT_TRUE(tr);
        EXPECT_EQ(tr->pa, pa + 7);
    }
}

TEST_F(PageTableTest, WalkerTimingPerLevel)
{
    Addr cr3 = ptm.createRoot();
    ptm.map(cr3, 0x400000, 0x8000, 4096, PageSize::size4K, pte::user);

    PageTableWalker host_walker("hw", mem, Requester::hostCore, ns(20));
    WalkResult r = host_walker.walk(cr3, 0x400000);
    EXPECT_TRUE(r.present);
    EXPECT_EQ(r.levels, 4);
    EXPECT_EQ(r.latency, ns(20) + 4 * timing.hostToHostDram);
    EXPECT_EQ(r.pageBase, 0x8000u);
    EXPECT_EQ(r.granule, 4096u);

    // The NxP's programmable MMU pays cross-PCIe reads per level: the
    // reason huge pages matter (Section V).
    PageTableWalker nxp_walker("nw", mem, Requester::nxpMmu, ns(400));
    WalkResult rn = nxp_walker.walk(cr3, 0x400000);
    EXPECT_EQ(rn.latency, ns(400) + 4 * timing.nxpToHostDram);

    ptm.map(cr3, 1ull << 30, 1ull << 30, 1ull << 30, PageSize::size1G,
            pte::user);
    WalkResult rg = nxp_walker.walk(cr3, 1ull << 30);
    EXPECT_EQ(rg.levels, 2);
    EXPECT_EQ(rg.latency, ns(400) + 2 * timing.nxpToHostDram);
}

TEST_F(PageTableTest, WalkerNotPresent)
{
    Addr cr3 = ptm.createRoot();
    PageTableWalker w("w", mem, Requester::hostCore, 0);
    WalkResult r = w.walk(cr3, 0x12345000);
    EXPECT_FALSE(r.present);
    EXPECT_EQ(w.stats().get("not_present"), 1u);
}

TEST(Tlb, HitMissAndLru)
{
    Tlb tlb("t", 2);
    EXPECT_EQ(tlb.lookup(0x1000), nullptr);
    tlb.insert(0x1000, 0xa000, 4096, pte::present);
    tlb.insert(0x2000, 0xb000, 4096, pte::present);
    EXPECT_NE(tlb.lookup(0x1abc), nullptr);
    EXPECT_EQ(tlb.lookup(0x1abc)->pbase, 0xa000u);
    // Touch 0x1000 so 0x2000 is LRU; inserting a third evicts 0x2000.
    tlb.lookup(0x1000);
    tlb.insert(0x3000, 0xc000, 4096, pte::present);
    EXPECT_NE(tlb.lookup(0x1000), nullptr);
    EXPECT_EQ(tlb.lookup(0x2000), nullptr);
    EXPECT_NE(tlb.lookup(0x3000), nullptr);
    EXPECT_EQ(tlb.stats().get("evictions"), 1u);
}

TEST(Tlb, MixedGranules)
{
    Tlb tlb("t", 8);
    tlb.insert(0, 0x40000000, 1ull << 30, pte::present);
    tlb.insert(1ull << 30, 0x1000, 4096, pte::present);
    const TlbEntry *huge = tlb.lookup(0x3fffffff);
    ASSERT_NE(huge, nullptr);
    EXPECT_EQ(huge->granule, 1ull << 30);
    const TlbEntry *small = tlb.lookup((1ull << 30) + 5);
    ASSERT_NE(small, nullptr);
    EXPECT_EQ(small->granule, 4096u);
}

TEST(Tlb, FlushAllAndVa)
{
    Tlb tlb("t", 4);
    tlb.insert(0x1000, 0xa000, 4096, pte::present);
    tlb.insert(0x2000, 0xb000, 4096, pte::present);
    tlb.flushVa(0x1fff); // inside the first page
    EXPECT_EQ(tlb.lookup(0x1000), nullptr);
    EXPECT_NE(tlb.lookup(0x2000), nullptr);
    tlb.flushAll();
    EXPECT_EQ(tlb.lookup(0x2000), nullptr);
}

TEST(Tlb, BarRemap)
{
    PlatformConfig p;
    Tlb tlb("t", 4);
    tlb.setBarRemap(p.bar0Base, p.nxpDramBytes, p.barRemapOffset());
    // Addresses inside the BAR window shift to local addresses.
    EXPECT_EQ(tlb.applyRemap(p.bar0Base + 0x123),
              p.nxpDramLocalBase + 0x123);
    // Addresses outside pass through.
    EXPECT_EQ(tlb.applyRemap(0x5000), 0x5000u);
    EXPECT_EQ(tlb.applyRemap(p.bar0Base + p.nxpDramBytes),
              p.bar0Base + p.nxpDramBytes);
}

TEST(Tlb, CapacityStress)
{
    Tlb tlb("t", 16);
    for (std::uint64_t i = 0; i < 64; ++i)
        tlb.insert(i << 12, i << 12, 4096, pte::present);
    // Only the last 16 remain.
    unsigned live = 0;
    for (std::uint64_t i = 0; i < 64; ++i)
        live += tlb.lookup(i << 12) != nullptr;
    EXPECT_EQ(live, 16u);
    for (std::uint64_t i = 48; i < 64; ++i)
        EXPECT_NE(tlb.lookup(i << 12), nullptr);
}

class MmuTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cr3 = ptm.createRoot();
    }

    TimingConfig timing;
    PlatformConfig platform;
    MemSystem mem{timing, platform};
    PhysAllocator alloc{"pt", 0x100000, 64 << 20};
    PageTableManager ptm{mem, alloc};
    Addr cr3 = 0;
};

TEST_F(MmuTest, HostNxPolicy)
{
    Mmu mmu("m", mem, Requester::hostCore, 0, 16, 16,
            MmuPolicy{.faultOnNxFetch = true});
    mmu.setCr3(cr3);
    ptm.map(cr3, 0x400000, 0x8000, 4096, PageSize::size4K, pte::user);
    ptm.map(cr3, 0x401000, 0x9000, 4096, PageSize::size4K,
            pte::user | pte::noExecute);

    EXPECT_EQ(mmu.translate(0x400000, AccessType::fetch).fault,
              Fault::none);
    EXPECT_EQ(mmu.translate(0x401000, AccessType::fetch).fault,
              Fault::nxFetch);
    // Data reads of NX pages are fine.
    EXPECT_EQ(mmu.translate(0x401000, AccessType::read).fault,
              Fault::none);
}

TEST_F(MmuTest, NxpInvertedPolicy)
{
    Mmu mmu("m", mem, Requester::nxpMmu, 0, 16, 16,
            MmuPolicy{.faultOnNonNxFetch = true});
    mmu.setCr3(cr3);
    ptm.map(cr3, 0x400000, 0x8000, 4096, PageSize::size4K, pte::user);
    ptm.map(cr3, 0x401000, 0x9000, 4096, PageSize::size4K,
            pte::user | pte::noExecute);

    // The NxP faults on host (non-NX) text and runs NX-marked NxP text.
    EXPECT_EQ(mmu.translate(0x400000, AccessType::fetch).fault,
              Fault::nonNxFetch);
    EXPECT_EQ(mmu.translate(0x401000, AccessType::fetch).fault,
              Fault::none);
}

TEST_F(MmuTest, WriteProtection)
{
    Mmu mmu("m", mem, Requester::hostCore, 0, 16, 16, MmuPolicy{});
    mmu.setCr3(cr3);
    ptm.map(cr3, 0x400000, 0x8000, 4096, PageSize::size4K, pte::user);
    EXPECT_EQ(mmu.translate(0x400000, AccessType::write).fault,
              Fault::protection);
    EXPECT_EQ(mmu.translate(0x400000, AccessType::read).fault,
              Fault::none);
}

TEST_F(MmuTest, NotPresentAndNonCanonical)
{
    Mmu mmu("m", mem, Requester::hostCore, 0, 16, 16, MmuPolicy{});
    mmu.setCr3(cr3);
    EXPECT_EQ(mmu.translate(0x400000, AccessType::read).fault,
              Fault::notPresent);
    EXPECT_EQ(mmu.translate(0x0000800000000000ull, AccessType::read).fault,
              Fault::badAddress);
}

TEST_F(MmuTest, WalkLatencyOnlyOnMiss)
{
    Mmu mmu("m", mem, Requester::hostCore, ns(20), 16, 16, MmuPolicy{});
    mmu.setCr3(cr3);
    ptm.map(cr3, 0x400000, 0x8000, 4096, PageSize::size4K, pte::user);

    TranslationResult first = mmu.translate(0x400000, AccessType::read);
    EXPECT_GT(first.latency, 0u);
    TranslationResult second = mmu.translate(0x400008, AccessType::read);
    EXPECT_EQ(second.latency, 0u);
    EXPECT_EQ(second.pa, 0x8008u);
}

TEST_F(MmuTest, MprotectChangeObservedAfterShootdown)
{
    Mmu mmu("m", mem, Requester::hostCore, 0, 16, 16,
            MmuPolicy{.faultOnNxFetch = true});
    mmu.setCr3(cr3);
    ptm.map(cr3, 0x400000, 0x8000, 4096, PageSize::size4K, pte::user);
    EXPECT_EQ(mmu.translate(0x400000, AccessType::fetch).fault,
              Fault::none);

    ptm.protect(cr3, 0x400000, 4096, pte::noExecute, 0);
    mmu.flushTlbs(); // TLB shootdown
    EXPECT_EQ(mmu.translate(0x400000, AccessType::fetch).fault,
              Fault::nxFetch);
}

TEST_F(MmuTest, FaultingTranslationsAreCachedLikeHardware)
{
    Mmu mmu("m", mem, Requester::hostCore, ns(20), 16, 16,
            MmuPolicy{.faultOnNxFetch = true});
    mmu.setCr3(cr3);
    ptm.map(cr3, 0x400000, 0x8000, 4096, PageSize::size4K,
            pte::user | pte::noExecute);
    TranslationResult first = mmu.translate(0x400000, AccessType::fetch);
    EXPECT_EQ(first.fault, Fault::nxFetch);
    EXPECT_GT(first.latency, 0u); // walked

    // Repeat faults come straight from the TLB: no second walk. This is
    // what keeps repeated cross-ISA calls from paying a cross-PCIe walk
    // every time.
    TranslationResult again = mmu.translate(0x400000, AccessType::fetch);
    EXPECT_EQ(again.fault, Fault::nxFetch);
    EXPECT_EQ(again.latency, 0u);

    // New permissions need a TLB shootdown, as on real hardware.
    ptm.protect(cr3, 0x400000, 4096, 0, pte::noExecute);
    EXPECT_EQ(mmu.translate(0x400000, AccessType::fetch).fault,
              Fault::nxFetch);
    mmu.flushTlbs();
    EXPECT_EQ(mmu.translate(0x400000, AccessType::fetch).fault,
              Fault::none);
}

TEST_F(MmuTest, BarRemapAppliedToDataPath)
{
    PlatformConfig p;
    Mmu mmu("m", mem, Requester::nxpMmu, 0, 16, 16, MmuPolicy{});
    mmu.setCr3(cr3);
    mmu.setBarRemap(p.bar0Base, p.nxpDramBytes, p.barRemapOffset());
    ptm.map(cr3, 0x400000, p.bar0Base, 4096, PageSize::size4K,
            pte::user | pte::writable);
    TranslationResult tr = mmu.translate(0x400123, AccessType::read);
    EXPECT_EQ(tr.fault, Fault::none);
    EXPECT_EQ(tr.pa, p.nxpDramLocalBase + 0x123);
}

TEST_F(MmuTest, Holes)
{
    Mmu mmu("m", mem, Requester::nxpMmu, 0, 16, 16, MmuPolicy{});
    mmu.setCr3(cr3);
    // A programmable-MMU hole needs no page tables at all.
    mmu.addHole(0x7000000000ull, 1 << 20, 0x80001000ull);
    TranslationResult tr =
        mmu.translate(0x7000000040ull, AccessType::write);
    EXPECT_EQ(tr.fault, Fault::none);
    EXPECT_EQ(tr.pa, 0x80001040ull);
    EXPECT_EQ(tr.latency, 0u);
    mmu.clearHoles();
    EXPECT_EQ(mmu.translate(0x7000000040ull, AccessType::write).fault,
              Fault::notPresent);
}

TEST_F(MmuTest, SetCr3FlushesTlbs)
{
    Mmu mmu("m", mem, Requester::hostCore, 0, 16, 16, MmuPolicy{});
    Addr cr3b = ptm.createRoot();
    mmu.setCr3(cr3);
    ptm.map(cr3, 0x400000, 0x8000, 4096, PageSize::size4K, pte::user);
    mmu.translate(0x400000, AccessType::read);
    mmu.setCr3(cr3b);
    EXPECT_EQ(mmu.translate(0x400000, AccessType::read).fault,
              Fault::notPresent);
}

} // namespace
} // namespace flick
