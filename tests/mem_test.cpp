/**
 * @file
 * Unit tests for the memory fabric: sparse memory, routing, DMA, IRQ.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "isa/rv64/core.hh"
#include "isa/rv64/encoding.hh"
#include "mem/dma.hh"
#include "mem/irq.hh"
#include "mem/mem_system.hh"
#include "sim/random.hh"
#include "vm/page_table.hh"
#include "vm/phys_allocator.hh"

namespace flick
{
namespace
{

TEST(SparseMemory, ZeroOnFirstRead)
{
    SparseMemory m(1 << 20);
    EXPECT_EQ(m.read64(0x1000), 0u);
    EXPECT_EQ(m.allocatedChunks(), 0u);
}

TEST(SparseMemory, ReadWriteRoundTrip)
{
    SparseMemory m(1 << 20);
    m.write64(0x100, 0xdeadbeefcafef00dull);
    EXPECT_EQ(m.read64(0x100), 0xdeadbeefcafef00dull);
    EXPECT_EQ(m.read32(0x100), 0xcafef00du);
    EXPECT_EQ(m.readInt(0x104, 4), 0xdeadbeefu);
}

TEST(SparseMemory, CrossChunkAccess)
{
    SparseMemory m(1 << 20);
    std::uint8_t out[16] = {};
    std::uint8_t in[16];
    for (int i = 0; i < 16; ++i)
        in[i] = static_cast<std::uint8_t>(i + 1);
    // Straddle the 4 KB chunk boundary.
    m.write(4096 - 8, in, 16);
    m.read(4096 - 8, out, 16);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(out[i], in[i]);
    EXPECT_EQ(m.allocatedChunks(), 2u);
}

TEST(SparseMemory, Fill)
{
    SparseMemory m(1 << 20);
    m.fill(100, 0xab, 300);
    EXPECT_EQ(m.readInt(100, 1), 0xabu);
    EXPECT_EQ(m.readInt(399, 1), 0xabu);
    EXPECT_EQ(m.readInt(400, 1), 0u);
    // Zero-fill of untouched chunks allocates nothing.
    SparseMemory z(1 << 20);
    z.fill(0, 0, 1 << 20);
    EXPECT_EQ(z.allocatedChunks(), 0u);
}

TEST(SparseMemory, IntRoundTripProperty)
{
    SparseMemory m(1 << 20);
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
        unsigned len = 1u << rng.below(4);
        Addr off = rng.below((1 << 20) - 8);
        std::uint64_t v = rng.next();
        std::uint64_t mask =
            len == 8 ? ~0ull : ((1ull << (8 * len)) - 1);
        m.writeInt(off, v, len);
        EXPECT_EQ(m.readInt(off, len), v & mask);
    }
}

/**
 * Seeded write / read / fill / readInt calls, many straddling chunk
 * boundaries, checked against a flat reference buffer. The accesses
 * cluster in a few neighbouring chunks, allocated and absent ones
 * interleaved in every order.
 */
TEST(SparseMemory, MatchesFlatReference)
{
    constexpr std::uint64_t size = 16 * SparseMemory::chunkBytes;
    SparseMemory m(size);
    std::vector<std::uint8_t> ref(size, 0);
    Rng rng(77);
    std::vector<std::uint8_t> buf(3 * SparseMemory::chunkBytes);
    for (int op = 0; op < 4000; ++op) {
        // Near a boundary half the time, anywhere otherwise.
        Addr off = rng.below(2) ? rng.below(size)
                                : (1 + rng.below(15)) *
                                          SparseMemory::chunkBytes -
                                      rng.below(16);
        std::uint64_t len = rng.below(2) ? 1 + rng.below(16)
                                         : 1 + rng.below(buf.size());
        len = std::min<std::uint64_t>(len, size - off);
        switch (rng.below(4)) {
          case 0:
            for (std::uint64_t i = 0; i < len; ++i)
                buf[i] = static_cast<std::uint8_t>(rng.next());
            m.write(off, buf.data(), len);
            std::copy(buf.begin(), buf.begin() + len, ref.begin() + off);
            break;
          case 1: {
            m.read(off, buf.data(), len);
            ASSERT_TRUE(std::equal(buf.begin(), buf.begin() + len,
                                   ref.begin() + off))
                << "op " << op << " read at " << off << " len " << len;
            break;
          }
          case 2: {
            // Zero fills half the time: they must not allocate, yet must
            // clear bytes in chunks that exist.
            std::uint8_t v = rng.below(2) ? 0 : std::uint8_t(rng.next());
            m.fill(off, v, len);
            std::fill(ref.begin() + off, ref.begin() + off + len, v);
            break;
          }
          default: {
            unsigned n = 1u << rng.below(4);
            if (off + n > size)
                break;
            std::uint64_t want = 0;
            for (unsigned i = 0; i < n; ++i)
                want |= std::uint64_t(ref[off + i]) << (8 * i);
            ASSERT_EQ(m.readInt(off, n), want) << "op " << op;
            break;
          }
        }
    }
    std::vector<std::uint8_t> all(size);
    m.read(0, all.data(), size);
    EXPECT_EQ(all, ref);
}

TEST(SparseMemory, UntouchedNeighbourAfterMemoHitReadsZero)
{
    SparseMemory m(1 << 20);
    const Addr c3 = 3 * SparseMemory::chunkBytes;
    m.write64(c3 + 8, 0x1122334455667788ull);
    EXPECT_EQ(m.read64(c3 + 8), 0x1122334455667788ull);
    EXPECT_EQ(m.allocatedChunks(), 1u);
    // The neighbours on both sides were never written.
    EXPECT_EQ(m.read64(c3 + SparseMemory::chunkBytes), 0u);
    EXPECT_EQ(m.read64(c3 - 8), 0u);
    std::uint8_t span[32];
    m.read(c3 + SparseMemory::chunkBytes - 16, span, sizeof span);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(span[16 + i], 0u);
    EXPECT_EQ(m.readInt(c3 + 8, 8), 0x1122334455667788ull);
    m.fill(c3 + SparseMemory::chunkBytes, 0, 64);
    EXPECT_EQ(m.allocatedChunks(), 1u);
    // Writing the neighbour just looked up as absent allocates it.
    m.write64(c3 + SparseMemory::chunkBytes, 42);
    EXPECT_EQ(m.read64(c3 + SparseMemory::chunkBytes), 42u);
    EXPECT_EQ(m.read64(c3 + 8), 0x1122334455667788ull);
    EXPECT_EQ(m.allocatedChunks(), 2u);
}

TEST(SparseMemoryDeath, OutOfRange)
{
    SparseMemory m(4096);
    std::uint8_t b = 0;
    EXPECT_DEATH(m.read(4096, &b, 1), "out of range");
    EXPECT_DEATH(m.write(4090, &b, 8), "out of range");
}

TEST(SparseMemoryDeath, OutOfRangeInt)
{
    // A store whose end is in the middle of a chunk.
    SparseMemory m(SparseMemory::chunkBytes + 16);
    const Addr end = m.size();
    EXPECT_DEATH(m.readInt(end, 1), "out of range");
    EXPECT_DEATH(m.readInt(end - 4, 8), "out of range");
    EXPECT_DEATH(m.writeInt(end, 1, 1), "out of range");
    EXPECT_DEATH(m.writeInt(end - 1, 1, 2), "out of range");
    EXPECT_DEATH(m.writeInt(~Addr(0) - 3, 1, 8), "out of range");
}

// --- Watched chunks: which writes reach the listener ----------------------

/** A store whose listener records every call. */
struct ListenedMemory
{
    explicit ListenedMemory(std::uint64_t size) : m(size)
    {
        m.setWriteListener([this](Addr offset, std::uint64_t len) {
            calls.emplace_back(offset, len);
        });
    }

    SparseMemory m;
    std::vector<std::pair<Addr, std::uint64_t>> calls;
};

constexpr std::uint64_t chunk = SparseMemory::chunkBytes;
constexpr std::uint64_t leaf = chunk * SparseMemory::leafChunks;

TEST(SparseMemoryWatch, UnwatchedWritesNeverCallTheListener)
{
    ListenedMemory lm(4 * leaf);
    SparseMemory &m = lm.m;
    m.watch(5 * chunk);
    m.watch(leaf + 7 * chunk);
    std::vector<std::uint8_t> buf(2 * chunk, 0x5a);
    m.write64(0x100, 1);
    m.writeInt(4 * chunk - 2, 0xffff, 4); // Straddles chunks 3 and 4.
    m.write(6 * chunk, buf.data(), buf.size());
    m.write(5 * chunk - buf.size(), buf.data(), buf.size());
    m.fill(0, 0xab, 5 * chunk); // Ends where watched chunk 5 starts.
    m.fill(6 * chunk, 0, 3 * chunk);
    m.fill(leaf + 8 * chunk, 0x11, chunk);
    m.write64(3 * leaf, 2); // A leaf nothing was watched in.
    EXPECT_TRUE(lm.calls.empty());
    // A zero-length write touches nothing, watched or not.
    m.write(5 * chunk, buf.data(), 0);
    m.fill(5 * chunk, 1, 0);
    EXPECT_TRUE(lm.calls.empty());
}

TEST(SparseMemoryWatch, WriteTouchingOneWatchedChunkCallsOnceWithFullRange)
{
    ListenedMemory lm(4 * leaf);
    SparseMemory &m = lm.m;
    m.watch(2 * chunk + 100); // Any offset names its whole chunk.
    std::vector<std::uint8_t> buf(3 * chunk, 7);
    using Calls = std::vector<std::pair<Addr, std::uint64_t>>;

    // Chunks 1 to 4, of which only chunk 2 is watched.
    m.write(chunk + 10, buf.data(), buf.size());
    EXPECT_EQ(lm.calls, (Calls{{chunk + 10, buf.size()}}));
    lm.calls.clear();
    m.fill(chunk, 0, 3 * chunk);
    EXPECT_EQ(lm.calls, (Calls{{chunk, 3 * chunk}}));
    lm.calls.clear();
    // Integer stores inside the chunk and across either of its edges.
    m.writeInt(2 * chunk + 8, 1, 8);
    m.writeInt(2 * chunk - 4, 2, 8);
    m.writeInt(3 * chunk - 1, 3, 2);
    EXPECT_EQ(lm.calls, (Calls{{2 * chunk + 8, 8},
                               {2 * chunk - 4, 8},
                               {3 * chunk - 1, 2}}));
    lm.calls.clear();
    // A write across a leaf edge into a watched chunk of the next leaf.
    m.watch(leaf);
    m.write(leaf - 8, buf.data(), 16);
    EXPECT_EQ(lm.calls, (Calls{{leaf - 8, 16}}));
}

TEST(SparseMemoryWatch, WatchAllocatesNoChunk)
{
    SparseMemory m(4 * leaf);
    m.watch(3 * chunk);
    m.watch(leaf + 5 * chunk);
    EXPECT_EQ(m.allocatedChunks(), 0u);
    EXPECT_EQ(m.read64(3 * chunk), 0u);
    EXPECT_EQ(m.readInt(4 * chunk - 4, 8), 0u);
    EXPECT_EQ(m.read32(leaf + 5 * chunk + 12), 0u);
    std::vector<std::uint8_t> span(2 * chunk, 0xff);
    m.read(3 * chunk - 8, span.data(), span.size());
    EXPECT_EQ(span, std::vector<std::uint8_t>(2 * chunk, 0));
    EXPECT_EQ(m.allocatedChunks(), 0u);
    // A store to a watched chunk allocates it like any other.
    m.write64(3 * chunk + 8, 9);
    EXPECT_EQ(m.read64(3 * chunk + 8), 9u);
    EXPECT_EQ(m.allocatedChunks(), 1u);
}

/**
 * Integer stores and loads of every width at every start that touches a
 * chunk edge (leaf edges among them) and at the store's last bytes, the
 * store's size being neither a leaf nor a chunk multiple, checked
 * against a flat reference buffer.
 */
TEST(SparseMemory, IntAccessAtChunkEdgesAndStoreEndMatchesFlatReference)
{
    const std::uint64_t size = 2 * leaf + 3 * chunk + 5;
    SparseMemory m(size);
    std::vector<std::uint8_t> ref(size, 0);
    Rng rng(21);
    std::vector<Addr> edges = {chunk, 2 * chunk, leaf - chunk, leaf,
                               leaf + chunk, 2 * leaf, 2 * leaf + chunk,
                               2 * leaf + 3 * chunk, size};
    auto check = [&](Addr off, unsigned len) {
        std::uint64_t want = 0;
        for (unsigned i = 0; i < len; ++i)
            want |= std::uint64_t(ref[off + i]) << (8 * i);
        return m.readInt(off, len) == want;
    };
    for (Addr edge : edges) {
        for (unsigned len = 1; len <= 8; ++len) {
            for (Addr off = edge - len; off <= edge && off + len <= size;
                 ++off) {
                ASSERT_TRUE(check(off, len))
                    << "before write: off " << off << " len " << len;
                std::uint64_t v = rng.next();
                m.writeInt(off, v, len);
                for (unsigned i = 0; i < len; ++i)
                    ref[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
                ASSERT_TRUE(check(off, len))
                    << "after write: off " << off << " len " << len;
            }
        }
    }
    std::vector<std::uint8_t> all(size);
    m.read(0, all.data(), size);
    EXPECT_EQ(all, ref);
}

/** Counts the page notifications a decode cache would receive. */
struct CountingSink : DecodeSink
{
    std::vector<std::uint64_t> pages;

    void invalidatePage(std::uint64_t key) override { pages.push_back(key); }
    void invalidateAll() override {}
};

TEST(WatchedPages, HostBarStoreReachesOnlyAPageAnNxpCoreDecoded)
{
    TimingConfig timing;
    PlatformConfig platform;
    platform.nxpDeviceCount = 2;
    MemSystem mem(timing, platform);
    PhysAllocator alloc("t", 0x100000, 16 << 20);
    PageTableManager ptm(mem, alloc);
    const Addr cr3 = ptm.createRoot();

    // RV64 text in device 1's DRAM, which device 0's core fetches over
    // the peer BAR window, the window the host stores through below.
    const Addr text = 2 * leaf;
    const Addr bar = platform.barBase(1);
    const VAddr text_va = 0x400000;
    ptm.map(cr3, text_va, bar + text, 4096, PageSize::size4K, pte::user);
    const std::uint32_t code[2] = {rv64::encI(rv64::opImm, 5, 0, 0, 7),
                                   0x00100073}; // addi x5, x0, 7; ebreak
    mem.nxpDram(1).write(text, code, sizeof code);

    CoreParams params;
    params.name = "nxp";
    params.requester = Requester::nxpCore;
    Rv64Core core(params, mem);
    core.mmu().setCr3(cr3);
    core.setPc(text_va);
    ASSERT_EQ(core.run().stop, Fault::halt);
    EXPECT_EQ(core.reg(5), 7u);
    EXPECT_EQ(core.stats().get("decode_cache_fills"), 2u);

    CountingSink sink;
    mem.addDecodeSink(&sink);
    auto invalidated = [&] {
        core.run(0); // Publishes the decode cache's counters.
        return core.stats().get("decode_cache_invalidated_pages");
    };
    EXPECT_EQ(invalidated(), 0u);
    // The next page of the same leaf was never decoded: no sink hears.
    mem.writeInt(Requester::hostCore, bar + text + 4096, 1, 8);
    EXPECT_TRUE(sink.pages.empty());
    EXPECT_EQ(invalidated(), 0u);
    // The decoded page, past the code.
    mem.writeInt(Requester::hostCore, bar + text + 64, 1, 8);
    EXPECT_EQ(sink.pages,
              (std::vector<std::uint64_t>{MemSystem::pageKey(2, text)}));
    EXPECT_EQ(invalidated(), 1u);
    mem.removeDecodeSink(&sink);
}

/**
 * An NxP core reads its instruction bytes through its own address map:
 * text in the device's own DRAM, mapped through BAR0 with the TLB's BAR
 * remap set, resolves to the device-local window, which the host-space
 * debug back door does not map.
 */
TEST(CoreFetch, NxpTextInItsOwnDramRunsThroughTheBarRemap)
{
    TimingConfig timing;
    PlatformConfig platform;
    MemSystem mem(timing, platform);
    PhysAllocator alloc("t", 0x100000, 16 << 20);
    PageTableManager ptm(mem, alloc);
    const Addr cr3 = ptm.createRoot();

    const Addr text = 2 * leaf;
    const VAddr text_va = 0x400000;
    ptm.map(cr3, text_va, platform.barBase(0) + text, 4096,
            PageSize::size4K, pte::user);
    const std::uint32_t code[2] = {rv64::encI(rv64::opImm, 5, 0, 0, 7),
                                   0x00100073}; // addi x5, x0, 7; ebreak
    mem.nxpDram(0).write(text, code, sizeof code);

    CoreParams params;
    params.name = "nxp";
    params.requester = Requester::nxpCore;
    Rv64Core core(params, mem);
    core.mmu().setCr3(cr3);
    core.mmu().setBarRemap(platform.barBase(0), platform.deviceDramBytes(0),
                           platform.barRemapOffset());
    core.setPc(text_va);
    ASSERT_EQ(core.run().stop, Fault::halt);
    EXPECT_EQ(core.reg(5), 7u);
}

class MemSystemTest : public ::testing::Test
{
  protected:
    TimingConfig timing;
    PlatformConfig platform;
    MemSystem mem{timing, platform};
};

TEST_F(MemSystemTest, HostToHostDram)
{
    std::uint64_t v = 0;
    Tick w = mem.writeInt(Requester::hostCore, 0x1000, 42, 8);
    Tick r = mem.readInt(Requester::hostCore, 0x1000, 8, v);
    EXPECT_EQ(v, 42u);
    EXPECT_EQ(w, timing.hostToHostDram);
    EXPECT_EQ(r, timing.hostToHostDram);
}

TEST_F(MemSystemTest, HostToNxpDramThroughBar)
{
    // A host write through BAR0 must land in NxP DRAM backing store.
    Tick w = mem.writeInt(Requester::hostCore, platform.bar0Base + 0x10,
                          0x77, 8);
    EXPECT_EQ(w, timing.hostToNxpDram);
    EXPECT_EQ(mem.nxpDram().read64(0x10), 0x77u);

    // And the NxP sees the same bytes at its local address.
    std::uint64_t v = 0;
    Tick r = mem.readInt(Requester::nxpCore,
                         platform.nxpDramLocalBase + 0x10, 8, v);
    EXPECT_EQ(v, 0x77u);
    EXPECT_EQ(r, timing.nxpToNxpDram);
}

TEST_F(MemSystemTest, NxpToHostDram)
{
    mem.hostDram().write64(0x2000, 0x1234);
    std::uint64_t v = 0;
    Tick r = mem.readInt(Requester::nxpCore, 0x2000, 8, v);
    EXPECT_EQ(v, 0x1234u);
    EXPECT_EQ(r, timing.nxpToHostDram);
}

TEST_F(MemSystemTest, DebugAccessesAreFree)
{
    Tick w = mem.writeInt(Requester::debug, 0x3000, 1, 8);
    EXPECT_EQ(w, 0u);
    std::uint64_t v = 0;
    EXPECT_EQ(mem.readInt(Requester::debug, platform.bar0Base, 8, v), 0u);
}

TEST_F(MemSystemTest, RouteStatsCounted)
{
    std::uint64_t v;
    mem.readInt(Requester::hostCore, 0, 8, v);
    mem.readInt(Requester::nxpCore, platform.nxpDramLocalBase, 8, v);
    EXPECT_EQ(mem.stats().get("host_to_host_dram_reads"), 1u);
    EXPECT_EQ(mem.stats().get("nxp_to_nxp_dram_reads"), 1u);
}

TEST_F(MemSystemTest, UnremappedBarFromNxpPanics)
{
    // The BAR0 window overlaps the NxP's local-DRAM address range for
    // most of its extent (that overlap is exactly why the TLB remap
    // exists); its tail lies beyond local DRAM, where an un-remapped
    // address is unambiguously a routing bug.
    std::uint64_t v;
    Addr tail = platform.bar0Base + platform.nxpDramBytes - 8;
    ASSERT_FALSE(platform.inNxpLocalDram(tail));
    EXPECT_DEATH(mem.readInt(Requester::nxpCore, tail, 8, v),
                 "un-remapped BAR");
}

TEST_F(MemSystemTest, UnmappedAddressPanics)
{
    std::uint64_t v;
    EXPECT_DEATH(
        mem.readInt(Requester::hostCore, 0x90000000ull, 8, v),
        "unmapped");
}

struct TestDevice : MmioDevice
{
    std::uint64_t value = 0xaa55;
    Addr lastOffset = 0;

    std::uint64_t
    mmioRead(Addr offset, unsigned) override
    {
        lastOffset = offset;
        return value;
    }

    void
    mmioWrite(Addr offset, std::uint64_t v, unsigned) override
    {
        lastOffset = offset;
        value = v;
    }
};

TEST_F(MemSystemTest, ControlWindowBothViews)
{
    TestDevice dev;
    mem.mapControlDevice(&dev);

    // NxP-side view.
    std::uint64_t v = 0;
    Tick r = mem.readInt(Requester::nxpCore,
                         platform.nxpCtrlLocalBase + 0x8, 8, v);
    EXPECT_EQ(v, 0xaa55u);
    EXPECT_EQ(dev.lastOffset, 0x8u);
    EXPECT_EQ(r, timing.nxpToLocalMmio);

    // Host-side view through BAR1 hits the same registers.
    Tick w = mem.writeInt(Requester::hostCore, platform.bar1Base() + 0x8,
                          0x99, 8);
    EXPECT_EQ(dev.value, 0x99u);
    EXPECT_EQ(w, timing.hostToNxpMmio);
}

TEST(PlatformConfig, RemapOffsetMatchesPaperExample)
{
    PlatformConfig p;
    // Section IV-A's worked example computes offset 0x40000000.
    EXPECT_EQ(p.barRemapOffset(), 0x40000000u);
    EXPECT_TRUE(p.inBar0(p.bar0Base));
    EXPECT_TRUE(p.inBar0(p.bar0Base + p.nxpDramBytes - 1));
    EXPECT_FALSE(p.inBar0(p.bar0Base + p.nxpDramBytes));
    EXPECT_TRUE(p.inBar1(p.bar1Base()));
    EXPECT_TRUE(p.inNxpLocalDram(p.nxpDramLocalBase));
    EXPECT_TRUE(p.inHostDram(0));
    EXPECT_FALSE(p.inHostDram(p.hostDramBytes));
}

class DmaTest : public ::testing::Test
{
  protected:
    TimingConfig timing;
    PlatformConfig platform;
    EventQueue events;
    MemSystem mem{timing, platform};
    IrqController irq{events, timing};
    DmaEngine dma{events, mem, &irq};
};

TEST_F(DmaTest, HostToNxpMovesBytesAtCompletion)
{
    mem.hostDram().write64(0x1000, 0xfeed);
    bool done = false;
    dma.copyHostToNxp(0x1000, platform.nxpDramLocalBase + 0x40, 128,
                      [&] { done = true; });
    // Before completion nothing has landed.
    EXPECT_EQ(mem.nxpDram().read64(0x40), 0u);
    EXPECT_FALSE(done);
    events.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(mem.nxpDram().read64(0x40), 0xfeedu);
    EXPECT_EQ(events.now(), timing.dmaTransfer(128));
}

TEST_F(DmaTest, NxpToHostRaisesIrq)
{
    int irqs = 0;
    irq.connect(0, [&] { ++irqs; });
    mem.nxpDram().write64(0x80, 0xabc);
    dma.copyNxpToHost(platform.nxpDramLocalBase + 0x80, 0x2000, 128, 0);
    events.run();
    EXPECT_EQ(irqs, 1);
    EXPECT_EQ(mem.hostDram().read64(0x2000), 0xabcu);
    // IRQ delivery happens after the transfer.
    EXPECT_EQ(events.now(), timing.dmaTransfer(128) + timing.irqDelivery);
}

TEST_F(DmaTest, BusyTransfersQueueFifo)
{
    mem.hostDram().write64(0x1000, 1);
    mem.hostDram().write64(0x1100, 2);
    std::vector<int> order;
    dma.copyHostToNxp(0x1000, platform.nxpDramLocalBase, 64,
                      [&] { order.push_back(1); });
    EXPECT_TRUE(dma.busy());
    dma.copyHostToNxp(0x1100, platform.nxpDramLocalBase + 0x100, 64,
                      [&] { order.push_back(2); });
    events.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_FALSE(dma.busy());
    EXPECT_EQ(dma.stats().get("transfers"), 2u);
    EXPECT_EQ(dma.stats().get("queued"), 1u);
    EXPECT_EQ(dma.stats().get("bytes"), 128u);
    // Second transfer starts only after the first completes.
    EXPECT_EQ(events.now(), 2 * timing.dmaTransfer(64));
}

TEST_F(DmaTest, BadAddressesPanic)
{
    dma.copyHostToNxp(platform.bar0Base, platform.nxpDramLocalBase, 8);
    EXPECT_DEATH(events.run(), "DMA host->NxP with bad addresses");
}

TEST(IrqTest, UnconnectedVectorPanics)
{
    TimingConfig timing;
    EventQueue events;
    IrqController irq(events, timing);
    EXPECT_DEATH(irq.raise(3), "no handler");
}

TEST(IrqTest, DeliveryLatency)
{
    TimingConfig timing;
    EventQueue events;
    IrqController irq(events, timing);
    Tick fired_at = 0;
    irq.connect(1, [&] { fired_at = events.now(); });
    irq.raise(1);
    events.run();
    EXPECT_EQ(fired_at, timing.irqDelivery);
    EXPECT_EQ(irq.stats().get("raised"), 1u);
}

} // namespace
} // namespace flick
