/**
 * @file
 * Sparse backing store for simulated physical memory.
 *
 * DRAM regions in the platform can be tens of gigabytes; pages are
 * allocated lazily on first touch so a 64 GB host DRAM costs only its
 * 256 KB top table until written. Reads of untouched memory return zeroes,
 * matching DRAM that the OS has cleared.
 */

#ifndef FLICK_MEM_SPARSE_MEMORY_HH
#define FLICK_MEM_SPARSE_MEMORY_HH

#include <array>
#include <bit>
#include <bitset>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

namespace flick
{

/** A physical (or bus) address. */
using Addr = std::uint64_t;

/**
 * Lazily allocated byte-addressable memory of a fixed size.
 *
 * Chunks are found through a two-level table (DESIGN.md §17): one leaf
 * pointer per 2 MiB of the store, each leaf holding the pointers of its
 * 512 chunks and a "watched" bit per chunk. Leaves and chunks are
 * allocated on first write and never freed.
 */
class SparseMemory
{
  public:
    /** Backing allocation granule. */
    static constexpr std::uint64_t chunkBytes = 4096;
    /** Chunks per leaf of the chunk table (2 MiB of store per leaf). */
    static constexpr std::uint64_t leafChunks = 512;

    explicit SparseMemory(std::uint64_t size);

    SparseMemory(const SparseMemory &) = delete;
    SparseMemory &operator=(const SparseMemory &) = delete;

    /** Total addressable size in bytes. */
    std::uint64_t size() const { return _size; }

    /** Number of 4 KB chunks actually allocated. */
    std::uint64_t allocatedChunks() const { return _allocatedChunks; }

    /**
     * Copy @p len bytes at @p offset into @p buf.
     * Out-of-range accesses panic (they indicate a routing bug).
     */
    void read(Addr offset, void *buf, std::uint64_t len) const;

    /** Copy @p len bytes from @p buf into memory at @p offset. */
    void write(Addr offset, const void *buf, std::uint64_t len);

    /** Fill @p len bytes at @p offset with @p value. */
    void fill(Addr offset, std::uint8_t value, std::uint64_t len);

    /**
     * Read a little-endian unsigned integer of @p len (1/2/4/8) bytes.
     * An access inside one chunk is inline; a cross-chunk or
     * out-of-range one takes read()'s path and its panic.
     */
    std::uint64_t
    readInt(Addr offset, unsigned len) const
    {
        if (!inOneChunk(offset, len))
            return readIntSlow(offset, len);
        std::uint64_t v = 0;
        if (const Chunk *c = chunkFor(offset))
            std::memcpy(&v, c->data() + offset % chunkBytes, len);
        return v;
    }

    /** Write a little-endian unsigned integer of @p len (1/2/4/8) bytes. */
    void
    writeInt(Addr offset, std::uint64_t value, unsigned len)
    {
        if (!inOneChunk(offset, len)) {
            writeIntSlow(offset, value, len);
            return;
        }
        Leaf &leaf = leafForWrite(offset);
        const std::uint64_t slot = chunkSlot(offset);
        if (leaf.watched[slot] && _listener)
            _listener(offset, len);
        Chunk *c = leaf.chunks[slot].get();
        if (!c)
            c = allocateChunk(leaf, slot);
        std::memcpy(c->data() + offset % chunkBytes, &value, len);
    }

    /**
     * Callback fired after a mutation whose (offset, len) range covers
     * a watched chunk, with the whole range. Covers every path into the
     * store — routed core/DMA writes and harness/loader back-door writes
     * alike — which is what lets the decoded-instruction caches observe
     * all writes to the text pages they hold, whoever performs them.
     */
    using WriteListener = std::function<void(Addr, std::uint64_t)>;

    /** Install (or clear, with nullptr) the write listener. */
    void setWriteListener(WriteListener l) { _listener = std::move(l); }

    /**
     * Mark the chunk holding @p offset watched: from now on a write
     * that touches it calls the listener. Allocates the chunk's leaf but
     * not the chunk, which still reads as zero. Out of range panics.
     */
    void watch(Addr offset);

    /** Convenience typed accessors. */
    std::uint64_t read64(Addr o) const { return readInt(o, 8); }
    std::uint32_t
    read32(Addr o) const
    {
        return static_cast<std::uint32_t>(readInt(o, 4));
    }
    void write64(Addr o, std::uint64_t v) { writeInt(o, v, 8); }
    void write32(Addr o, std::uint32_t v) { writeInt(o, v, 4); }

  private:
    using Chunk = std::array<std::uint8_t, chunkBytes>;

    static constexpr std::uint64_t leafBytes = chunkBytes * leafChunks;

    /** One 2 MiB span of the store: its chunks and their watched bits. */
    struct Leaf
    {
        std::array<std::unique_ptr<Chunk>, leafChunks> chunks;
        std::bitset<leafChunks> watched;
    };

    // readInt/writeInt copy an integer's bytes as the host holds them.
    static_assert(std::endian::native == std::endian::little,
                  "SparseMemory's integers are little endian");

    /** True if @p len (1..8) bytes at @p offset lie in one chunk of the
     *  store. */
    bool
    inOneChunk(Addr offset, unsigned len) const
    {
        return len - 1u < 8u && offset < _size && len <= _size - offset &&
               offset % chunkBytes + len <= chunkBytes;
    }

    /** Index of @p offset's chunk within its leaf. */
    static std::uint64_t
    chunkSlot(Addr offset)
    {
        return offset / chunkBytes % leafChunks;
    }

    std::uint64_t readIntSlow(Addr offset, unsigned len) const;
    void writeIntSlow(Addr offset, std::uint64_t value, unsigned len);

    void boundsCheck(Addr offset, std::uint64_t len) const;

    /** True if any chunk of [offset, offset + len) is watched. */
    bool watchedIn(Addr offset, std::uint64_t len) const;

    /** Chunk for reading; nullptr if never written (reads as zero). */
    const Chunk *
    chunkFor(Addr offset) const
    {
        const Leaf *leaf = _leaves[offset / leafBytes].get();
        return leaf ? leaf->chunks[chunkSlot(offset)].get() : nullptr;
    }

    /** Leaf covering @p offset; allocates it (empty) on demand. */
    Leaf &
    leafForWrite(Addr offset)
    {
        std::unique_ptr<Leaf> &leaf = _leaves[offset / leafBytes];
        if (!leaf)
            leaf = std::make_unique<Leaf>();
        return *leaf;
    }

    /** Allocate (zeroed) the chunk in @p leaf's @p slot. */
    Chunk *allocateChunk(Leaf &leaf, std::uint64_t slot);

    /** Chunk for writing; allocates it (zeroed) on demand. */
    Chunk &chunkForWrite(Addr offset);

    std::uint64_t _size;
    std::vector<std::unique_ptr<Leaf>> _leaves; //!< One per 2 MiB.
    std::uint64_t _allocatedChunks = 0;
    WriteListener _listener;
};

} // namespace flick

#endif // FLICK_MEM_SPARSE_MEMORY_HH
