/**
 * @file
 * Sparse backing store for simulated physical memory.
 *
 * DRAM regions in the platform can be tens of gigabytes; pages are
 * allocated lazily on first touch so a 64 GB host DRAM costs nothing until
 * written. Reads of untouched memory return zeroes, matching DRAM that the
 * OS has cleared.
 */

#ifndef FLICK_MEM_SPARSE_MEMORY_HH
#define FLICK_MEM_SPARSE_MEMORY_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <unordered_map>

namespace flick
{

/** A physical (or bus) address. */
using Addr = std::uint64_t;

/**
 * Lazily allocated byte-addressable memory of a fixed size.
 */
class SparseMemory
{
  public:
    /** Backing allocation granule. */
    static constexpr std::uint64_t chunkBytes = 4096;

    explicit SparseMemory(std::uint64_t size) : _size(size) {}

    SparseMemory(const SparseMemory &) = delete;
    SparseMemory &operator=(const SparseMemory &) = delete;

    /** Total addressable size in bytes. */
    std::uint64_t size() const { return _size; }

    /** Number of 4 KB chunks actually allocated. */
    std::uint64_t allocatedChunks() const { return _chunks.size(); }

    /**
     * Copy @p len bytes at @p offset into @p buf.
     * Out-of-range accesses panic (they indicate a routing bug).
     */
    void read(Addr offset, void *buf, std::uint64_t len) const;

    /** Copy @p len bytes from @p buf into memory at @p offset. */
    void write(Addr offset, const void *buf, std::uint64_t len);

    /** Fill @p len bytes at @p offset with @p value. */
    void fill(Addr offset, std::uint8_t value, std::uint64_t len);

    /** Read a little-endian unsigned integer of @p len (1/2/4/8) bytes. */
    std::uint64_t readInt(Addr offset, unsigned len) const;

    /** Write a little-endian unsigned integer of @p len (1/2/4/8) bytes. */
    void writeInt(Addr offset, std::uint64_t value, unsigned len);

    /**
     * Callback fired after every mutation with the written (offset, len)
     * range. Covers every path into the store — routed core/DMA writes
     * and harness/loader back-door writes alike — which is what lets the
     * decoded-instruction caches observe all text mutations regardless
     * of who performs them.
     */
    using WriteListener = std::function<void(Addr, std::uint64_t)>;

    /** Install (or clear, with nullptr) the write listener. */
    void setWriteListener(WriteListener l) { _listener = std::move(l); }

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

    void boundsCheck(Addr offset, std::uint64_t len) const;

    /** Chunk for reading; nullptr if never written (reads as zero). */
    const Chunk *chunkFor(Addr offset) const;

    /** Chunk for writing; allocates (zeroed) on demand. */
    Chunk &chunkForWrite(Addr offset);

    std::uint64_t _size;
    std::unordered_map<std::uint64_t, std::unique_ptr<Chunk>> _chunks;
    // The last chunk looked up, so runs of accesses to one 4 KB chunk
    // skip the hash lookup. Only allocated chunks are memoized, and
    // chunks are never freed, so the memo cannot dangle.
    mutable std::uint64_t _memoIndex = ~std::uint64_t(0);
    mutable Chunk *_memoChunk = nullptr;
    WriteListener _listener;
};

} // namespace flick

#endif // FLICK_MEM_SPARSE_MEMORY_HH
