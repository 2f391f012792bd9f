/**
 * @file
 * Page table construction and editing (the kernel's mm layer).
 *
 * Tables live in simulated host DRAM in the architectural x86-64 4-level
 * format, so they can be walked both by the host MMU and by the NxP's
 * programmable MMU using the same CR3 value (Figure 1). Construction and
 * editing happen through the zero-latency debug port — they model kernel
 * code whose cost is charged separately — while runtime walks are timed by
 * PageTableWalker.
 */

#ifndef FLICK_VM_PAGE_TABLE_HH
#define FLICK_VM_PAGE_TABLE_HH

#include <cstdint>
#include <optional>

#include "mem/mem_system.hh"
#include "vm/phys_allocator.hh"
#include "vm/pte.hh"

namespace flick
{

/** Result of a debug translation. */
struct DebugTranslation
{
    Addr pa;              //!< Translated physical address of @c va.
    PageSize size;        //!< Granule of the mapping.
    std::uint64_t entry;  //!< Raw leaf entry (flags included).
};

/**
 * Builds and edits 4-level page tables in host DRAM.
 */
class PageTableManager
{
  public:
    /**
     * @param mem Memory system holding host DRAM.
     * @param table_alloc Allocator providing frames for table pages; must
     *        allocate from host DRAM (walkers read tables there).
     */
    PageTableManager(MemSystem &mem, PhysAllocator &table_alloc)
        : _mem(mem), _alloc(table_alloc)
    {}

    /** Allocate a new, empty PML4. @return its physical address (CR3). */
    Addr createRoot();

    /**
     * Map [va, va+bytes) to [pa, pa+bytes) with granule @p size.
     *
     * All of va, pa and bytes must be multiples of the granule. Panics on
     * overlap with an existing mapping (the kernel never double-maps).
     *
     * @param flags Leaf PTE flag bits (pte::present is implied).
     */
    void map(Addr cr3, VAddr va, Addr pa, std::uint64_t bytes,
             PageSize size, std::uint64_t flags);

    /**
     * Modify leaf flags over [va, va+bytes): set @p set_flags, clear
     * @p clear_flags. This is the extended-mprotect() used by the loader
     * to mark NxP text pages no-execute (Section IV-C3).
     *
     * The range must be fully mapped; granules inside the range may vary.
     */
    void protect(Addr cr3, VAddr va, std::uint64_t bytes,
                 std::uint64_t set_flags, std::uint64_t clear_flags);

    /** Remove leaf mappings over [va, va+bytes); intermediate tables stay. */
    void unmap(Addr cr3, VAddr va, std::uint64_t bytes);

    /** Zero-latency walk for tests and the loader. */
    std::optional<DebugTranslation> translate(Addr cr3, VAddr va) const;

    /** Number of table pages allocated so far. */
    std::uint64_t tablePages() const { return _tablePages; }

  private:
    std::uint64_t readEntry(Addr table, unsigned index) const;
    void writeEntry(Addr table, unsigned index, std::uint64_t entry);

    /**
     * Descend from the PML4 to the table at @p target_level for @p va,
     * creating intermediate tables when @p create is set.
     *
     * @return Physical base of the table at target_level, or 0 if a level
     *         is missing and @p create is false, or if a huge-page leaf is
     *         found above target_level (conflict).
     */
    Addr descend(Addr cr3, VAddr va, int target_level, bool create);

    /** Leaf level for a granule: 0 for 4K, 1 for 2M, 2 for 1G. */
    static int leafLevel(PageSize size);

    /** Locate the leaf entry covering @p va. */
    struct LeafRef
    {
        Addr table;
        unsigned index;
        int level;
        std::uint64_t entry;
    };
    std::optional<LeafRef> findLeaf(Addr cr3, VAddr va) const;

    MemSystem &_mem;
    PhysAllocator &_alloc;
    std::uint64_t _tablePages = 0;
};

} // namespace flick

#endif // FLICK_VM_PAGE_TABLE_HH
