/**
 * @file
 * Physical page frame allocator.
 *
 * One allocator per DRAM region: the host allocator hands out frames for
 * text/data/page tables, the NxP allocator hands out local frames for NxP
 * stacks, the NxP heap, and annotated .data.nxp sections (Section III-D).
 */

#ifndef FLICK_VM_PHYS_ALLOCATOR_HH
#define FLICK_VM_PHYS_ALLOCATOR_HH

#include <cstdint>
#include <map>
#include <string>

#include "mem/sparse_memory.hh"

namespace flick
{

/**
 * First-fit allocator over one physical address range.
 *
 * Allocations are page-granular (multiples of 4 KB) with arbitrary
 * power-of-two alignment, which covers 4 KB pages, 2 MB and 1 GB huge
 * pages, and DMA-aligned descriptor rings.
 */
class PhysAllocator
{
  public:
    /**
     * @param name Diagnostics label.
     * @param base First usable physical address (4 KB aligned).
     * @param size Bytes managed.
     */
    PhysAllocator(std::string name, Addr base, std::uint64_t size);

    /**
     * Allocate @p bytes (rounded up to 4 KB) aligned to @p align.
     * Fails fatally when the region is exhausted: the workload was
     * configured larger than the platform's memory.
     */
    Addr allocate(std::uint64_t bytes, std::uint64_t align = 4096);

    /** Bytes currently allocated. */
    std::uint64_t allocatedBytes() const { return _allocated; }

    /** Total managed bytes. */
    std::uint64_t capacity() const { return _size; }

    Addr base() const { return _base; }

  private:
    std::string _name;
    Addr _base;
    std::uint64_t _size;
    std::uint64_t _allocated = 0;
    /** Free blocks: start -> length, non-adjacent, sorted. */
    std::map<Addr, std::uint64_t> _free;
};

} // namespace flick

#endif // FLICK_VM_PHYS_ALLOCATOR_HH
