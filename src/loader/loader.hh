/**
 * @file
 * Program loader: maps a linked multi-ISA image into an address space.
 *
 * Models the paper's extended GLIBC loader (Section IV-C3): each text
 * section is mapped page-aligned and the extended mprotect() marks the
 * page table entries by section ISA — the NX bit set on NxP text, clear
 * on host text — plus the placement policy of Section III-D: text and
 * data frames in host memory, annotated .nxp sections in NxP local DRAM
 * (reached by the host through BAR0 physical addresses), the whole NxP
 * DRAM mapped into the address space with huge pages, and a host stack.
 */

#ifndef FLICK_LOADER_LOADER_HH
#define FLICK_LOADER_LOADER_HH

#include <map>
#include <string>
#include <vector>

#include "loader/linker.hh"
#include "mem/mem_system.hh"
#include "vm/page_table.hh"
#include "vm/phys_allocator.hh"

namespace flick
{

/** Well-known virtual addresses of the process layout. */
namespace layout
{
/** Base of the host heap region. */
constexpr VAddr hostHeapBase = 0x20000000ull;
/** Native-function gate: host-ISA page. */
constexpr VAddr nativeGateHost = 0x30000000ull;
/** Native-function gate: NxP-ISA page. */
constexpr VAddr nativeGateNxp = 0x30001000ull;
/** Where the NxP local DRAM window starts in every address space. */
constexpr VAddr nxpWindowBase = 0x4000000000ull;
/** Spacing between consecutive devices' DRAM windows. */
constexpr VAddr nxpWindowStride = 0x2000000000ull;
/** Window of NxP device @p device's local DRAM. */
constexpr VAddr
nxpWindowBaseFor(unsigned device)
{
    return nxpWindowBase + device * nxpWindowStride;
}
/** Top of the host stack (grows down). */
constexpr VAddr hostStackTop = 0x7ffffff00000ull;
} // namespace layout

/**
 * PTE ISA tag assigned to RV64 (NxP) text pages; 0 means host ISA.
 * Additional NxP ISAs would take tags 2, 3, ... (Section IV-C3).
 */
constexpr unsigned nxpIsaTag = 1;

/** Loader knobs. */
struct LoadOptions
{
    std::uint64_t hostStackBytes = 1ull << 20;
    std::uint64_t hostHeapBytes = 64ull << 20;
    /**
     * Granule used to map the NxP DRAM window. The prototype uses 1 GB
     * pages so four TLB entries cover the whole 4 GB (Section V); the
     * huge-page ablation sweeps this.
     */
    PageSize nxpWindowPageSize = PageSize::size1G;
    /** Map the NxP DRAM window at all. */
    bool mapNxpWindow = true;
};

/** A loaded process image: the address space and its metadata. */
struct LoadedProgram
{
    Addr cr3 = 0;
    std::map<std::string, VAddr> symbols;
    VAddr hostStackTop = 0;
    std::uint64_t hostStackBytes = 0;
    VAddr hostHeapBase = 0;
    std::uint64_t hostHeapBytes = 0;
    /** Per-device DRAM window bases/sizes (index = device); empty when
     *  LoadOptions::mapNxpWindow is off. */
    std::vector<VAddr> nxpWindows;
    std::vector<std::uint64_t> nxpWindowSizes;

    /** Address of @p name; fatal() if absent. */
    VAddr symbol(const std::string &name) const;
};

/**
 * Builds address spaces for multi-ISA executables.
 */
class ProgramLoader
{
  public:
    /**
     * @param host_alloc Frame allocator for host DRAM (text/data/stack).
     * @param nxp_alloc Frame allocator for NxP DRAM (annotated sections);
     *        hands out NxP-local physical addresses.
     */
    ProgramLoader(MemSystem &mem, PageTableManager &ptm,
                  PhysAllocator &host_alloc, PhysAllocator &nxp_alloc)
        : _mem(mem), _ptm(ptm), _hostAlloc(host_alloc), _nxpAlloc(nxp_alloc)
    {}

    /** Map @p image into a fresh address space. */
    LoadedProgram load(const LinkedImage &image,
                       const LoadOptions &options = {});

  private:
    /** Map [va, va+bytes) to fresh host frames with @p flags. */
    void mapHostRegion(Addr cr3, VAddr va, std::uint64_t bytes,
                       std::uint64_t flags);

    MemSystem &_mem;
    PageTableManager &_ptm;
    PhysAllocator &_hostAlloc;
    PhysAllocator &_nxpAlloc;
};

} // namespace flick

#endif // FLICK_LOADER_LOADER_HH
