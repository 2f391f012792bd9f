/**
 * @file
 * Per-core MMU front-end: TLBs + walker + fetch policy + holes.
 *
 * Each core owns one Mmu. The host Mmu uses the normal NX semantics (fetch
 * from an NX page faults); the NxP Mmu inverts them (fetch from a non-NX
 * page faults) — the pair of policies that makes every cross-ISA call trap
 * exactly once, on the side that must migrate (Section III-B).
 *
 * The NxP Mmu additionally supports "holes": virtual ranges the
 * programmable MMU translates directly without touching the page tables,
 * used for debugging windows and scratchpad access (Section IV-A).
 */

#ifndef FLICK_VM_MMU_HH
#define FLICK_VM_MMU_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/mem_system.hh"
#include "vm/fault.hh"
#include "vm/tlb.hh"
#include "vm/walker.hh"

namespace flick
{

/** Kind of memory access being translated. */
enum class AccessType { fetch, read, write };

/** Result of a translation attempt. */
struct TranslationResult
{
    Fault fault = Fault::none;
    Addr pa = 0;          //!< Post-remap physical address (valid if !fault).
    Tick latency = 0;     //!< Translation cost (walks; hits are free).
    std::uint64_t entry = 0; //!< Leaf PTE bits (valid if walked/hit).
};

/**
 * MMU configuration: fetch-permission policy.
 */
struct MmuPolicy
{
    /** Fault instruction fetches from pages with the NX bit set. */
    bool faultOnNxFetch = false;
    /** Fault instruction fetches from pages with the NX bit clear. */
    bool faultOnNonNxFetch = false;
    /**
     * If nonzero, additionally fault fetches from NX pages whose
     * software ISA tag differs: in multi-NxP systems each NxP runs only
     * pages tagged with its own ISA id (Section IV-C3's extra PTE bits).
     */
    unsigned requiredIsaTag = 0;
};

/**
 * Address translation front-end for one core.
 */
class Mmu
{
  public:
    Mmu(const std::string &name, MemSystem &mem, Requester walk_requester,
        Tick walk_overhead, unsigned itlb_entries, unsigned dtlb_entries,
        MmuPolicy policy)
        : _walker(name + ".walker", mem, walk_requester, walk_overhead),
          _itlb(name + ".itlb", itlb_entries),
          _dtlb(name + ".dtlb", dtlb_entries),
          _policy(policy)
    {}

    /** Load a new page table base; flushes both TLBs (no ASIDs). */
    void
    setCr3(Addr cr3)
    {
        if (cr3 != _cr3) {
            _cr3 = cr3;
            flushTlbs();
        }
    }

    Addr cr3() const { return _cr3; }

    /** Invalidate both TLBs (TLB shootdown after mprotect). */
    void
    flushTlbs()
    {
        _itlb.flushAll();
        _dtlb.flushAll();
    }

    /** Program the BAR remap window into both TLBs (host driver action). */
    void
    setBarRemap(Addr bar_base, std::uint64_t size, Addr offset)
    {
        _itlb.setBarRemap(bar_base, size, offset);
        _dtlb.setBarRemap(bar_base, size, offset);
    }

    /**
     * Open a programmable-MMU hole: [va, va+size) maps straight to
     * [pa, pa+size) with full permissions and no page table walk.
     */
    void
    addHole(VAddr va, std::uint64_t size, Addr pa)
    {
        _holes.push_back({va, size, pa});
    }

    void clearHoles() { _holes.clear(); }

    /**
     * Translate @p va for @p type.
     *
     * Walked translations are cached even when the permission check
     * faults (the hardware behaviour): repeated cross-ISA calls fault
     * straight from the TLB instead of re-walking. New permissions after
     * an mprotect() require a flushTlbs() shootdown.
     */
    TranslationResult
    translate(VAddr va, AccessType type)
    {
        // Inline fast path for the interpreter step loop: with no holes
        // configured, a last-hit TLB entry resolves the access without
        // the out-of-line call. lookupLastHit() applies exactly the
        // LRU/stat effects the full lookup() would, a covering entry
        // implies the VA is canonical, and walk latency on a hit is
        // zero — so this branch is behaviourally identical to
        // translateSlow(), just cheaper.
        if (_holes.empty()) {
            Tlb &tlb = (type == AccessType::fetch) ? _itlb : _dtlb;
            if (const TlbEntry *e = tlb.lookupLastHit(va)) {
                TranslationResult result;
                result.fault = permissionCheck(e->flags, type);
                if (result.fault == Fault::none) {
                    result.entry = e->flags;
                    result.pa = tlb.applyRemap(e->pbase + (va - e->vbase));
                }
                return result;
            }
        }
        return translateSlow(va, type);
    }

    /**
     * Block-entry check for Core::runLoop: true when every fetch from
     * the 4 KiB page at @p page would take translate()'s last-hit path
     * with the same outcome — no hole overlaps the page, the iTLB's
     * last-hit entry covers it, fetch is permitted and the BAR remap
     * moves the whole page alike. Then @p pa is the page's physical
     * base. The answer holds until the iTLB's epoch() moves; holes
     * change only between run() slices.
     */
    bool
    fetchPage(VAddr page, Addr &pa) const
    {
        for (const Hole &h : _holes) {
            if (page < h.va + h.size && h.va < page + 4096)
                return false;
        }
        const TlbEntry *e = _itlb.lastHit();
        if (!e || !e->valid || page < e->vbase ||
            page + 4096 > e->vbase + e->granule ||
            permissionCheck(e->flags, AccessType::fetch) != Fault::none) {
            return false;
        }
        Addr raw = e->pbase + (page - e->vbase);
        if (!_itlb.remapUniform(raw))
            return false;
        pa = _itlb.applyRemap(raw);
        return true;
    }

    Tlb &itlb() { return _itlb; }
    Tlb &dtlb() { return _dtlb; }
    PageTableWalker &walker() { return _walker; }

  private:
    struct Hole
    {
        VAddr va;
        std::uint64_t size;
        Addr pa;
    };

    /** Check leaf flags against the access; Fault::none if allowed. */
    Fault
    permissionCheck(std::uint64_t entry, AccessType type) const
    {
        if (type == AccessType::write && !(entry & pte::writable))
            return Fault::protection;
        if (type == AccessType::fetch) {
            bool nx = (entry & pte::noExecute) != 0;
            if (nx && _policy.faultOnNxFetch)
                return Fault::nxFetch;
            if (!nx && _policy.faultOnNonNxFetch)
                return Fault::nonNxFetch;
            if (nx && _policy.requiredIsaTag != 0 &&
                pte::isaTag(entry) != _policy.requiredIsaTag) {
                // Another NxP's code: migrate (the handler routes by tag).
                return Fault::nonNxFetch;
            }
        }
        return Fault::none;
    }

    /** Full translation: canonical check, holes, TLB, walker. */
    TranslationResult translateSlow(VAddr va, AccessType type);

    PageTableWalker _walker;
    Tlb _itlb;
    Tlb _dtlb;
    MmuPolicy _policy;
    Addr _cr3 = 0;
    std::vector<Hole> _holes;
};

} // namespace flick

#endif // FLICK_VM_MMU_HH
