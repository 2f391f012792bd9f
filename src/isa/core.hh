/**
 * @file
 * Base class for the two interpreter cores.
 *
 * A Core executes instructions synchronously, accumulating simulated time
 * (cycles plus memory latencies) into a slice counter, and stops on any
 * fault, on its halt instruction, or when its PC reaches the runtime
 * trampoline. The migration runtimes drive cores through run() and the
 * ABI-neutral argument/return accessors.
 */

#ifndef FLICK_ISA_CORE_HH
#define FLICK_ISA_CORE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "isa/icache.hh"
#include "isa/isa.hh"
#include "mem/mem_system.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"
#include "vm/fault.hh"
#include "vm/mmu.hh"

namespace flick
{

class DecodeCacheBase;

/** Why and where a run() slice stopped. */
struct RunResult
{
    Fault stop = Fault::none;   //!< trampoline/halt/fetch fault/etc.
    VAddr faultVa = 0;          //!< Faulting VA (PC for fetch faults).
    Tick elapsed = 0;           //!< Simulated time consumed by the slice.
    std::uint64_t instructions = 0; //!< Instructions retired in the slice.
};

/** Construction parameters for a core. */
struct CoreParams
{
    std::string name;
    Requester requester = Requester::hostCore;
    std::uint64_t freqHz = 1'000'000'000ull;
    unsigned itlbEntries = 64;
    unsigned dtlbEntries = 64;
    Tick walkOverhead = 0;
    MmuPolicy mmuPolicy;
    /** Model an I-cache and charge line fills on misses (the NxP). */
    bool modelIcache = false;
    std::uint32_t icacheLines = 256;
    std::uint32_t icacheLineBytes = 64;
    /**
     * Dispatch through the per-page decoded-instruction cache
     * (DESIGN.md §13). Off selects the byte-at-a-time reference decode
     * path; timing and semantics are identical either way.
     */
    bool decodeCache = true;
};

/**
 * An in-order, IPC=1 interpreter core with its own MMU.
 */
class Core
{
  public:
    Core(const CoreParams &params, MemSystem &mem);
    virtual ~Core() = default;

    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    /** ISA implemented by this core. */
    virtual IsaKind isa() const = 0;

    const std::string &name() const { return _name; }

    VAddr pc() const { return _pc; }
    void setPc(VAddr pc) { _pc = pc; }

    /**
     * Execute until a stop condition or @p max_instructions.
     *
     * On a fetch fault the PC is left at the faulting address and all
     * registers are intact — in particular the argument registers of a
     * just-initiated call, which is what lets the migration handler pick
     * up the callee's arguments (Section IV-B1).
     *
     * Each ISA core implements this as `return runLoop(*this, n)` so the
     * shared loop calls its step() and block members statically.
     */
    virtual RunResult run(std::uint64_t max_instructions = ~0ull) = 0;

    // --- ABI-neutral accessors used by the migration runtimes ---------

    /** Number of register-passed arguments in this ISA's ABI. */
    virtual unsigned maxArgRegs() const = 0;

    /** Read argument register @p i. */
    virtual std::uint64_t arg(unsigned i) const = 0;

    /** Write argument register @p i. */
    virtual void setArg(unsigned i, std::uint64_t v) = 0;

    /** Read the ABI return-value register. */
    virtual std::uint64_t retVal() const = 0;

    /** Write the ABI return-value register. */
    virtual void setRetVal(std::uint64_t v) = 0;

    virtual std::uint64_t stackPointer() const = 0;
    virtual void setStackPointer(std::uint64_t sp) = 0;

    /**
     * Set up a call: PC := @p target, arguments := @p args, and the
     * return path arranged so that the callee's `ret` lands on the
     * runtime trampoline. May adjust the stack (HX64 pushes).
     */
    virtual void setupCall(VAddr target,
                           std::span<const std::uint64_t> args) = 0;

    /**
     * Complete a hijacked call: deliver @p retval and emulate the
     * callee's return so execution resumes at the original call site
     * (Section IV-B1's "just like a normal return").
     */
    virtual void finishHijackedCall(std::uint64_t retval) = 0;

    /** Snapshot all architectural state (context switch out). */
    virtual CoreContext saveContext() const = 0;

    /** Restore architectural state (context switch in). */
    virtual void restoreContext(const CoreContext &ctx) = 0;

    // --- Infrastructure ------------------------------------------------

    /**
     * Handler invoked when the PC enters the native-function gate.
     * It performs the call on the simulator side (reading arguments from
     * and delivering the return value to this core) and returns the
     * simulated time to charge.
     */
    using NativeHook = std::function<Tick(Core &)>;

    /** Install the native-gate PC range and its handler. */
    void
    setNativeRange(VAddr lo, VAddr hi, NativeHook hook)
    {
        _nativeLo = lo;
        _nativeHi = hi;
        _nativeHook = std::move(hook);
    }

    /** Callback invoked with the PC before each instruction executes. */
    using TraceHook = std::function<void(VAddr pc)>;

    /** Install (or clear, with nullptr) the instruction trace hook. */
    void setTraceHook(TraceHook hook) { _traceHook = std::move(hook); }

    Mmu &mmu() { return _mmu; }
    ClockDomain clock() const { return _clock; }
    MemSystem &mem() { return _mem; }
    StatGroup &stats() { return _stats; }
    ICache *icache() { return _icache.get(); }

    /** Instructions retired over the core's lifetime. */
    std::uint64_t totalInstructions() const { return _totalInstructions; }

  protected:
    /**
     * Execute one instruction at _pc.
     *
     * Adds time to _slice; on a fault sets _faultVa and returns the
     * fault without changing _pc (fetch faults) or after setting
     * _faultVa to the data address (data faults).
     */
    virtual Fault step() = 0;

    /**
     * The run() loop, shared by both cores as a template so that each
     * ISA's run() override calls its own step(), cyclesOf() and
     * execute() statically — a virtual dispatch per simulated
     * instruction costs measurable simulated MIPS (bench_interp).
     * Derived classes befriend Core so these qualified calls reach their
     * private members.
     *
     * The unit of the loop is a block (DESIGN.md §17): one ordinary
     * step(), then runBlock() while the PC stays on the same text page.
     * A step that leaves the page pays no block set-up, so a slice whose
     * first instruction leaves it costs what it did.
     */
    template <typename CoreT>
    RunResult
    runLoop(CoreT &self, std::uint64_t max_instructions)
    {
        RunResult result;
        std::uint64_t n = 0;
        _slice = 0;

        // Hook presence is sampled once per slice: the runtime and trace
        // subsystems install hooks between run() slices, never from
        // inside a handler. The trace hook sees every PC and the
        // reference path has no cache to dispatch from, so both keep
        // per-instruction step().
        const bool hooked = _nativeHook || _traceHook;
        const bool blocks = self._dcache && !_traceHook;
        while (n < max_instructions) {
            VAddr pc = _pc;
            if (pc == runtimeTrampoline) {
                result.stop = Fault::trampoline;
                break;
            }
            if (hooked) {
                if (_nativeHook && pc >= _nativeLo && pc < _nativeHi) {
                    // Native-bridge function: executed on the simulator
                    // side; the hook consumes the call and emulates its
                    // return.
                    chargeTicks(_nativeHook(*this));
                    ++n;
                    continue;
                }
                if (_traceHook)
                    _traceHook(pc);
            }
            Fault f = self.CoreT::step();
            if (f == Fault::none) {
                ++n;
                if (!blocks || pageOf(_pc) != pageOf(pc) ||
                    n == max_instructions) {
                    continue;
                }
                n += runBlock(self, *self._dcache, max_instructions - n, f);
                if (f == Fault::none)
                    continue;
            }
            result.stop = f;
            result.faultVa = _faultVa;
            break;
        }

        result.instructions = n;
        _totalInstructions += n;
        _instructions.inc(n);
        syncDecodeStats();
        result.elapsed = _slice;
        return result;
    }

    /**
     * Dispatch cached entries of the text page the PC is on, straight
     * off the page's decode-cache base, until the PC leaves the page, an
     * entry is empty (an invalidating store empties it), a handler
     * faults, the iTLB's epoch moves or @p budget instructions retired.
     * Returns the number retired; @p stop is the handler's fault, or
     * Fault::none when the next instruction is left to step().
     *
     * Each instruction gets exactly step()'s fetch effects: one
     * last-hit iTLB hit, one I-cache access (a fetch from the line the
     * block just accessed is a counted hit), one decode-cache hit and
     * the ISA's cycle charge. Nothing reads those counters or the
     * slice's ticks inside a block, so they are counted in locals and
     * published on exit. The checks step() repeats per fetch whose
     * answer is fixed for the page are made once, here: trampoline and
     * native gate off the page, Mmu::fetchPage(), and the slot memo
     * naming this page.
     */
    template <typename CoreT, typename CacheT>
    static std::uint64_t
    runBlock(CoreT &self, CacheT &cache, std::uint64_t budget, Fault &stop)
    {
        // Static, with one object pointer (self), so the compiler need
        // not keep `this` and `&self` apart across handler calls.
        Core &c = self;
        const VAddr page = pageOf(c._pc);
        Addr page_pa = 0;
        if (page == pageOf(runtimeTrampoline) ||
            (c._nativeHook && c._nativeLo < page + 4096 &&
             c._nativeHi > page) ||
            !c._mmu.fetchPage(page, page_pa) || page_pa != c._slotPage ||
            !c._slotBase) {
            return 0;
        }
        auto *base = static_cast<decltype(cache.pageBase(0))>(c._slotBase);
        Tlb &itlb = c._mmu.itlb();
        const std::uint64_t epoch = itlb.epoch();
        ICache *icache = c._icache.get();
        const Addr line_mask = icache ? ~Addr(icache->lineBytes() - 1) : 0;
        Addr line = ~Addr(0); // Never a line base: the first fetch looks.
        // One compare finds a PC off the page or off the ISA's alignment.
        const VAddr keep = ~VAddr(4096 - CoreT::fetchAlign);
        std::uint64_t retired = 0;
        std::uint64_t cycles = 0;
        std::uint64_t line_hits = 0;
        while (retired < budget) {
            VAddr pc = c._pc;
            if ((pc & keep) != page)
                break;
            const auto &entry = base[(pc & 4095) >> CacheT::shift];
            if (!entry.fn)
                break;
            if (icache) {
                Addr pa = page_pa + (pc & 4095);
                if ((pa & line_mask) == line) {
                    ++line_hits;
                } else {
                    line = pa & line_mask;
                    if (!icache->access(pa))
                        c.fetchLineFill(pa);
                }
            }
            cycles += CoreT::cyclesOf(entry);
            stop = self.CoreT::execute(entry, pc);
            if (stop != Fault::none)
                break;
            ++retired;
            // An MMIO store (the NxP's regBarRemap) reprogrammed
            // translation: the page's entry checks no longer hold.
            if (itlb.epoch() != epoch)
                break;
        }
        // Every fetch retired, but for a faulting last one.
        std::uint64_t fetches = retired + (stop != Fault::none);
        c.chargeCycles(cycles);
        itlb.countLastHits(fetches);
        if (icache)
            icache->countHits(line_hits);
        cache.hits += fetches;
        return retired;
    }

    static constexpr VAddr pageOf(VAddr va) { return va & ~VAddr(4095); }

    /** Charge @p n core cycles to the current slice. */
    void chargeCycles(std::uint64_t n) { _slice += _clock.cycles(n); }

    /** Charge raw ticks to the current slice. */
    void chargeTicks(Tick t) { _slice += t; }

    /**
     * Translate a fetch address and charge I-cache / walk costs.
     * On success the physical address is returned through @p pa.
     * Inline: this runs once per step, and in steady state collapses to
     * the Mmu's last-hit fast path plus an I-cache hit.
     */
    Fault
    fetchTranslate(VAddr va, Addr &pa)
    {
        TranslationResult tr = _mmu.translate(va, AccessType::fetch);
        chargeTicks(tr.latency);
        if (tr.fault != Fault::none) {
            _faultVa = va;
            return tr.fault;
        }
        pa = tr.pa;
        if (_icache && !_icache->access(pa))
            fetchLineFill(pa);
        return Fault::none;
    }

    /**
     * Decode-cache slot for the instruction at physical @p pa, or
     * nullptr when the covering page is uncacheable. The canonical page
     * key is a pure function of (requester, page) and the static
     * platform layout, and @p cache's entry arrays never move, so the
     * page's entry base is memoized per physical text page: steady-state
     * fetches cost one compare and one indexed load. Invalidations clear
     * entries in place, so a memoized base simply reads back empty.
     * Every page the cache holds is watched, so that stores to it reach
     * the cache (MemSystem::watchPage).
     */
    template <typename CacheT>
    auto
    slotFor(CacheT &cache, Addr pa) -> decltype(cache.pageBase(0))
    {
        Addr page = pa & ~Addr(4095);
        if (page != _slotPage) {
            _slotPage = page;
            const std::uint64_t key = _mem.canonicalPageKey(_requester, pa);
            _slotBase = cache.pageBase(key);
            if (_slotBase)
                _mem.watchPage(key);
        }
        auto *base = static_cast<decltype(cache.pageBase(0))>(_slotBase);
        return base ? base + ((pa & 4095) >> CacheT::shift) : nullptr;
    }

    /** Read instruction bytes at physical @p pa (no extra charge). */
    void fetchBytes(Addr pa, void *buf, unsigned len);

    /** Timed data read; sign- or zero-extends into @p out. */
    Fault dataRead(VAddr va, unsigned len, bool sign_extend,
                   std::uint64_t &out);

    /** Timed data write. */
    Fault dataWrite(VAddr va, unsigned len, std::uint64_t value);

    void setFaultVa(VAddr va) { _faultVa = va; }

    /** Requester identity, for canonical decode-cache page keys. */
    Requester requester() const { return _requester; }

    /**
     * Register the subclass's decode cache so run() can sync its raw
     * hit/fill counters into this core's StatGroup once per slice
     * (per-step StatGroup updates would defeat the fast path).
     */
    void setDecodeCacheStats(DecodeCacheBase *c) { _decodeCacheStats = c; }

    VAddr _pc = 0;

  private:
    /** Cold half of fetchTranslate: charge an I-cache line fill. */
    void fetchLineFill(Addr pa);

    /** Publish the decode cache's raw counters into the StatGroup. */
    void syncDecodeStats();

    std::string _name;
    MemSystem &_mem;
    Requester _requester;
    ClockDomain _clock;
    Mmu _mmu;
    std::unique_ptr<ICache> _icache;
    DecodeCacheBase *_decodeCacheStats = nullptr;
    Tick _slice = 0;
    VAddr _faultVa = 0;
    Addr _slotPage = ~Addr(0); //!< ~0 is never page-aligned: cold.
    void *_slotBase = nullptr; //!< Entry base for _slotPage (typed by ISA).
    std::uint64_t _totalInstructions = 0;
    VAddr _nativeLo = 0;
    VAddr _nativeHi = 0;
    NativeHook _nativeHook;
    TraceHook _traceHook;
    StatGroup _stats;
    // Bumped once per run() slice, so resolved once (DESIGN.md §17).
    StatGroup::Counter _instructions{_stats, "instructions"};
    StatGroup::Counter _decodeHits{_stats, "decode_cache_hits"};
    StatGroup::Counter _decodeFills{_stats, "decode_cache_fills"};
    StatGroup::Counter _decodeFallbacks{_stats, "decode_cache_fallbacks"};
    StatGroup::Counter _decodeInvalidated{_stats,
                                          "decode_cache_invalidated_pages"};
};

} // namespace flick

#endif // FLICK_ISA_CORE_HH
