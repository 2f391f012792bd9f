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
     * shared loop dispatches its step() statically.
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
                           const std::vector<std::uint64_t> &args) = 0;

    /**
     * Complete a hijacked call: deliver @p retval and emulate the
     * callee's return so execution resumes at the original call site
     * (Section IV-B1's "just like a normal return").
     */
    virtual void finishHijackedCall(std::uint64_t retval) = 0;

    /** Snapshot all architectural state (context switch out). */
    virtual std::vector<std::uint64_t> saveContext() const = 0;

    /** Restore architectural state (context switch in). */
    virtual void restoreContext(const std::vector<std::uint64_t> &ctx) = 0;

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
     * ISA's run() override calls its own step() statically — a virtual
     * dispatch per simulated instruction costs measurable simulated
     * MIPS (bench_interp). Derived classes befriend Core so the
     * qualified CoreT::step() call reaches their protected override.
     */
    template <typename CoreT>
    RunResult
    runLoop(CoreT &self, std::uint64_t max_instructions)
    {
        RunResult result;
        _slice = 0;

        // Hook presence is sampled once per slice: the runtime and trace
        // subsystems install hooks between run() slices, never from
        // inside a handler, so the hookless loop — the simulation fast
        // path — pays one trampoline compare per instruction.
        if (_nativeHook || _traceHook) {
            while (result.instructions < max_instructions) {
                if (_pc == runtimeTrampoline) {
                    result.stop = Fault::trampoline;
                    break;
                }
                if (_nativeHook && _pc >= _nativeLo && _pc < _nativeHi) {
                    // Native-bridge function: executed on the simulator
                    // side; the hook consumes the call and emulates its
                    // return.
                    chargeTicks(_nativeHook(*this));
                    ++result.instructions;
                    continue;
                }
                if (_traceHook)
                    _traceHook(_pc);
                Fault f = self.CoreT::step();
                if (f != Fault::none) {
                    result.stop = f;
                    result.faultVa = _faultVa;
                    break;
                }
                ++result.instructions;
            }
        } else {
            while (result.instructions < max_instructions) {
                if (_pc == runtimeTrampoline) {
                    result.stop = Fault::trampoline;
                    break;
                }
                Fault f = self.CoreT::step();
                if (f != Fault::none) {
                    result.stop = f;
                    result.faultVa = _faultVa;
                    break;
                }
                ++result.instructions;
            }
        }

        _totalInstructions += result.instructions;
        _instructions.inc(result.instructions);
        syncDecodeStats();
        result.elapsed = _slice;
        return result;
    }

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
     */
    template <typename CacheT>
    auto
    slotFor(CacheT &cache, Addr pa) -> decltype(cache.pageBase(0))
    {
        Addr page = pa & ~Addr(4095);
        if (page != _slotPage) {
            _slotPage = page;
            _slotBase = cache.pageBase(_mem.canonicalPageKey(_requester, pa));
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
