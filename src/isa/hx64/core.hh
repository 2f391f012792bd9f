/**
 * @file
 * The HX64 host interpreter core.
 *
 * Models one Xeon-class host core at 2.4 GHz: IPC=1, a large TLB backed by
 * the hardware walker, instruction fetch considered cache-resident (no
 * I-cache charge), data accesses charged by route (host DRAM vs PCIe BAR).
 *
 * The step loop dispatches through a per-text-page decoded-instruction
 * cache when CoreParams::decodeCache is set (DESIGN.md §13); with it off,
 * every step decodes the raw bytes afresh. Both paths run the same
 * handlers and charge the same costs — the cache is purely a simulator
 * speed optimization.
 */

#ifndef FLICK_ISA_HX64_CORE_HH
#define FLICK_ISA_HX64_CORE_HH

#include <array>
#include <memory>

#include "isa/core.hh"
#include "isa/decode_cache.hh"
#include "isa/hx64/decode.hh"

namespace flick
{

/**
 * HX64 interpreter.
 */
class Hx64Core : public Core
{
  public:
    Hx64Core(const CoreParams &params, MemSystem &mem);
    ~Hx64Core() override;

    IsaKind isa() const override { return IsaKind::hx64; }

    RunResult run(std::uint64_t max_instructions = ~0ull) override;

    std::uint64_t reg(unsigned r) const { return _regs[r]; }
    void setReg(unsigned r, std::uint64_t v) { _regs[r] = v; }

    // SysV-flavoured ABI: rdi, rsi, rdx, rcx, r8, r9; return in rax.
    unsigned maxArgRegs() const override { return 6; }
    std::uint64_t arg(unsigned i) const override;
    void setArg(unsigned i, std::uint64_t v) override;
    std::uint64_t retVal() const override { return _regs[0]; }
    void setRetVal(std::uint64_t v) override { _regs[0] = v; }
    std::uint64_t stackPointer() const override { return _regs[4]; }
    void setStackPointer(std::uint64_t sp) override { _regs[4] = sp; }

    void setupCall(VAddr target,
                   std::span<const std::uint64_t> args) override;
    void finishHijackedCall(std::uint64_t retval) override;

    CoreContext saveContext() const override;
    void restoreContext(const CoreContext &ctx) override;

  protected:
    Fault step() override;

  private:
    friend class Core; // runLoop() calls these members statically.
    friend struct Hx64Handlers;

    /** Any byte offset starts an instruction. */
    static constexpr VAddr fetchAlign = 1;

    /**
     * Execute cycles of @p d. The reference path charges the cycle only
     * after a valid length is established, so an invalid opcode (len 0)
     * faults uncharged.
     */
    static std::uint64_t cyclesOf(const Hx64Decoded &d) { return d.len != 0; }

    /** Run @p d's handler at @p pc_va (uncharged; see cyclesOf()). */
    Fault
    execute(const Hx64Decoded &d, VAddr pc_va)
    {
        return d.fn(*this, d, pc_va);
    }

    /**
     * Decode the instruction at @p pc_va (physical @p pa) into @p out,
     * resolving its handler. Returns a fault only when a page-crossing
     * instruction's second page fails to translate. @p cacheable is
     * cleared for page-crossing forms, which must re-translate their
     * second page on every execution.
     */
    Fault decodeAt(VAddr pc_va, Addr pa, Hx64Decoded &out,
                   bool &cacheable);

    /** Handler implementing @p opcode (the illegal handler if invalid). */
    static Hx64Handler handlerFor(std::uint8_t opcode);

    /** Untimed stack access through the MMU (runtime bookkeeping). */
    std::uint64_t debugReadVa(VAddr va);
    void debugWriteVa(VAddr va, std::uint64_t v);

    /** Evaluate condition @p cc (at most ccA; jcc faults on others). */
    bool evalCond(std::uint8_t cc) const;

    std::array<std::uint64_t, 16> _regs;
    /** Lazy flags: the last compare's operands. */
    std::uint64_t _cmpA = 0;
    std::uint64_t _cmpB = 0;
    /** Null when CoreParams::decodeCache is off (reference decode). */
    std::unique_ptr<DecodeCache<Hx64Decoded, 0>> _dcache;
};

} // namespace flick

#endif // FLICK_ISA_HX64_CORE_HH
