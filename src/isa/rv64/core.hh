/**
 * @file
 * The RV64 NxP interpreter core.
 *
 * Models the paper's in-order scalar RV64-I soft core at 200 MHz, with
 * 16-entry one-cycle L1 TLBs backed by the programmable MMU walker, an
 * I-cache (text lives in host memory, Section III-D) and an uncached data
 * path (PCIe forbids coherent D-caching of host memory, Section IV-A).
 *
 * The step loop dispatches through a per-text-page decoded-instruction
 * cache when CoreParams::decodeCache is set (DESIGN.md §13); with it off,
 * every step decodes the raw encoding afresh. Both paths run the same
 * handlers and charge the same costs — the cache is purely a simulator
 * speed optimization.
 */

#ifndef FLICK_ISA_RV64_CORE_HH
#define FLICK_ISA_RV64_CORE_HH

#include <array>
#include <memory>

#include "isa/core.hh"
#include "isa/decode_cache.hh"
#include "isa/rv64/decode.hh"

namespace flick
{

/**
 * RV64IM interpreter.
 */
class Rv64Core : public Core
{
  public:
    Rv64Core(const CoreParams &params, MemSystem &mem);
    ~Rv64Core() override;

    IsaKind isa() const override { return IsaKind::rv64; }

    RunResult run(std::uint64_t max_instructions = ~0ull) override;

    /** Read integer register @p r (x0 reads as zero). */
    std::uint64_t reg(unsigned r) const { return r == 0 ? 0 : _regs[r]; }

    /** Write integer register @p r (writes to x0 are dropped). */
    void
    setReg(unsigned r, std::uint64_t v)
    {
        if (r != 0)
            _regs[r] = v;
    }

    // ABI: a0..a7 (x10..x17) carry arguments; a0 the return value.
    unsigned maxArgRegs() const override { return 8; }
    std::uint64_t arg(unsigned i) const override { return reg(10 + i); }
    void setArg(unsigned i, std::uint64_t v) override { setReg(10 + i, v); }
    std::uint64_t retVal() const override { return reg(10); }
    void setRetVal(std::uint64_t v) override { setReg(10, v); }
    std::uint64_t stackPointer() const override { return reg(2); }
    void setStackPointer(std::uint64_t sp) override { setReg(2, sp); }

    void setupCall(VAddr target,
                   std::span<const std::uint64_t> args) override;
    void finishHijackedCall(std::uint64_t retval) override;

    CoreContext saveContext() const override;
    void restoreContext(const CoreContext &ctx) override;

  protected:
    Fault step() override;

  private:
    friend class Core; // runLoop() calls these members statically.
    friend struct Rv64Handlers;

    /** Instruction alignment; runLoop()'s blocks leave others to step(). */
    static constexpr VAddr fetchAlign = 4;

    /** Execute cycles of @p d: one, illegal encodings included. */
    static std::uint64_t cyclesOf(const Rv64Decoded &) { return 1; }

    /** Run @p d's handler (uncharged; see cyclesOf()). */
    Fault execute(const Rv64Decoded &d, VAddr) { return d.fn(*this, d); }

    /** Handler implementing @p op. */
    static Rv64Handler handlerFor(Rv64Op op);

    std::array<std::uint64_t, 32> _regs;
    /** Null when CoreParams::decodeCache is off (reference decode). */
    std::unique_ptr<DecodeCache<Rv64Decoded, 2>> _dcache;
};

} // namespace flick

#endif // FLICK_ISA_RV64_CORE_HH
