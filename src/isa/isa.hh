/**
 * @file
 * ISA-neutral definitions shared by the two instruction sets.
 *
 * The platform pairs an x86-like host ISA ("HX64": variable-length,
 * SysV-flavoured ABI) with a RISC-V RV64 NxP ISA (genuine RV64IM
 * encodings, standard RISC-V ABI). See DESIGN.md for why HX64 stands in
 * for real x86-64: Flick depends only on the ISAs being different, having
 * different ABIs, host encodings being variable-length, and the host page
 * tables carrying NX bits.
 */

#ifndef FLICK_ISA_ISA_HH
#define FLICK_ISA_ISA_HH

#include <array>
#include <cstdint>

#include "vm/pte.hh"

namespace flick
{

/** The two instruction sets of the platform. */
enum class IsaKind
{
    hx64, //!< Host ISA (x86-like, variable length).
    rv64, //!< NxP ISA (RISC-V RV64, fixed 4-byte).
};

/** Printable ISA name, also used in section names (.text.<isa>). */
constexpr const char *
isaName(IsaKind isa)
{
    return isa == IsaKind::hx64 ? "hx64" : "rv64";
}

/**
 * Relocation kinds understood by the multi-ISA linker.
 *
 * The linker dispatches on the section's ISA exactly as the paper's
 * modified linker invokes per-ISA relocation functions (Section IV-C2).
 */
enum class RelocType
{
    abs64,       //!< 64-bit absolute address (either ISA, data too).
    rel32,       //!< HX64 call/jmp: signed 32-bit PC-relative (next-insn).
    rvJal20,     //!< RV64 JAL: +-1 MB PC-relative.
    rvBranch12,  //!< RV64 conditional branch: +-4 KB PC-relative.
    rvAuipcPair, //!< RV64 AUIPC + following I-type (la/call): +-2 GB.
};

/**
 * Architectural state saved by a context switch (Core::saveContext).
 * RV64 fills it: 32 registers, then the PC. HX64 uses the first 19
 * words (16 registers, the PC, the two compare operands) and leaves the
 * rest 0. Its fixed size keeps context switches free of allocation.
 */
using CoreContext = std::array<std::uint64_t, 33>;

/**
 * The runtime trampoline address.
 *
 * The migration runtimes plant this as the return address of every
 * function they invoke; a core whose PC reaches it stops with
 * Fault::trampoline, handing control (and the ABI return value) back to
 * the runtime. It lives in the canonical lower half but is never mapped.
 */
constexpr VAddr runtimeTrampoline = 0x00007fffdead0000ull;

} // namespace flick

#endif // FLICK_ISA_ISA_HH
