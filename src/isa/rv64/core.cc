#include "isa/rv64/core.hh"

#include <algorithm>

#include "isa/rv64/encoding.hh"
#include "sim/logging.hh"

namespace flick
{

using namespace rv64;

/**
 * Execute handlers, one per Rv64Op. Each reads the un-advanced PC from
 * the core and either advances it (done()) or redirects it. The same
 * handlers run with the decode cache on or off, so the two paths cannot
 * diverge semantically.
 *
 * Invariant: handlers read every decoded field they need BEFORE issuing
 * any guest memory write. Cached dispatch passes `d` by reference into
 * the decode cache's entry array, and a store to the executing page
 * zeroes that array in place mid-handler.
 */
struct Rv64Handlers
{
    using D = Rv64Decoded;

    static Fault
    done(Rv64Core &c)
    {
        c.setPc(c.pc() + 4);
        return Fault::none;
    }

    /** Sign-extend a 32-bit result into the 64-bit register file. */
    static std::uint64_t
    sx32(std::uint32_t r)
    {
        return static_cast<std::uint64_t>(
            static_cast<std::int64_t>(static_cast<std::int32_t>(r)));
    }

    static Fault
    illegal(Rv64Core &c, const D &)
    {
        c.setFaultVa(c.pc());
        return Fault::illegalInstr;
    }

    static Fault
    lui(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, d.imm);
        return done(c);
    }

    static Fault
    auipc(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, c.pc() + d.imm);
        return done(c);
    }

    static Fault
    jal(Rv64Core &c, const D &d)
    {
        VAddr target = c.pc() + d.imm;
        c.setReg(d.rd, c.pc() + 4);
        c.setPc(target);
        return Fault::none;
    }

    static Fault
    jalr(Rv64Core &c, const D &d)
    {
        VAddr target = (c.reg(d.rs1) + d.imm) & ~VAddr(1);
        c.setReg(d.rd, c.pc() + 4);
        c.setPc(target);
        return Fault::none;
    }

    static Fault
    branch(Rv64Core &c, const D &d, bool taken)
    {
        c.setPc(taken ? c.pc() + d.imm : c.pc() + 4);
        return Fault::none;
    }

    static Fault
    beq(Rv64Core &c, const D &d)
    {
        return branch(c, d, c.reg(d.rs1) == c.reg(d.rs2));
    }

    static Fault
    bne(Rv64Core &c, const D &d)
    {
        return branch(c, d, c.reg(d.rs1) != c.reg(d.rs2));
    }

    static Fault
    blt(Rv64Core &c, const D &d)
    {
        return branch(c, d, std::int64_t(c.reg(d.rs1)) <
                                std::int64_t(c.reg(d.rs2)));
    }

    static Fault
    bge(Rv64Core &c, const D &d)
    {
        return branch(c, d, std::int64_t(c.reg(d.rs1)) >=
                                std::int64_t(c.reg(d.rs2)));
    }

    static Fault
    bltu(Rv64Core &c, const D &d)
    {
        return branch(c, d, c.reg(d.rs1) < c.reg(d.rs2));
    }

    static Fault
    bgeu(Rv64Core &c, const D &d)
    {
        return branch(c, d, c.reg(d.rs1) >= c.reg(d.rs2));
    }

    static Fault
    loadCommon(Rv64Core &c, const D &d, unsigned len, bool sign)
    {
        VAddr va = c.reg(d.rs1) + d.imm;
        std::uint64_t v = 0;
        if (Fault f = c.dataRead(va, len, sign, v); f != Fault::none)
            return f;
        c.setReg(d.rd, v);
        return done(c);
    }

    static Fault
    lb(Rv64Core &c, const D &d) { return loadCommon(c, d, 1, true); }
    static Fault
    lh(Rv64Core &c, const D &d) { return loadCommon(c, d, 2, true); }
    static Fault
    lw(Rv64Core &c, const D &d) { return loadCommon(c, d, 4, true); }
    static Fault
    ld(Rv64Core &c, const D &d) { return loadCommon(c, d, 8, true); }
    static Fault
    lbu(Rv64Core &c, const D &d) { return loadCommon(c, d, 1, false); }
    static Fault
    lhu(Rv64Core &c, const D &d) { return loadCommon(c, d, 2, false); }
    static Fault
    lwu(Rv64Core &c, const D &d) { return loadCommon(c, d, 4, false); }

    static Fault
    storeCommon(Rv64Core &c, const D &d, unsigned len)
    {
        VAddr va = c.reg(d.rs1) + d.imm;
        if (Fault f = c.dataWrite(va, len, c.reg(d.rs2));
            f != Fault::none) {
            return f;
        }
        return done(c);
    }

    static Fault
    sb(Rv64Core &c, const D &d) { return storeCommon(c, d, 1); }
    static Fault
    sh(Rv64Core &c, const D &d) { return storeCommon(c, d, 2); }
    static Fault
    sw(Rv64Core &c, const D &d) { return storeCommon(c, d, 4); }
    static Fault
    sd(Rv64Core &c, const D &d) { return storeCommon(c, d, 8); }

    static Fault
    addi(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, c.reg(d.rs1) + d.imm);
        return done(c);
    }

    static Fault
    slli(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, c.reg(d.rs1) << d.imm);
        return done(c);
    }

    static Fault
    slti(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd,
                 std::int64_t(c.reg(d.rs1)) < std::int64_t(d.imm));
        return done(c);
    }

    static Fault
    sltiu(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, c.reg(d.rs1) < d.imm);
        return done(c);
    }

    static Fault
    xori(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, c.reg(d.rs1) ^ d.imm);
        return done(c);
    }

    static Fault
    srli(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, c.reg(d.rs1) >> d.imm);
        return done(c);
    }

    static Fault
    srai(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, static_cast<std::uint64_t>(
                           std::int64_t(c.reg(d.rs1)) >> d.imm));
        return done(c);
    }

    static Fault
    ori(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, c.reg(d.rs1) | d.imm);
        return done(c);
    }

    static Fault
    andi(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, c.reg(d.rs1) & d.imm);
        return done(c);
    }

    static Fault
    addiw(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, sx32(std::uint32_t(c.reg(d.rs1)) +
                            std::uint32_t(d.imm)));
        return done(c);
    }

    static Fault
    slliw(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, sx32(std::uint32_t(c.reg(d.rs1))
                            << unsigned(d.imm)));
        return done(c);
    }

    static Fault
    srliw(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd,
                 sx32(std::uint32_t(c.reg(d.rs1)) >> unsigned(d.imm)));
        return done(c);
    }

    static Fault
    sraiw(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, sx32(static_cast<std::uint32_t>(
                           std::int32_t(std::uint32_t(c.reg(d.rs1))) >>
                           unsigned(d.imm))));
        return done(c);
    }

    static Fault
    add(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, c.reg(d.rs1) + c.reg(d.rs2));
        return done(c);
    }

    static Fault
    sub(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, c.reg(d.rs1) - c.reg(d.rs2));
        return done(c);
    }

    static Fault
    sll(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, c.reg(d.rs1) << (c.reg(d.rs2) & 0x3f));
        return done(c);
    }

    static Fault
    slt(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, std::int64_t(c.reg(d.rs1)) <
                           std::int64_t(c.reg(d.rs2)));
        return done(c);
    }

    static Fault
    sltu(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, c.reg(d.rs1) < c.reg(d.rs2));
        return done(c);
    }

    static Fault
    xorr(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, c.reg(d.rs1) ^ c.reg(d.rs2));
        return done(c);
    }

    static Fault
    srl(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, c.reg(d.rs1) >> (c.reg(d.rs2) & 0x3f));
        return done(c);
    }

    static Fault
    sra(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, static_cast<std::uint64_t>(
                           std::int64_t(c.reg(d.rs1)) >>
                           (c.reg(d.rs2) & 0x3f)));
        return done(c);
    }

    static Fault
    orr(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, c.reg(d.rs1) | c.reg(d.rs2));
        return done(c);
    }

    static Fault
    andr(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, c.reg(d.rs1) & c.reg(d.rs2));
        return done(c);
    }

    static Fault
    mul(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, c.reg(d.rs1) * c.reg(d.rs2));
        return done(c);
    }

    static Fault
    divs(Rv64Core &c, const D &d)
    {
        std::uint64_t a = c.reg(d.rs1), b = c.reg(d.rs2);
        c.setReg(d.rd, b == 0 ? ~0ull
                              : static_cast<std::uint64_t>(
                                    std::int64_t(a) / std::int64_t(b)));
        return done(c);
    }

    static Fault
    divu(Rv64Core &c, const D &d)
    {
        std::uint64_t a = c.reg(d.rs1), b = c.reg(d.rs2);
        c.setReg(d.rd, b == 0 ? ~0ull : a / b);
        return done(c);
    }

    static Fault
    rems(Rv64Core &c, const D &d)
    {
        std::uint64_t a = c.reg(d.rs1), b = c.reg(d.rs2);
        c.setReg(d.rd, b == 0 ? a
                              : static_cast<std::uint64_t>(
                                    std::int64_t(a) % std::int64_t(b)));
        return done(c);
    }

    static Fault
    remu(Rv64Core &c, const D &d)
    {
        std::uint64_t a = c.reg(d.rs1), b = c.reg(d.rs2);
        c.setReg(d.rd, b == 0 ? a : a % b);
        return done(c);
    }

    static Fault
    addw(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, sx32(std::uint32_t(c.reg(d.rs1)) +
                            std::uint32_t(c.reg(d.rs2))));
        return done(c);
    }

    static Fault
    subw(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, sx32(std::uint32_t(c.reg(d.rs1)) -
                            std::uint32_t(c.reg(d.rs2))));
        return done(c);
    }

    static Fault
    sllw(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, sx32(std::uint32_t(c.reg(d.rs1))
                            << (c.reg(d.rs2) & 0x1f)));
        return done(c);
    }

    static Fault
    srlw(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, sx32(std::uint32_t(c.reg(d.rs1)) >>
                            (c.reg(d.rs2) & 0x1f)));
        return done(c);
    }

    static Fault
    sraw(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, sx32(static_cast<std::uint32_t>(
                           std::int32_t(std::uint32_t(c.reg(d.rs1))) >>
                           (c.reg(d.rs2) & 0x1f))));
        return done(c);
    }

    static Fault
    mulw(Rv64Core &c, const D &d)
    {
        c.setReg(d.rd, sx32(std::uint32_t(c.reg(d.rs1)) *
                            std::uint32_t(c.reg(d.rs2))));
        return done(c);
    }

    static Fault
    divw(Rv64Core &c, const D &d)
    {
        std::uint32_t a = std::uint32_t(c.reg(d.rs1));
        std::uint32_t b = std::uint32_t(c.reg(d.rs2));
        c.setReg(d.rd, sx32(b == 0 ? ~0u
                                   : static_cast<std::uint32_t>(
                                         std::int32_t(a) /
                                         std::int32_t(b))));
        return done(c);
    }

    static Fault
    divuw(Rv64Core &c, const D &d)
    {
        std::uint32_t a = std::uint32_t(c.reg(d.rs1));
        std::uint32_t b = std::uint32_t(c.reg(d.rs2));
        c.setReg(d.rd, sx32(b == 0 ? ~0u : a / b));
        return done(c);
    }

    static Fault
    remw(Rv64Core &c, const D &d)
    {
        std::uint32_t a = std::uint32_t(c.reg(d.rs1));
        std::uint32_t b = std::uint32_t(c.reg(d.rs2));
        c.setReg(d.rd, sx32(b == 0 ? a
                                   : static_cast<std::uint32_t>(
                                         std::int32_t(a) %
                                         std::int32_t(b))));
        return done(c);
    }

    static Fault
    remuw(Rv64Core &c, const D &d)
    {
        std::uint32_t a = std::uint32_t(c.reg(d.rs1));
        std::uint32_t b = std::uint32_t(c.reg(d.rs2));
        c.setReg(d.rd, sx32(b == 0 ? a : a % b));
        return done(c);
    }

    static Fault
    ecall(Rv64Core &c, const D &)
    {
        // a7 selects the debug service; decided at execute time so the
        // cached entry stays valid whatever a7 holds.
        std::uint64_t nr = c.reg(regA7);
        if (nr == 93) { // exit
            c.setFaultVa(c.pc());
            return Fault::halt;
        }
        if (nr == 1) { // debug: print integer in a0
            inform("rv64 ecall print: %llu",
                   (unsigned long long)c.reg(regA0));
            return done(c);
        }
        c.setFaultVa(c.pc());
        return Fault::illegalInstr;
    }

    static Fault
    ebreak(Rv64Core &c, const D &)
    {
        c.setFaultVa(c.pc());
        return Fault::halt;
    }
};

Rv64Core::Rv64Core(const CoreParams &params, MemSystem &mem)
    : Core(params, mem)
{
    _regs.fill(0);
    if (params.decodeCache) {
        _dcache = std::make_unique<DecodeCache<Rv64Decoded, 2>>();
        mem.addDecodeSink(_dcache.get());
        setDecodeCacheStats(_dcache.get());
    }
}

Rv64Core::~Rv64Core()
{
    if (_dcache)
        mem().removeDecodeSink(_dcache.get());
}

void
Rv64Core::setupCall(VAddr target, std::span<const std::uint64_t> args)
{
    if (args.size() > maxArgRegs())
        panic("rv64 setupCall with %zu args (max 8)", args.size());
    for (unsigned i = 0; i < args.size(); ++i)
        setArg(i, args[i]);
    setReg(regRa, runtimeTrampoline);
    setPc(target);
}

void
Rv64Core::finishHijackedCall(std::uint64_t retval)
{
    // The faulted call left the return address in ra; delivering the value
    // in a0 and jumping to ra is exactly the callee's `ret`.
    setRetVal(retval);
    setPc(reg(regRa));
}

CoreContext
Rv64Core::saveContext() const
{
    CoreContext ctx{};
    std::copy(_regs.begin(), _regs.end(), ctx.begin());
    ctx[32] = pc();
    return ctx;
}

void
Rv64Core::restoreContext(const CoreContext &ctx)
{
    for (unsigned i = 0; i < 32; ++i)
        _regs[i] = ctx[i];
    _regs[0] = 0;
    setPc(ctx[32]);
}

Rv64Handler
Rv64Core::handlerFor(Rv64Op op)
{
    switch (op) {
      case Rv64Op::lui: return &Rv64Handlers::lui;
      case Rv64Op::auipc: return &Rv64Handlers::auipc;
      case Rv64Op::jal: return &Rv64Handlers::jal;
      case Rv64Op::jalr: return &Rv64Handlers::jalr;
      case Rv64Op::beq: return &Rv64Handlers::beq;
      case Rv64Op::bne: return &Rv64Handlers::bne;
      case Rv64Op::blt: return &Rv64Handlers::blt;
      case Rv64Op::bge: return &Rv64Handlers::bge;
      case Rv64Op::bltu: return &Rv64Handlers::bltu;
      case Rv64Op::bgeu: return &Rv64Handlers::bgeu;
      case Rv64Op::lb: return &Rv64Handlers::lb;
      case Rv64Op::lh: return &Rv64Handlers::lh;
      case Rv64Op::lw: return &Rv64Handlers::lw;
      case Rv64Op::ld: return &Rv64Handlers::ld;
      case Rv64Op::lbu: return &Rv64Handlers::lbu;
      case Rv64Op::lhu: return &Rv64Handlers::lhu;
      case Rv64Op::lwu: return &Rv64Handlers::lwu;
      case Rv64Op::sb: return &Rv64Handlers::sb;
      case Rv64Op::sh: return &Rv64Handlers::sh;
      case Rv64Op::sw: return &Rv64Handlers::sw;
      case Rv64Op::sd: return &Rv64Handlers::sd;
      case Rv64Op::addi: return &Rv64Handlers::addi;
      case Rv64Op::slli: return &Rv64Handlers::slli;
      case Rv64Op::slti: return &Rv64Handlers::slti;
      case Rv64Op::sltiu: return &Rv64Handlers::sltiu;
      case Rv64Op::xori: return &Rv64Handlers::xori;
      case Rv64Op::srli: return &Rv64Handlers::srli;
      case Rv64Op::srai: return &Rv64Handlers::srai;
      case Rv64Op::ori: return &Rv64Handlers::ori;
      case Rv64Op::andi: return &Rv64Handlers::andi;
      case Rv64Op::addiw: return &Rv64Handlers::addiw;
      case Rv64Op::slliw: return &Rv64Handlers::slliw;
      case Rv64Op::srliw: return &Rv64Handlers::srliw;
      case Rv64Op::sraiw: return &Rv64Handlers::sraiw;
      case Rv64Op::add: return &Rv64Handlers::add;
      case Rv64Op::sub: return &Rv64Handlers::sub;
      case Rv64Op::sll: return &Rv64Handlers::sll;
      case Rv64Op::slt: return &Rv64Handlers::slt;
      case Rv64Op::sltu: return &Rv64Handlers::sltu;
      case Rv64Op::xorr: return &Rv64Handlers::xorr;
      case Rv64Op::srl: return &Rv64Handlers::srl;
      case Rv64Op::sra: return &Rv64Handlers::sra;
      case Rv64Op::orr: return &Rv64Handlers::orr;
      case Rv64Op::andr: return &Rv64Handlers::andr;
      case Rv64Op::mul: return &Rv64Handlers::mul;
      case Rv64Op::divs: return &Rv64Handlers::divs;
      case Rv64Op::divu: return &Rv64Handlers::divu;
      case Rv64Op::rems: return &Rv64Handlers::rems;
      case Rv64Op::remu: return &Rv64Handlers::remu;
      case Rv64Op::addw: return &Rv64Handlers::addw;
      case Rv64Op::subw: return &Rv64Handlers::subw;
      case Rv64Op::sllw: return &Rv64Handlers::sllw;
      case Rv64Op::srlw: return &Rv64Handlers::srlw;
      case Rv64Op::sraw: return &Rv64Handlers::sraw;
      case Rv64Op::mulw: return &Rv64Handlers::mulw;
      case Rv64Op::divw: return &Rv64Handlers::divw;
      case Rv64Op::divuw: return &Rv64Handlers::divuw;
      case Rv64Op::remw: return &Rv64Handlers::remw;
      case Rv64Op::remuw: return &Rv64Handlers::remuw;
      case Rv64Op::ecall: return &Rv64Handlers::ecall;
      case Rv64Op::ebreak: return &Rv64Handlers::ebreak;
      default: return &Rv64Handlers::illegal;
    }
}

RunResult
Rv64Core::run(std::uint64_t max_instructions)
{
    return runLoop(*this, max_instructions);
}

Fault
Rv64Core::step()
{
    VAddr pc_va = pc();
    if (pc_va & 3) {
        // The secondary NxP migration trigger: host text is variable
        // length, so calls into it usually hit this before the NX check.
        setFaultVa(pc_va);
        return Fault::misalignedFetch;
    }

    Addr pa = 0;
    if (Fault f = fetchTranslate(pc_va, pa); f != Fault::none)
        return f;

    Rv64Decoded *slot = nullptr;
    if (_dcache) {
        slot = slotFor(*_dcache, pa);
        if (slot && slot->fn) {
            // Dispatch straight off the cache line — no defensive copy.
            // Handlers read every decoded field before any memory write
            // (see Rv64Handlers), so a store that invalidates its own
            // page cannot clobber fields the dispatch still needs.
            ++_dcache->hits;
            chargeCycles(cyclesOf(*slot));
            return execute(*slot, pc_va);
        }
    }

    Rv64Decoded d;
    std::uint32_t insn = 0;
    fetchBytes(pa, &insn, 4);
    rv64Decode(insn, d);
    d.fn = handlerFor(d.op);
    if (_dcache) {
        if (slot) {
            *slot = d;
            ++_dcache->fills;
        } else {
            ++_dcache->fallbacks;
        }
    }
    chargeCycles(cyclesOf(d));
    return execute(d, pc_va);
}

} // namespace flick
