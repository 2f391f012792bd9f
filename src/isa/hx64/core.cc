#include "isa/hx64/core.hh"

#include <algorithm>

#include "isa/hx64/insn.hh"
#include "sim/logging.hh"

namespace flick
{

using namespace hx64;

namespace
{
constexpr unsigned argRegs[6] = {rdi, rsi, rdx, rcx, r8, r9};
} // namespace

/**
 * Execute handlers, one per opcode family. Each receives the predecoded
 * instruction and the fetch PC; fall-through forms advance the PC
 * themselves via done(). The same handlers run with the decode cache on
 * or off, so the two paths cannot diverge semantically.
 *
 * Invariant: handlers read every decoded field they need BEFORE issuing
 * any guest memory write (see store/call/push). Cached dispatch passes
 * `d` by reference into the decode cache's entry array, and a store to
 * the executing page zeroes that array in place mid-handler.
 */
struct Hx64Handlers
{
    using D = Hx64Decoded;

    static Fault
    done(Hx64Core &c, const D &d, VAddr pc_va)
    {
        c.setPc(pc_va + d.len);
        return Fault::none;
    }

    static Fault
    illegal(Hx64Core &c, const D &, VAddr pc_va)
    {
        c.setFaultVa(pc_va);
        return Fault::illegalInstr;
    }

    static Fault
    halt(Hx64Core &c, const D &, VAddr pc_va)
    {
        c.setFaultVa(pc_va);
        return Fault::halt;
    }

    static Fault
    nop(Hx64Core &c, const D &d, VAddr pc_va)
    {
        return done(c, d, pc_va);
    }

    static Fault
    movRR(Hx64Core &c, const D &d, VAddr pc_va)
    {
        c._regs[d.dst] = c._regs[d.src];
        return done(c, d, pc_va);
    }

    /** MovI64 and MovI32 (the immediate is fully formed at decode). */
    static Fault
    movI(Hx64Core &c, const D &d, VAddr pc_va)
    {
        c._regs[d.src] = d.imm;
        return done(c, d, pc_va);
    }

    static Fault
    add(Hx64Core &c, const D &d, VAddr pc_va)
    {
        c._regs[d.dst] += c._regs[d.src];
        return done(c, d, pc_va);
    }

    static Fault
    sub(Hx64Core &c, const D &d, VAddr pc_va)
    {
        c._regs[d.dst] -= c._regs[d.src];
        return done(c, d, pc_va);
    }

    static Fault
    and_(Hx64Core &c, const D &d, VAddr pc_va)
    {
        c._regs[d.dst] &= c._regs[d.src];
        return done(c, d, pc_va);
    }

    static Fault
    or_(Hx64Core &c, const D &d, VAddr pc_va)
    {
        c._regs[d.dst] |= c._regs[d.src];
        return done(c, d, pc_va);
    }

    static Fault
    xor_(Hx64Core &c, const D &d, VAddr pc_va)
    {
        c._regs[d.dst] ^= c._regs[d.src];
        return done(c, d, pc_va);
    }

    static Fault
    shl(Hx64Core &c, const D &d, VAddr pc_va)
    {
        c._regs[d.dst] <<= (c._regs[d.src] & 63);
        return done(c, d, pc_va);
    }

    static Fault
    shr(Hx64Core &c, const D &d, VAddr pc_va)
    {
        c._regs[d.dst] >>= (c._regs[d.src] & 63);
        return done(c, d, pc_va);
    }

    static Fault
    sar(Hx64Core &c, const D &d, VAddr pc_va)
    {
        c._regs[d.dst] = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(c._regs[d.dst]) >>
            (c._regs[d.src] & 63));
        return done(c, d, pc_va);
    }

    static Fault
    mul(Hx64Core &c, const D &d, VAddr pc_va)
    {
        c._regs[d.dst] *= c._regs[d.src];
        return done(c, d, pc_va);
    }

    static Fault
    udiv(Hx64Core &c, const D &d, VAddr pc_va)
    {
        std::uint64_t v = c._regs[d.src];
        c._regs[d.dst] = v == 0 ? ~0ull : c._regs[d.dst] / v;
        return done(c, d, pc_va);
    }

    static Fault
    urem(Hx64Core &c, const D &d, VAddr pc_va)
    {
        std::uint64_t v = c._regs[d.src];
        c._regs[d.dst] = v == 0 ? c._regs[d.dst] : c._regs[d.dst] % v;
        return done(c, d, pc_va);
    }

    static Fault
    addI(Hx64Core &c, const D &d, VAddr pc_va)
    {
        c._regs[d.src] += d.imm;
        return done(c, d, pc_va);
    }

    static Fault
    subI(Hx64Core &c, const D &d, VAddr pc_va)
    {
        c._regs[d.src] -= d.imm;
        return done(c, d, pc_va);
    }

    static Fault
    andI(Hx64Core &c, const D &d, VAddr pc_va)
    {
        c._regs[d.src] &= d.imm;
        return done(c, d, pc_va);
    }

    static Fault
    orI(Hx64Core &c, const D &d, VAddr pc_va)
    {
        c._regs[d.src] |= d.imm;
        return done(c, d, pc_va);
    }

    static Fault
    xorI(Hx64Core &c, const D &d, VAddr pc_va)
    {
        c._regs[d.src] ^= d.imm;
        return done(c, d, pc_va);
    }

    static Fault
    shlI(Hx64Core &c, const D &d, VAddr pc_va)
    {
        c._regs[d.src] <<= (d.imm & 63);
        return done(c, d, pc_va);
    }

    static Fault
    shrI(Hx64Core &c, const D &d, VAddr pc_va)
    {
        c._regs[d.src] >>= (d.imm & 63);
        return done(c, d, pc_va);
    }

    static Fault
    sarI(Hx64Core &c, const D &d, VAddr pc_va)
    {
        c._regs[d.src] = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(c._regs[d.src]) >> (d.imm & 63));
        return done(c, d, pc_va);
    }

    static Fault
    load(Hx64Core &c, const D &d, VAddr pc_va)
    {
        static const unsigned sizes[] = {1, 2, 4, 8, 1, 2, 4, 0};
        bool sign = d.opcode >= opLds8;
        unsigned size = sizes[(d.opcode - opLd8) & 7];
        VAddr va = c._regs[d.src] + d.imm;
        std::uint64_t v = 0;
        if (Fault f = c.dataRead(va, size, sign, v); f != Fault::none)
            return f;
        c._regs[d.dst] = v;
        return done(c, d, pc_va);
    }

    static Fault
    store(Hx64Core &c, const D &d, VAddr pc_va)
    {
        unsigned size = 1u << (d.opcode - opSt8);
        VAddr va = c._regs[d.dst] + d.imm;
        // Every decoded field is read before the write: cached dispatch
        // passes `d` by reference into the cache line, and the write may
        // invalidate (zero) this instruction's own page.
        VAddr next_pc = pc_va + d.len;
        if (Fault f = c.dataWrite(va, size, c._regs[d.src]);
            f != Fault::none) {
            return f;
        }
        c.setPc(next_pc);
        return Fault::none;
    }

    static Fault
    cmpRR(Hx64Core &c, const D &d, VAddr pc_va)
    {
        c._cmpA = c._regs[d.dst];
        c._cmpB = c._regs[d.src];
        return done(c, d, pc_va);
    }

    static Fault
    cmpI(Hx64Core &c, const D &d, VAddr pc_va)
    {
        c._cmpA = c._regs[d.src];
        c._cmpB = d.imm;
        return done(c, d, pc_va);
    }

    static Fault
    jmp(Hx64Core &c, const D &d, VAddr pc_va)
    {
        c.setPc(pc_va + d.len + d.imm);
        return Fault::none;
    }

    static Fault
    jcc(Hx64Core &c, const D &d, VAddr pc_va)
    {
        // A condition byte above ccA names no condition: the instruction
        // is illegal, as an unknown syscall number is.
        if (d.aux > ccA) {
            c.setFaultVa(pc_va);
            return Fault::illegalInstr;
        }
        VAddr next_pc = pc_va + d.len;
        c.setPc(c.evalCond(d.aux) ? next_pc + d.imm : next_pc);
        return Fault::none;
    }

    static Fault
    call(Hx64Core &c, const D &d, VAddr pc_va)
    {
        VAddr next_pc = pc_va + d.len;
        // d.imm read before the push: a call whose push lands on its own
        // text page invalidates the cache line `d` may live on.
        VAddr target = next_pc + d.imm;
        c._regs[rsp] -= 8;
        if (Fault f = c.dataWrite(c._regs[rsp], 8, next_pc);
            f != Fault::none) {
            c._regs[rsp] += 8;
            return f;
        }
        c.setPc(target);
        return Fault::none;
    }

    static Fault
    callR(Hx64Core &c, const D &d, VAddr pc_va)
    {
        // Target read before the push so `callr rsp` sees the pre-push
        // stack pointer.
        VAddr target = c._regs[d.src];
        VAddr next_pc = pc_va + d.len;
        c._regs[rsp] -= 8;
        if (Fault f = c.dataWrite(c._regs[rsp], 8, next_pc);
            f != Fault::none) {
            c._regs[rsp] += 8;
            return f;
        }
        c.setPc(target);
        return Fault::none;
    }

    static Fault
    ret(Hx64Core &c, const D &, VAddr)
    {
        std::uint64_t ret_addr = 0;
        if (Fault f = c.dataRead(c._regs[rsp], 8, false, ret_addr);
            f != Fault::none) {
            return f;
        }
        c._regs[rsp] += 8;
        c.setPc(ret_addr);
        return Fault::none;
    }

    static Fault
    push(Hx64Core &c, const D &d, VAddr pc_va)
    {
        VAddr next_pc = pc_va + d.len; // Read before the write (see store).
        c._regs[rsp] -= 8;
        if (Fault f = c.dataWrite(c._regs[rsp], 8, c._regs[d.src]);
            f != Fault::none) {
            c._regs[rsp] += 8;
            return f;
        }
        c.setPc(next_pc);
        return Fault::none;
    }

    static Fault
    pop(Hx64Core &c, const D &d, VAddr pc_va)
    {
        std::uint64_t v = 0;
        if (Fault f = c.dataRead(c._regs[rsp], 8, false, v);
            f != Fault::none) {
            return f;
        }
        c._regs[rsp] += 8;
        c._regs[d.src] = v;
        return done(c, d, pc_va);
    }

    static Fault
    jmpR(Hx64Core &c, const D &d, VAddr)
    {
        c.setPc(c._regs[d.src]);
        return Fault::none;
    }

    static Fault
    lea(Hx64Core &c, const D &d, VAddr pc_va)
    {
        c._regs[d.dst] = c._regs[d.src] + d.imm;
        return done(c, d, pc_va);
    }

    static Fault
    syscall(Hx64Core &c, const D &d, VAddr pc_va)
    {
        switch (d.aux) {
          case 0:
            c.setFaultVa(pc_va);
            return Fault::halt;
          case 1:
            inform("hx64 syscall print: %llu",
                   (unsigned long long)c._regs[rdi]);
            return done(c, d, pc_va);
          default:
            c.setFaultVa(pc_va);
            return Fault::illegalInstr;
        }
    }
};

Hx64Core::Hx64Core(const CoreParams &params, MemSystem &mem)
    : Core(params, mem)
{
    _regs.fill(0);
    if (params.decodeCache) {
        _dcache = std::make_unique<DecodeCache<Hx64Decoded, 0>>();
        mem.addDecodeSink(_dcache.get());
        setDecodeCacheStats(_dcache.get());
    }
}

Hx64Core::~Hx64Core()
{
    if (_dcache)
        mem().removeDecodeSink(_dcache.get());
}

std::uint64_t
Hx64Core::arg(unsigned i) const
{
    if (i >= 6)
        panic("hx64 arg index %u", i);
    return _regs[argRegs[i]];
}

void
Hx64Core::setArg(unsigned i, std::uint64_t v)
{
    if (i >= 6)
        panic("hx64 arg index %u", i);
    _regs[argRegs[i]] = v;
}

std::uint64_t
Hx64Core::debugReadVa(VAddr va)
{
    TranslationResult tr = mmu().translate(va, AccessType::read);
    if (tr.fault != Fault::none)
        panic("hx64 runtime stack read fault at %#llx (%s)",
              (unsigned long long)va, faultName(tr.fault));
    std::uint64_t v = 0;
    mem().readInt(Requester::debug, tr.pa, 8, v);
    return v;
}

void
Hx64Core::debugWriteVa(VAddr va, std::uint64_t v)
{
    TranslationResult tr = mmu().translate(va, AccessType::write);
    if (tr.fault != Fault::none)
        panic("hx64 runtime stack write fault at %#llx (%s)",
              (unsigned long long)va, faultName(tr.fault));
    mem().writeInt(Requester::debug, tr.pa, v, 8);
}

void
Hx64Core::setupCall(VAddr target, std::span<const std::uint64_t> args)
{
    if (args.size() > 6)
        panic("hx64 setupCall with %zu args (max 6)", args.size());
    for (unsigned i = 0; i < args.size(); ++i)
        setArg(i, args[i]);
    // Push the trampoline as the return address, like `call` would.
    _regs[rsp] -= 8;
    debugWriteVa(_regs[rsp], runtimeTrampoline);
    setPc(target);
}

void
Hx64Core::finishHijackedCall(std::uint64_t retval)
{
    // The hijacked call left its return address on the stack; popping it
    // and delivering rax is exactly the callee's `ret` (Section IV-B1).
    setRetVal(retval);
    VAddr ret_addr = debugReadVa(_regs[rsp]);
    _regs[rsp] += 8;
    setPc(ret_addr);
}

CoreContext
Hx64Core::saveContext() const
{
    CoreContext ctx{};
    std::copy(_regs.begin(), _regs.end(), ctx.begin());
    ctx[16] = pc();
    ctx[17] = _cmpA;
    ctx[18] = _cmpB;
    return ctx;
}

void
Hx64Core::restoreContext(const CoreContext &ctx)
{
    for (unsigned i = 0; i < 16; ++i)
        _regs[i] = ctx[i];
    setPc(ctx[16]);
    _cmpA = ctx[17];
    _cmpB = ctx[18];
}

bool
Hx64Core::evalCond(std::uint8_t cc) const
{
    std::int64_t sa = static_cast<std::int64_t>(_cmpA);
    std::int64_t sb = static_cast<std::int64_t>(_cmpB);
    switch (cc) {
      case ccEq: return _cmpA == _cmpB;
      case ccNe: return _cmpA != _cmpB;
      case ccLt: return sa < sb;
      case ccGe: return sa >= sb;
      case ccLe: return sa <= sb;
      case ccGt: return sa > sb;
      case ccB: return _cmpA < _cmpB;
      case ccAe: return _cmpA >= _cmpB;
      case ccBe: return _cmpA <= _cmpB;
      case ccA: return _cmpA > _cmpB;
    }
    panic("hx64 bad condition code %u", cc);
}

Hx64Handler
Hx64Core::handlerFor(std::uint8_t opcode)
{
    switch (opcode) {
      case opHalt: return &Hx64Handlers::halt;
      case opNop: return &Hx64Handlers::nop;
      case opMovRR: return &Hx64Handlers::movRR;
      case opMovI64:
      case opMovI32: return &Hx64Handlers::movI;
      case opAdd: return &Hx64Handlers::add;
      case opSub: return &Hx64Handlers::sub;
      case opAnd: return &Hx64Handlers::and_;
      case opOr: return &Hx64Handlers::or_;
      case opXor: return &Hx64Handlers::xor_;
      case opShl: return &Hx64Handlers::shl;
      case opShr: return &Hx64Handlers::shr;
      case opSar: return &Hx64Handlers::sar;
      case opMul: return &Hx64Handlers::mul;
      case opUdiv: return &Hx64Handlers::udiv;
      case opUrem: return &Hx64Handlers::urem;
      case opAddI: return &Hx64Handlers::addI;
      case opSubI: return &Hx64Handlers::subI;
      case opAndI: return &Hx64Handlers::andI;
      case opOrI: return &Hx64Handlers::orI;
      case opXorI: return &Hx64Handlers::xorI;
      case opShlI: return &Hx64Handlers::shlI;
      case opShrI: return &Hx64Handlers::shrI;
      case opSarI: return &Hx64Handlers::sarI;
      case opLd8: case opLd16: case opLd32: case opLd64:
      case opLds8: case opLds16: case opLds32:
        return &Hx64Handlers::load;
      case opSt8: case opSt16: case opSt32: case opSt64:
        return &Hx64Handlers::store;
      case opCmpRR: return &Hx64Handlers::cmpRR;
      case opCmpI: return &Hx64Handlers::cmpI;
      case opJmp: return &Hx64Handlers::jmp;
      case opJcc: return &Hx64Handlers::jcc;
      case opCall: return &Hx64Handlers::call;
      case opCallR: return &Hx64Handlers::callR;
      case opRet: return &Hx64Handlers::ret;
      case opPush: return &Hx64Handlers::push;
      case opPop: return &Hx64Handlers::pop;
      case opJmpR: return &Hx64Handlers::jmpR;
      case opLea: return &Hx64Handlers::lea;
      case opSyscall: return &Hx64Handlers::syscall;
      default: return &Hx64Handlers::illegal;
    }
}

Fault
Hx64Core::decodeAt(VAddr pc_va, Addr pa, Hx64Decoded &out, bool &cacheable)
{
    std::uint8_t buf[10];
    fetchBytes(pa, buf, 1);
    unsigned len = insnLength(buf[0]);
    cacheable = true;
    if (len == 0) {
        // Invalid opcodes decode to an entry whose handler raises the
        // fault; no operand bytes are consumed and no cycle is charged
        // (out.len == 0), matching the historical decode path.
        hx64Decode(buf, out);
        out.fn = &Hx64Handlers::illegal;
        return Fault::none;
    }

    // Variable-length instructions may cross a page boundary; the second
    // page needs its own translation (and NX check).
    unsigned first_page_bytes = static_cast<unsigned>(
        std::min<std::uint64_t>(len, 4096 - (pc_va & 4095)));
    if (first_page_bytes > 1)
        fetchBytes(pa + 1, buf + 1, first_page_bytes - 1);
    if (first_page_bytes < len) {
        // Never cached: the second page's translation charge, TLB
        // effects, and possible fault must recur on every execution,
        // exactly as the reference path behaves.
        cacheable = false;
        Addr pa2 = 0;
        if (Fault f = fetchTranslate(pc_va + first_page_bytes, pa2);
            f != Fault::none) {
            return f;
        }
        fetchBytes(pa2, buf + first_page_bytes, len - first_page_bytes);
    }

    hx64Decode(buf, out);
    out.fn = handlerFor(out.opcode);
    return Fault::none;
}

RunResult
Hx64Core::run(std::uint64_t max_instructions)
{
    return runLoop(*this, max_instructions);
}

Fault
Hx64Core::step()
{
    VAddr pc_va = pc();
    Addr pa = 0;
    if (Fault f = fetchTranslate(pc_va, pa); f != Fault::none)
        return f;

    Hx64Decoded *slot = nullptr;
    if (_dcache) {
        slot = slotFor(*_dcache, pa);
        if (slot && slot->fn) {
            // Dispatch straight off the cache line — no defensive copy.
            // Handlers read every decoded field before any memory write
            // (see Hx64Handlers), so a store that invalidates its own
            // page cannot clobber fields the dispatch still needs.
            ++_dcache->hits;
            chargeCycles(cyclesOf(*slot));
            return execute(*slot, pc_va);
        }
    }

    Hx64Decoded d;
    bool cacheable = true;
    if (Fault f = decodeAt(pc_va, pa, d, cacheable); f != Fault::none)
        return f;
    if (_dcache) {
        if (slot && cacheable) {
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
