#include "isa/core.hh"

#include "isa/decode_cache.hh"
#include "sim/logging.hh"

namespace flick
{

Core::Core(const CoreParams &params, MemSystem &mem)
    : _name(params.name),
      _mem(mem),
      _requester(params.requester),
      _clock(params.freqHz),
      _mmu(params.name, mem, params.requester, params.walkOverhead,
           params.itlbEntries, params.dtlbEntries, params.mmuPolicy),
      _stats(params.name)
{
    if (params.modelIcache) {
        unsigned device = isNxpRequester(params.requester)
                              ? nxpRequesterDevice(params.requester)
                              : 0;
        _icache = std::make_unique<ICache>(params.name + ".icache",
                                           params.icacheLines,
                                           params.icacheLineBytes, device);
    }
}

void
Core::syncDecodeStats()
{
    if (!_decodeCacheStats)
        return;
    // The step loop bumps raw fields (a StatGroup bump per step would
    // tax the fast path); publish them here once per slice.
    _decodeHits.set(_decodeCacheStats->hits);
    _decodeFills.set(_decodeCacheStats->fills);
    _decodeFallbacks.set(_decodeCacheStats->fallbacks);
    _decodeInvalidated.set(_decodeCacheStats->invalidatedPages);
}

void
Core::fetchLineFill(Addr pa)
{
    // Line fill from wherever the text lives (host memory for NxP
    // sections placed per Section III-D); one burst at route latency.
    std::uint8_t line[256];
    unsigned lb = _icache->lineBytes();
    if (lb > sizeof(line))
        panic("icache line too large");
    Addr line_pa = pa & ~Addr(lb - 1);
    chargeTicks(_mem.read(_requester, line_pa, line, lb));
}

void
Core::fetchBytes(Addr pa, void *buf, unsigned len)
{
    // Bytes come straight from backing store, through this core's own
    // address map (an NxP's text may sit in its local DRAM); timing was
    // charged by fetchTranslate (I-cache model) or is considered hidden
    // (host).
    _mem.peek(_requester, pa, buf, len);
}

Fault
Core::dataRead(VAddr va, unsigned len, bool sign_extend, std::uint64_t &out)
{
    TranslationResult tr = _mmu.translate(va, AccessType::read);
    chargeTicks(tr.latency);
    if (tr.fault != Fault::none) {
        _faultVa = va;
        return tr.fault;
    }
    std::uint64_t raw = 0;
    chargeTicks(_mem.readInt(_requester, tr.pa, len, raw));
    if (sign_extend && len < 8) {
        std::uint64_t sign_bit = 1ull << (8 * len - 1);
        if (raw & sign_bit)
            raw |= ~((sign_bit << 1) - 1);
    }
    out = raw;
    return Fault::none;
}

Fault
Core::dataWrite(VAddr va, unsigned len, std::uint64_t value)
{
    TranslationResult tr = _mmu.translate(va, AccessType::write);
    chargeTicks(tr.latency);
    if (tr.fault != Fault::none) {
        _faultVa = va;
        return tr.fault;
    }
    chargeTicks(_mem.writeInt(_requester, tr.pa, value, len));
    return Fault::none;
}

} // namespace flick
