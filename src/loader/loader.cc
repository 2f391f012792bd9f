#include "loader/loader.hh"

#include "sim/logging.hh"

namespace flick
{

namespace
{

constexpr std::uint64_t
roundUp4k(std::uint64_t v)
{
    return (v + 4095) & ~std::uint64_t(4095);
}

} // namespace

VAddr
LoadedProgram::symbol(const std::string &name) const
{
    auto it = symbols.find(name);
    if (it == symbols.end())
        fatal("undefined symbol '%s' in loaded program", name.c_str());
    return it->second;
}

void
ProgramLoader::mapHostRegion(Addr cr3, VAddr va, std::uint64_t bytes,
                             std::uint64_t flags)
{
    bytes = roundUp4k(bytes);
    Addr pa = _hostAlloc.allocate(bytes);
    _ptm.map(cr3, va, pa, bytes, PageSize::size4K, flags);
}

LoadedProgram
ProgramLoader::load(const LinkedImage &image, const LoadOptions &options)
{
    const PlatformConfig &platform = _mem.platform();
    LoadedProgram prog;
    prog.cr3 = _ptm.createRoot();
    prog.symbols = image.symbols;

    for (const LinkedSection &s : image.sections) {
        if (s.bytes.empty())
            continue;
        std::uint64_t bytes = roundUp4k(s.bytes.size());
        if (s.base % 4096 != 0)
            fatal("section %s not page aligned at %#llx", s.name.c_str(),
                  (unsigned long long)s.base);

        if (s.nxpLocal) {
            // Annotated .nxp sections: frames in NxP local DRAM, reached
            // by the host through BAR0 physical addresses; the NxP TLB
            // remap turns them back into local accesses (Section III-D).
            Addr local_pa = _nxpAlloc.allocate(bytes);
            _mem.nxpDram().write(local_pa - platform.nxpDramLocalBase,
                                 s.bytes.data(), s.bytes.size());
            Addr host_pa = local_pa + platform.barRemapOffset();
            _ptm.map(prog.cr3, s.base, host_pa, bytes, PageSize::size4K,
                     pte::user | pte::writable | pte::noExecute);
            continue;
        }

        Addr pa = _hostAlloc.allocate(bytes);
        _mem.hostDram().write(pa, s.bytes.data(), s.bytes.size());

        if (s.executable) {
            // Text is first mapped executable, then the extended
            // mprotect() pass marks NxP-ISA sections no-execute by
            // section name, as the modified GLIBC loader does
            // (Section IV-C3). The software ISA tag in the ignored PTE
            // bits is the paper's suggested mechanism for executables
            // with more than two ISAs: the fault handler reads it to
            // pick the right NxP.
            _ptm.map(prog.cr3, s.base, pa, bytes, PageSize::size4K,
                     pte::user);
            if (s.isa == IsaKind::rv64) {
                _ptm.protect(
                    prog.cr3, s.base, bytes,
                    pte::noExecute |
                        pte::makeIsaTag(nxpIsaTag + s.nxpDevice),
                    0);
            }
        } else {
            std::uint64_t flags = pte::user | pte::noExecute;
            if (s.writable)
                flags |= pte::writable;
            _ptm.map(prog.cr3, s.base, pa, bytes, PageSize::size4K, flags);
        }
    }

    // Host stack.
    prog.hostStackBytes = roundUp4k(options.hostStackBytes);
    prog.hostStackTop = layout::hostStackTop;
    mapHostRegion(prog.cr3, prog.hostStackTop - prog.hostStackBytes,
                  prog.hostStackBytes,
                  pte::user | pte::writable | pte::noExecute);

    // Host heap.
    prog.hostHeapBase = layout::hostHeapBase;
    prog.hostHeapBytes = roundUp4k(options.hostHeapBytes);
    mapHostRegion(prog.cr3, prog.hostHeapBase, prog.hostHeapBytes,
                  pte::user | pte::writable | pte::noExecute);

    // The NxP DRAM windows: the unified view of each device's local
    // memory. Host PTEs carry BAR physical addresses; the prototype maps
    // the whole 4 GB with 1 GB pages so four NxP TLB entries cover it
    // (Section V).
    if (options.mapNxpWindow) {
        std::uint64_t granule = pageBytes(options.nxpWindowPageSize);
        prog.nxpWindows.resize(platform.nxpDeviceCount, 0);
        prog.nxpWindowSizes.resize(platform.nxpDeviceCount, 0);
        for (unsigned k = 0; k < platform.nxpDeviceCount; ++k) {
            if (platform.barBase(k) % granule != 0)
                fatal("device %u BAR base %#llx not aligned to %#llx "
                      "window pages",
                      k, (unsigned long long)platform.barBase(k),
                      (unsigned long long)granule);
            VAddr window = layout::nxpWindowBaseFor(k);
            std::uint64_t bytes = platform.deviceDramBytes(k);
            prog.nxpWindows[k] = window;
            prog.nxpWindowSizes[k] = bytes;
            _ptm.map(prog.cr3, window, platform.barBase(k), bytes,
                     options.nxpWindowPageSize,
                     pte::user | pte::writable | pte::noExecute);
        }
    }

    // Native-function gate pages: one page that looks like host text
    // (NX clear) and one that looks like NxP text (NX set). The runtime
    // intercepts PCs in these pages before fetch; their contents are
    // never executed.
    mapHostRegion(prog.cr3, layout::nativeGateHost, 4096, pte::user);
    mapHostRegion(prog.cr3, layout::nativeGateNxp, 4096,
                  pte::user | pte::noExecute |
                      pte::makeIsaTag(nxpIsaTag));

    return prog;
}

} // namespace flick
