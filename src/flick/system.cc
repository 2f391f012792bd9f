#include "flick/system.hh"

#include <ostream>

#include "isa/hx64/disasm.hh"
#include "isa/rv64/disasm.hh"
#include "sim/logging.hh"

namespace flick
{

namespace
{

CoreParams
hostCoreParams(const TimingConfig &t, bool decode_cache)
{
    CoreParams p;
    p.name = "host";
    p.requester = Requester::hostCore;
    p.freqHz = t.hostFreqHz;
    p.itlbEntries = t.hostTlbEntries;
    p.dtlbEntries = t.hostTlbEntries;
    p.walkOverhead = t.hostMmuWalkOverhead;
    p.mmuPolicy.faultOnNxFetch = true;
    p.modelIcache = false;
    p.decodeCache = decode_cache;
    return p;
}

CoreParams
nxpCoreParams(const TimingConfig &t, unsigned device, bool decode_cache)
{
    CoreParams p;
    p.name = device == 0 ? "nxp" : "nxp" + std::to_string(device + 1);
    p.requester = nxpCoreRequester(device);
    p.freqHz = t.nxpFreqHz;
    p.itlbEntries = t.nxpItlbEntries;
    p.dtlbEntries = t.nxpDtlbEntries;
    p.walkOverhead = t.nxpMmuWalkOverhead;
    p.mmuPolicy.faultOnNonNxFetch = true;
    p.mmuPolicy.requiredIsaTag = nxpIsaTag + device;
    p.modelIcache = true;
    p.icacheLines = t.nxpIcacheLines;
    p.icacheLineBytes = t.nxpIcacheLineBytes;
    p.decodeCache = decode_cache;
    return p;
}

} // namespace

FlickSystem::NxpDevice::NxpDevice(const SystemConfig &config, unsigned id,
                                  MemSystem &mem, EventQueue &events,
                                  IrqController &irq)
    : core(nxpCoreParams(config.timing, id, config.decodeCache), mem),
      platform(mem, id),
      dma(events, mem, &irq, id),
      windowHeap(core.name() + "_window",
                 layout::nxpWindowBaseFor(id) +
                     PlatformConfig::nxpReservedBytes,
                 config.platform.deviceDramBytes(id) -
                     PlatformConfig::nxpReservedBytes)
{
    platform.setNxpMmu(&core.mmu());
}

FlickSystem::FlickSystem(SystemConfig config)
    : _config(std::move(config)),
      _mem(_config.timing, _config.platform),
      _chaos(_config.chaos),
      _irq(_events, _config.timing),
      _hostAlloc("host_dram", 0x100000,
                 _config.platform.hostDramBytes - 0x100000),
      _nxpAlloc("nxp_dram",
                _config.platform.nxpDramLocalBase +
                    PlatformConfig::nxpReservedBytes,
                _config.platform.deviceDramBytes(0) -
                    PlatformConfig::nxpReservedBytes),
      _ptm(_mem, _hostAlloc),
      _hostCore(hostCoreParams(_config.timing, _config.decodeCache), _mem),
      _loader(_mem, _ptm, _hostAlloc, _nxpAlloc)
{
    if (_config.platform.nxpDeviceCount == 0)
        fatal("a Flick platform needs at least one NxP device");

    // Every fabric component consults the one chaos controller, so a
    // seed fully determines the injected fault sequence. With fault
    // injection off none is attached, so no crossing consults it.
    ChaosController *chaos = _config.chaos.enabled ? &_chaos : nullptr;
    _irq.setChaos(chaos);

    // The one tracer (disabled unless configured): milestones from the
    // engine and kernel, queue-depth gauges from the DMA engines.
    if (_config.trace)
        _tracer.enable();
    _kernel.setTracer(&_tracer, &_events);

    _engine = std::make_unique<MigrationEngine>(_events, _mem, _ptm,
                                                _config.timing, _kernel,
                                                _irq, _hostCore);
    _engine->setChaos(chaos);
    _engine->setTracer(&_tracer);
    _engine->setRetryBudget(_config.retryBudget);
    _engine->setCallDeadline(_config.callDeadline);
    _engine->setHostFallback(_config.hostFallback);
    _engine->setHealthStrikeLimit(_config.healthStrikeLimit);
    _engine->setQos(_config.qos);

    // Placement policy (DESIGN.md §11). The policy object always exists
    // (debug().policy() is total), but the engine is only pointed at it
    // when the config asks for more than the default link-time pinning:
    // the fault-free default dispatch path stays exactly the paper's.
    _placement = _config.placementPolicy
                     ? _config.placementPolicy
                     : makePlacementPolicy(_config.placement);
    if (_config.placementPolicy ||
        _config.placement != PlacementKind::staticPlacement)
        _engine->setPlacementPolicy(_placement.get());

    // Per device: its core, platform controller, DMA engine and window
    // heap, plus a host-side staging ring the kernel packages outbound
    // descriptors into and a host-side inbox ring the device's outbox
    // DMAs into, registered with the engine in device-id order. The
    // device-local mailbox rings live in the reserved window of its
    // DRAM (NxpPlatform).
    unsigned slots = _config.ringSlots;
    if (slots == 0)
        slots = 1;
    if (slots > NxpPlatform::maxRingSlots)
        slots = NxpPlatform::maxRingSlots;
    std::uint64_t ring_bytes = slots * DescriptorRing::slotBytes;
    for (unsigned k = 0; k < _config.platform.nxpDeviceCount; ++k) {
        auto dev =
            std::make_unique<NxpDevice>(_config, k, _mem, _events, _irq);
        dev->dma.setChaos(chaos);
        dev->dma.setTracer(&_tracer);
        dev->core.setNativeRange(layout::nativeGateNxp,
                                 layout::nativeGateNxp + 4096,
                                 _natives.makeHook(IsaKind::rv64));
        Addr staging = _hostAlloc.allocate(ring_bytes);
        Addr inbox = _hostAlloc.allocate(ring_bytes);
        _engine->addNxpDevice(dev->core, dev->platform, dev->dma,
                              dev->windowHeap, staging, inbox, k, slots);
        _devices.push_back(std::move(dev));
    }
    _engine->setNxpStackBytes(_config.nxpStackBytes);

    // Native-function gate of the host core.
    _hostCore.setNativeRange(layout::nativeGateHost,
                             layout::nativeGateHost + 4096,
                             _natives.makeHook(IsaKind::hx64));

    // Driver bring-up: compute each device's BAR remap offset and write
    // it into that device's TLB control register through its control
    // BAR, as the host driver does at boot (Section IV-A).
    for (unsigned k = 0; k < _config.platform.nxpDeviceCount; ++k) {
        _mem.writeInt(Requester::hostCore,
                      _config.platform.ctrlBase(k) +
                          NxpPlatform::regBarRemap,
                      _config.platform.barRemapOffsetFor(k), 8);
    }
}

FlickSystem::NxpDevice &
FlickSystem::nxpDevice(unsigned id)
{
    if (id >= _devices.size())
        fatal("no NxP device %u", id);
    return *_devices[id];
}

Rv64Core &
FlickSystem::Debug::nxpCore(unsigned device) const
{
    return sys->nxpDevice(device).core;
}

NxpPlatform &
FlickSystem::Debug::nxpPlatform(unsigned device) const
{
    return sys->nxpDevice(device).platform;
}

DmaEngine &
FlickSystem::Debug::dma(unsigned device) const
{
    return sys->nxpDevice(device).dma;
}

RegionHeap &
FlickSystem::Debug::nxpHeap(unsigned device) const
{
    return sys->nxpDevice(device).windowHeap;
}

Process &
FlickSystem::load(const Program &program)
{
    LinkedImage image = program.link(_natives);
    auto proc = std::make_unique<Process>();
    proc->image = _loader.load(image, _config.loadOptions);
    proc->task = &_kernel.createTask(proc->image.cr3);
    // Tenants (DESIGN.md §14) are numbered in process load order, so the
    // _cr3#<k> stat suffixes and withTenantWeight() indices are stable
    // across runs regardless of submission interleaving.
    if (_config.qos.enabled)
        _engine->registerTenant(proc->image.cr3);
    proc->task->hostStackTop = proc->image.hostStackTop;
    proc->task->hostStackBytes = _config.loadOptions.hostStackBytes;
    proc->hostHeap = std::make_unique<RegionHeap>(
        "host_heap", proc->image.hostHeapBase, proc->image.hostHeapBytes);
    // Spawned threads carve their stacks below the main stack, separated
    // by unmapped guard gaps.
    proc->nextThreadStackTop = proc->image.hostStackTop -
                               _config.loadOptions.hostStackBytes -
                               threadStackGuard;
    // Multi-ISA binaries carry every function as text for every ISA
    // (Section 3.3): a symbol "f__host" is the host-ISA twin of "f" and
    // becomes f's failover target when host fallback is enabled — and,
    // since PR 5, the target a placement policy steers to when its cost
    // model says crossing does not pay (DESIGN.md §11).
    static const std::string twin_suffix = "__host";
    for (const auto &[name, va] : proc->image.symbols) {
        if (name.size() <= twin_suffix.size() ||
            name.compare(name.size() - twin_suffix.size(),
                         twin_suffix.size(), twin_suffix) != 0)
            continue;
        auto orig = proc->image.symbols.find(
            name.substr(0, name.size() - twin_suffix.size()));
        if (orig != proc->image.symbols.end())
            _engine->registerHostFallback(proc->image.cr3, orig->second,
                                          va);
    }

    // Device twins: "f__dev<k>" is f assembled for NxP k. The linked
    // image's executable sections say which device each symbol's text
    // really belongs to (the loader tags its PTEs accordingly); the
    // registry built here is what lets a placement policy re-point a
    // faulted call at any device's copy of the function. Twins inherit
    // the original's "__host" fallback so failover works regardless of
    // which copy a call was steered to.
    auto execDevice = [&image](VAddr va) -> int {
        for (const auto &sec : image.sections) {
            if (!sec.executable || va < sec.base ||
                va >= sec.base + sec.bytes.size())
                continue;
            return sec.isa == IsaKind::rv64 ? static_cast<int>(sec.nxpDevice)
                                            : -1;
        }
        return -1;
    };
    static const std::string dev_infix = "__dev";
    for (const auto &[name, va] : proc->image.symbols) {
        auto pos = name.rfind(dev_infix);
        if (pos == std::string::npos || pos == 0 ||
            pos + dev_infix.size() >= name.size())
            continue;
        bool digits = true;
        for (auto i = pos + dev_infix.size(); i < name.size(); ++i)
            digits = digits && name[i] >= '0' && name[i] <= '9';
        if (!digits)
            continue;
        auto orig = proc->image.symbols.find(name.substr(0, pos));
        if (orig == proc->image.symbols.end())
            continue;
        int twin_dev = execDevice(va);
        int home_dev = execDevice(orig->second);
        if (twin_dev < 0 || home_dev < 0)
            continue; // not a pair of NxP text symbols
        Addr cr3 = proc->image.cr3;
        _engine->registerDeviceTwin(cr3, orig->second,
                                    static_cast<unsigned>(home_dev),
                                    orig->second);
        _engine->registerDeviceTwin(cr3, orig->second,
                                    static_cast<unsigned>(twin_dev), va);
        auto host_twin =
            proc->image.symbols.find(name.substr(0, pos) + twin_suffix);
        if (host_twin != proc->image.symbols.end())
            _engine->registerHostFallback(cr3, va, host_twin->second);
    }
    _processes.push_back(std::move(proc));
    return *_processes.back();
}

Task &
FlickSystem::spawnThread(Process &process, std::uint64_t stack_bytes)
{
    stack_bytes = (stack_bytes + 4095) & ~std::uint64_t(4095);
    VAddr top = process.nextThreadStackTop;
    VAddr base = top - stack_bytes;
    for (VAddr va = base; va < top; va += 4096) {
        Addr pa = _hostAlloc.allocate(4096);
        _ptm.map(process.image.cr3, va, pa, 4096, PageSize::size4K,
                 pte::user | pte::writable | pte::noExecute);
    }
    process.nextThreadStackTop = base - threadStackGuard;
    return _kernel.createThread(process.image.cr3, top, stack_bytes);
}

void
FlickSystem::exitThread(Task &thread)
{
    _engine->releaseNxpStacks(thread);
    _kernel.exitTask(thread);
}

CallFuture
FlickSystem::submit(Process &process, CallSpec spec)
{
    Task &thread = spec.task ? *spec.task : *process.task;
    VAddr va = spec.symbol.empty() ? spec.address
                                   : process.image.symbol(spec.symbol);
    if (!va)
        fatal("CallSpec names neither a symbol nor an address");
    MigrationEngine::SubmitOptions opts;
    opts.deadline = spec.deadline;
    opts.placementHint = spec.placementHint;
    return _engine->submit(thread, va, spec.args,
                           thread.hostStackTop - 64, opts);
}

std::uint64_t
FlickSystem::call(Process &process, const std::string &symbol,
                  std::vector<std::uint64_t> args)
{
    return callVa(process, process.image.symbol(symbol), std::move(args));
}

std::uint64_t
FlickSystem::callVa(Process &process, VAddr va,
                    std::vector<std::uint64_t> args)
{
    CallFuture f =
        submit(process, CallSpec::addr(va).withArgs(std::move(args)));
    std::uint64_t v = f.wait();
    if (f.status() != CallStatus::ok) {
        // The synchronous API has no way to hand the outcome back;
        // failing loudly beats returning a fabricated 0.
        fatal("call at %#llx failed with status %s",
              (unsigned long long)va, callStatusName(f.status()));
    }
    return v;
}

VAddr
FlickSystem::nxpMalloc(std::uint64_t bytes, std::uint64_t align,
                       unsigned device)
{
    return nxpDevice(device).windowHeap.allocate(bytes, align);
}

VAddr
FlickSystem::hostMalloc(Process &process, std::uint64_t bytes,
                        std::uint64_t align)
{
    return process.hostHeap->allocate(bytes, align);
}

Addr
FlickSystem::translateDebug(const Process &process, VAddr va) const
{
    auto tr = _ptm.translate(process.image.cr3, va);
    if (!tr)
        fatal("debug access to unmapped VA %#llx", (unsigned long long)va);
    return tr->pa;
}

std::uint64_t
FlickSystem::readVa(const Process &process, VAddr va, unsigned len)
{
    std::uint64_t v = 0;
    _mem.readInt(Requester::debug, translateDebug(process, va), len, v);
    return v;
}

void
FlickSystem::writeVa(Process &process, VAddr va, std::uint64_t value,
                     unsigned len)
{
    _mem.writeInt(Requester::debug, translateDebug(process, va), value,
                  len);
}

void
FlickSystem::writeBlock(Process &process, VAddr va, const void *data,
                        std::uint64_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    while (len > 0) {
        std::uint64_t in_page = 4096 - (va & 4095);
        std::uint64_t take = std::min(len, in_page);
        _mem.write(Requester::debug, translateDebug(process, va), p, take);
        va += take;
        p += take;
        len -= take;
    }
}

void
FlickSystem::readBlock(const Process &process, VAddr va, void *data,
                       std::uint64_t len)
{
    auto *p = static_cast<std::uint8_t *>(data);
    while (len > 0) {
        std::uint64_t in_page = 4096 - (va & 4095);
        std::uint64_t take = std::min(len, in_page);
        _mem.read(Requester::debug, translateDebug(process, va), p, take);
        va += take;
        p += take;
        len -= take;
    }
}

void
FlickSystem::enableInstructionTrace(std::ostream *os)
{
    if (!os) {
        _hostCore.setTraceHook(nullptr);
        for (auto &dev : _devices)
            dev->core.setTraceHook(nullptr);
        return;
    }

    // Instruction bytes are fetched through the untimed debug path so
    // tracing does not perturb TLB or cache statistics.
    auto fetch = [this](Addr cr3, VAddr pc, std::uint8_t *buf,
                        unsigned len) -> unsigned {
        unsigned got = 0;
        while (got < len) {
            auto tr = _ptm.translate(cr3, pc + got);
            if (!tr)
                break;
            unsigned in_page = static_cast<unsigned>(
                4096 - ((pc + got) & 4095));
            unsigned take = std::min(len - got, in_page);
            _mem.read(Requester::debug, tr->pa, buf + got, take);
            got += take;
        }
        return got;
    };

    _hostCore.setTraceHook([this, os, fetch](VAddr pc) {
        std::uint8_t buf[10] = {};
        unsigned got = fetch(_hostCore.mmu().cr3(), pc, buf, sizeof buf);
        Hx64Disasm d = hx64Disassemble(buf, got, pc);
        *os << strfmt("%12llu  %-4s %#12llx: %s\n",
                      (unsigned long long)_events.now(),
                      _hostCore.name().c_str(), (unsigned long long)pc,
                      d.text.c_str());
    });
    for (auto &dev : _devices) {
        Rv64Core &core = dev->core;
        core.setTraceHook([this, os, fetch, &core](VAddr pc) {
            std::uint8_t buf[4] = {};
            fetch(core.mmu().cr3(), pc, buf, 4);
            std::uint32_t insn = 0;
            for (int i = 0; i < 4; ++i)
                insn |= std::uint32_t(buf[i]) << (8 * i);
            *os << strfmt("%12llu  %-4s %#12llx: %s\n",
                          (unsigned long long)_events.now(),
                          core.name().c_str(), (unsigned long long)pc,
                          rv64Disassemble(insn, pc).c_str());
        });
    }
}

void
FlickSystem::dumpStats(std::ostream &os)
{
    _mem.stats().dump(os);
    _kernel.stats().dump(os);
    _chaos.stats().dump(os);
    _irq.stats().dump(os);
    _engine->stats().dump(os);
    _hostCore.stats().dump(os);
    _hostCore.mmu().itlb().stats().dump(os);
    _hostCore.mmu().dtlb().stats().dump(os);
    for (auto &dev : _devices) {
        dev->core.stats().dump(os);
        dev->platform.stats().dump(os);
        dev->dma.stats().dump(os);
        dev->core.mmu().itlb().stats().dump(os);
        dev->core.mmu().dtlb().stats().dump(os);
        dev->core.mmu().walker().stats().dump(os);
        if (dev->core.icache())
            dev->core.icache()->stats().dump(os);
    }
    if (_tracer.on())
        _tracer.dumpBreakdown(os);
}

} // namespace flick
