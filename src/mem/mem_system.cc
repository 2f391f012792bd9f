#include "mem/mem_system.hh"

#include <algorithm>

#include "mem/residency.hh"
#include "sim/logging.hh"

namespace flick
{

namespace
{

/**
 * Stats name of an NxP device: device 0 is "nxp" and device k is
 * "nxp<k+1>", matching the historical two-device keys ("nxp", "nxp2").
 */
std::string
devStatName(unsigned device)
{
    return device == 0 ? "nxp" : "nxp" + std::to_string(device + 1);
}

} // namespace

const char *
requesterName(Requester r)
{
    switch (r) {
      case Requester::hostCore: return "hostCore";
      case Requester::nxpCore: return "nxpCore";
      case Requester::nxpMmu: return "nxpMmu";
      case Requester::nxp2Core: return "nxp2Core";
      case Requester::nxp2Mmu: return "nxp2Mmu";
      case Requester::dma: return "dma";
      case Requester::debug: return "debug";
      default: break;
    }
    if (isNxpRequester(r))
        return static_cast<unsigned>(r) % 2 == 0 ? "nxpCore" : "nxpMmu";
    return "?";
}

MemSystem::MemSystem(const TimingConfig &timing,
                     const PlatformConfig &platform)
    : _timing(timing),
      _platform(platform),
      _hostDram(platform.hostDramBytes),
      _stats("mem")
{
    if (platform.nxpDeviceCount < 1)
        fatal("platform needs at least one NxP device");
    for (unsigned k = 0; k < platform.nxpDeviceCount; ++k) {
        std::uint64_t window = platform.deviceDramBytes(k) +
                               platform.nxpCtrlBytes;
        Addr end = platform.barBase(k) + window;
        Addr next = k + 1 < platform.nxpDeviceCount ? platform.barBase(k + 1)
                                                    : ~Addr(0);
        if (end > next)
            fatal("NxP device %u BAR window [%#llx, %#llx) overlaps device "
                  "%u at %#llx; raise barStride or shrink the device DRAM",
                  k, (unsigned long long)platform.barBase(k),
                  (unsigned long long)end, k + 1, (unsigned long long)next);
        _nxpDrams.push_back(
            std::make_unique<SparseMemory>(platform.deviceDramBytes(k)));
    }
    _ctrl.resize(platform.nxpDeviceCount, nullptr);

    // Every mutation of a backing store — routed or back-door — reaches
    // the registered decode sinks so stale predecoded text cannot
    // survive a write (DESIGN.md §13).
    _hostDram.setWriteListener([this](Addr off, std::uint64_t len) {
        notifyStoreWrite(0, off, len);
    });
    for (unsigned k = 0; k < platform.nxpDeviceCount; ++k) {
        _nxpDrams[k]->setWriteListener(
            [this, k](Addr off, std::uint64_t len) {
                notifyStoreWrite(1 + k, off, len);
            });
    }
}

std::uint64_t
MemSystem::canonicalPageKey(Requester r, Addr pa) const
{
    const PlatformConfig &p = _platform;
    bool host_space = (r == Requester::hostCore || r == Requester::dma ||
                       r == Requester::debug);
    unsigned dev;
    if (host_space) {
        if (p.inHostDram(pa))
            return pageKey(0, pa);
        if (p.inBarDram(pa, dev))
            return pageKey(1 + dev, pa - p.barBase(dev));
        return noPageKey;
    }
    unsigned from = nxpRequesterDevice(r);
    if (from >= _nxpDrams.size())
        return noPageKey;
    if (pa >= p.nxpDramLocalBase &&
        pa < p.nxpDramLocalBase + p.deviceDramBytes(from))
        return pageKey(1 + from, pa - p.nxpDramLocalBase);
    if (p.inNxpCtrl(pa))
        return noPageKey;
    if (p.inHostDram(pa))
        return pageKey(0, pa);
    if (p.inBarDram(pa, dev) && dev != from)
        return pageKey(1 + dev, pa - p.barBase(dev));
    return noPageKey;
}

void
MemSystem::addDecodeSink(DecodeSink *sink)
{
    _decodeSinks.push_back(sink);
}

void
MemSystem::removeDecodeSink(DecodeSink *sink)
{
    _decodeSinks.erase(
        std::remove(_decodeSinks.begin(), _decodeSinks.end(), sink),
        _decodeSinks.end());
}

void
MemSystem::notifyMappingChange()
{
    for (DecodeSink *sink : _decodeSinks)
        sink->invalidateAll();
}

void
MemSystem::notifyStoreWrite(unsigned store, Addr offset, std::uint64_t len)
{
    if (_decodeSinks.empty())
        return;
    std::uint64_t first = offset >> 12;
    std::uint64_t last = (offset + len - 1) >> 12;
    for (std::uint64_t page = first; page <= last; ++page) {
        std::uint64_t key = (std::uint64_t(store) << 52) | page;
        for (DecodeSink *sink : _decodeSinks)
            sink->invalidatePage(key);
    }
}

void
MemSystem::mapControlDevice(MmioDevice *dev, unsigned nxp_device)
{
    if (nxp_device >= _ctrl.size())
        panic("no NxP device %u", nxp_device);
    _ctrl[nxp_device] = dev;
}

SparseMemory &
MemSystem::nxpDram(unsigned device)
{
    if (device >= _nxpDrams.size())
        panic("no NxP device %u", device);
    return *_nxpDrams[device];
}

MemSystem::Route
MemSystem::resolve(Requester r, Addr pa, std::uint64_t len) const
{
    const PlatformConfig &p = _platform;
    bool host_space = (r == Requester::hostCore || r == Requester::dma ||
                       r == Requester::debug);

    if (host_space) {
        unsigned dev;
        if (p.inHostDram(pa)) {
            return {Route::Kind::hostDram, 0, pa,
                    r == Requester::hostCore ? _timing.hostToHostDram
                                             : Tick(0),
                    "host_to_host_dram"};
        }
        if (p.inBarDram(pa, dev)) {
            return {Route::Kind::nxpDram, dev, pa - p.barBase(dev),
                    r == Requester::hostCore ? _timing.hostToNxpDram
                                             : Tick(0),
                    "host_to_" + devStatName(dev) + "_dram"};
        }
        if (p.inBarCtrl(pa, dev)) {
            return {Route::Kind::ctrlDev, dev, pa - p.ctrlBase(dev),
                    r == Requester::hostCore ? _timing.hostToNxpMmio
                                             : Tick(0),
                    "host_to_" + devStatName(dev) + "_mmio"};
        }
        panic("%s access to unmapped host PA %#llx (len %llu)",
              requesterName(r), (unsigned long long)pa,
              (unsigned long long)len);
    }

    // NxP-local address space (each device sees its own local DRAM and
    // control window at the same device-local addresses).
    unsigned from = nxpRequesterDevice(r);
    if (from >= _nxpDrams.size())
        panic("%s access from nonexistent NxP device %u", requesterName(r),
              from);
    if (pa >= p.nxpDramLocalBase &&
        pa < p.nxpDramLocalBase + p.deviceDramBytes(from)) {
        return {Route::Kind::nxpDram, from, pa - p.nxpDramLocalBase,
                _timing.nxpToNxpDram,
                devStatName(from) + "_to_" + devStatName(from) + "_dram"};
    }
    if (p.inNxpCtrl(pa)) {
        return {Route::Kind::ctrlDev, from, pa - p.nxpCtrlLocalBase,
                _timing.nxpToLocalMmio,
                devStatName(from) + "_to_local_mmio"};
    }
    if (p.inHostDram(pa)) {
        return {Route::Kind::hostDram, 0, pa, _timing.nxpToHostDram,
                "nxp_to_host_dram"};
    }
    unsigned peer;
    if (p.inBarDram(pa, peer)) {
        if (peer != from) {
            // Peer-to-peer: one device reaching another device's BAR
            // through the PCIe switch (two link crossings).
            return {Route::Kind::nxpDram, peer, pa - p.barBase(peer),
                    _timing.nxpToHostDram + _timing.hostToNxpDram,
                    devStatName(from) + "_peer_to_" + devStatName(peer) +
                        "_dram"};
        }
        panic("%s issued un-remapped BAR address %#llx: the NxP TLB must "
              "remap BAR-range physical addresses to local addresses "
              "before the request leaves the core",
              requesterName(r), (unsigned long long)pa);
    }
    if (p.inBarCtrl(pa, peer)) {
        panic("%s issued un-remapped BAR address %#llx: the NxP TLB must "
              "remap BAR-range physical addresses to local addresses "
              "before the request leaves the core",
              requesterName(r), (unsigned long long)pa);
    }
    panic("%s access to unmapped NxP-side PA %#llx (len %llu)",
          requesterName(r), (unsigned long long)pa,
          (unsigned long long)len);
}

void
MemSystem::touchResidency(Requester r, const Route &route)
{
    // Residency is about where computation touches data: count host-core
    // and NxP-core accesses to DRAM, skip DMA staging, MMU table walks
    // and the untimed debug back door, and skip control windows (they
    // have no residency — nothing can migrate them).
    if (route.kind == Route::Kind::ctrlDev)
        return;
    unsigned store =
        route.kind == Route::Kind::hostDram ? 0 : 1 + route.device;
    std::uint64_t key = pageKey(store, route.offset);
    if (r == Requester::hostCore)
        _residency->touch(key, ResidencyTracker::hostAccessor);
    else if (isNxpRequester(r) && static_cast<unsigned>(r) % 2 == 0)
        _residency->touch(key, 1 + nxpRequesterDevice(r));
}

Tick
MemSystem::read(Requester r, Addr pa, void *buf, std::uint64_t len)
{
    Route route = resolve(r, pa, len);
    if (r != Requester::debug)
        _stats.inc(route.stat + "_reads");
    if (_residency)
        touchResidency(r, route);
    switch (route.kind) {
      case Route::Kind::hostDram:
        _hostDram.read(route.offset, buf, len);
        break;
      case Route::Kind::nxpDram:
        nxpDram(route.device).read(route.offset, buf, len);
        break;
      case Route::Kind::ctrlDev: {
        MmioDevice *dev = _ctrl[route.device];
        if (!dev)
            panic("control window read with no device mapped");
        if (len > 8)
            panic("control window read of %llu bytes",
                  (unsigned long long)len);
        std::uint64_t v = dev->mmioRead(route.offset,
                                        static_cast<unsigned>(len));
        for (std::uint64_t i = 0; i < len; ++i)
            static_cast<std::uint8_t *>(buf)[i] =
                static_cast<std::uint8_t>(v >> (8 * i));
        break;
      }
    }
    return route.latency;
}

Tick
MemSystem::write(Requester r, Addr pa, const void *buf, std::uint64_t len)
{
    Route route = resolve(r, pa, len);
    if (r != Requester::debug)
        _stats.inc(route.stat + "_writes");
    if (_residency)
        touchResidency(r, route);
    switch (route.kind) {
      case Route::Kind::hostDram:
        _hostDram.write(route.offset, buf, len);
        break;
      case Route::Kind::nxpDram:
        nxpDram(route.device).write(route.offset, buf, len);
        break;
      case Route::Kind::ctrlDev: {
        MmioDevice *dev = _ctrl[route.device];
        if (!dev)
            panic("control window write with no device mapped");
        if (len > 8)
            panic("control window write of %llu bytes",
                  (unsigned long long)len);
        std::uint64_t v = 0;
        for (std::uint64_t i = 0; i < len; ++i)
            v |= std::uint64_t(static_cast<const std::uint8_t *>(buf)[i])
                 << (8 * i);
        dev->mmioWrite(route.offset, v, static_cast<unsigned>(len));
        break;
      }
    }
    return route.latency;
}

Tick
MemSystem::readInt(Requester r, Addr pa, unsigned len, std::uint64_t &out)
{
    std::uint8_t buf[8] = {};
    if (len > 8)
        panic("readInt of %u bytes", len);
    Tick t = read(r, pa, buf, len);
    out = 0;
    for (unsigned i = 0; i < len; ++i)
        out |= std::uint64_t(buf[i]) << (8 * i);
    return t;
}

Tick
MemSystem::writeInt(Requester r, Addr pa, std::uint64_t value, unsigned len)
{
    std::uint8_t buf[8];
    if (len > 8)
        panic("writeInt of %u bytes", len);
    for (unsigned i = 0; i < len; ++i)
        buf[i] = static_cast<std::uint8_t>(value >> (8 * i));
    return write(r, pa, buf, len);
}

} // namespace flick
