/**
 * @file
 * Routed physical memory system.
 *
 * MemSystem owns the backing stores for host and NxP DRAM and routes every
 * access by (requester, physical address) to the right store or device,
 * returning the latency charged by the timing model. Host-side requesters
 * use the host physical address space (DRAM low, BAR0/BAR1 windows); NxP-
 * side requesters use the NxP-local space (host DRAM through the bridge at
 * identical addresses, local DRAM at nxpDramLocalBase, control window).
 *
 * An NxP-side access to a BAR0-range address is a routing error: such
 * addresses must be remapped to local addresses by the NxP TLB before the
 * request leaves the core (Section IV-A). Catching them here turns remap
 * bugs into immediate panics instead of silent wrong-latency accesses.
 */

#ifndef FLICK_MEM_MEM_SYSTEM_HH
#define FLICK_MEM_MEM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/device.hh"
#include "mem/platform.hh"
#include "mem/sparse_memory.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"
#include "sim/timing_config.hh"

namespace flick
{

class ResidencyTracker;

/**
 * Who is issuing a memory access; selects address space and latency.
 *
 * NxP-side requesters are device-indexed: device k's core is encoded as
 * nxpCore + 2k and its programmable MMU as nxpMmu + 2k, so an N-device
 * fabric needs no new enumerators. Use nxpCoreRequester()/
 * nxpMmuRequester() to build them and nxpRequesterDevice() to decode.
 */
enum class Requester : unsigned
{
    hostCore = 0,    //!< Host CPU (user or kernel), host PA space.
    dma = 1,         //!< DMA engine; latency accounted by the engine itself.
    debug = 2,       //!< Harness/loader back door; zero latency, host PAs.
    nxpCore = 0x10,  //!< NxP device 0 core, NxP-local PA space.
    nxpMmu = 0x11,   //!< NxP device 0 programmable MMU walks, local space.
    nxp2Core = 0x12, //!< NxP device 1 core (= nxpCoreRequester(1)).
    nxp2Mmu = 0x13,  //!< NxP device 1 programmable MMU.
};

/** Requester for NxP device @p device's core. */
inline Requester
nxpCoreRequester(unsigned device)
{
    return static_cast<Requester>(
        static_cast<unsigned>(Requester::nxpCore) + 2 * device);
}

/** Requester for NxP device @p device's programmable MMU. */
inline Requester
nxpMmuRequester(unsigned device)
{
    return static_cast<Requester>(
        static_cast<unsigned>(Requester::nxpMmu) + 2 * device);
}

/** True if @p r is an NxP-side requester (any device, core or MMU). */
inline bool
isNxpRequester(Requester r)
{
    return static_cast<unsigned>(r) >=
           static_cast<unsigned>(Requester::nxpCore);
}

/** Device index of an NxP-side requester. */
inline unsigned
nxpRequesterDevice(Requester r)
{
    return (static_cast<unsigned>(r) -
            static_cast<unsigned>(Requester::nxpCore)) / 2;
}

/** Name of a requester, for diagnostics. */
const char *requesterName(Requester r);

/**
 * A consumer of physical-page write notifications — in practice the
 * per-core decoded-instruction caches (DESIGN.md §13).
 *
 * Pages are identified by canonical keys (MemSystem::canonicalPageKey)
 * that name the backing store page, not a requester-relative address, so
 * one notification reaches every core that cached that text no matter
 * through which window (host DRAM, BAR, NxP-local, bridge) it fetched.
 */
class DecodeSink
{
  public:
    virtual ~DecodeSink() = default;

    /** A write touched the physical page named by @p key. */
    virtual void invalidatePage(std::uint64_t key) = 0;

    /** Mappings or protections changed; drop every decoded entry. */
    virtual void invalidateAll() = 0;
};

/**
 * The platform's physical memory fabric.
 */
class MemSystem
{
  public:
    MemSystem(const TimingConfig &timing, const PlatformConfig &platform);

    const PlatformConfig &platform() const { return _platform; }
    const TimingConfig &timing() const { return _timing; }

    /**
     * Map an NxP device's control window.
     *
     * Device @p nxp_device's window is visible at nxpCtrlLocalBase from
     * that device's core and at BAR1/BAR3 from the host. The pointer is
     * not owned.
     */
    void mapControlDevice(MmioDevice *dev, unsigned nxp_device = 0);

    /**
     * Perform a timed read.
     *
     * @return Latency of the access per the timing model.
     */
    Tick read(Requester r, Addr pa, void *buf, std::uint64_t len);

    /** Perform a timed write. @return Latency of the access. */
    Tick write(Requester r, Addr pa, const void *buf, std::uint64_t len);

    /** Timed integer read of @p len (1/2/4/8) bytes, little endian. */
    Tick readInt(Requester r, Addr pa, unsigned len, std::uint64_t &out);

    /** Timed integer write of @p len (1/2/4/8) bytes, little endian. */
    Tick writeInt(Requester r, Addr pa, std::uint64_t value, unsigned len);

    /** Direct access to backing stores (loader/harness back door). */
    SparseMemory &hostDram() { return _hostDram; }
    SparseMemory &nxpDram(unsigned device = 0);

    /** Per-route access counters. */
    StatGroup &stats() { return _stats; }

    // --- Decode-cache invalidation plumbing (DESIGN.md §13) -------------

    /** Key meaning "no cacheable backing page" (MMIO/unmapped). */
    static constexpr std::uint64_t noPageKey = ~0ull;

    /** Canonical key of the page at @p offset in backing store @p store
     *  (0 = host DRAM, 1 + k = NxP device k's DRAM). */
    static std::uint64_t
    pageKey(unsigned store, Addr offset)
    {
        return (std::uint64_t(store) << 52) | (offset >> 12);
    }

    /**
     * Canonical page key for requester @p r's physical address @p pa.
     *
     * Physical addresses are per-requester-space, so the same backing
     * page has several names (host DRAM directly and through the NxP
     * bridge; NxP DRAM through its BAR and its local window); the key
     * collapses them to (store, store-relative page). Returns noPageKey
     * for control windows and unmapped addresses — callers must treat
     * those as uncacheable, not as errors (the access itself will panic
     * through resolve() exactly as it always did).
     */
    std::uint64_t canonicalPageKey(Requester r, Addr pa) const;

    /** Register a decode sink to be notified of page writes. */
    void addDecodeSink(DecodeSink *sink);

    /** Remove a previously registered decode sink. */
    void removeDecodeSink(DecodeSink *sink);

    /** Broadcast a mapping/protection change (mprotect, unmap). */
    void notifyMappingChange();

    // --- Residency tracking (DESIGN.md §15) -----------------------------

    /**
     * Attach (or detach, with nullptr) a residency tracker. While
     * attached, every timed core access (host core or an NxP core; not
     * DMA, not MMU walks, not the debug back door) bumps the tracker's
     * per-page counter for the accessing core. Counting is passive:
     * latencies and event order are unchanged.
     */
    void setResidencyTracker(ResidencyTracker *tracker)
    {
        _residency = tracker;
    }

  private:
    /** Fan a store write out to every sink, one call per touched page. */
    void notifyStoreWrite(unsigned store, Addr offset, std::uint64_t len);

    /** Resolution of one physical access. */
    struct Route
    {
        enum class Kind { hostDram, nxpDram, ctrlDev } kind;
        unsigned device; //!< NxP device index for nxpDram/ctrlDev kinds.
        Addr offset;     //!< Offset within the target store/window.
        Tick latency;    //!< Charge for this access.
        std::string stat; //!< Stats key.
    };

    Route resolve(Requester r, Addr pa, std::uint64_t len) const;

    /** Bump the residency counter for a resolved core access. */
    void touchResidency(Requester r, const Route &route);

    const TimingConfig &_timing;
    PlatformConfig _platform;
    SparseMemory _hostDram;
    std::vector<std::unique_ptr<SparseMemory>> _nxpDrams;
    std::vector<MmioDevice *> _ctrl;
    std::vector<DecodeSink *> _decodeSinks;
    ResidencyTracker *_residency = nullptr;
    StatGroup _stats;
};

} // namespace flick

#endif // FLICK_MEM_MEM_SYSTEM_HH
