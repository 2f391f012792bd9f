/**
 * @file
 * FlickSystem: the public facade of the simulated platform.
 *
 * Owns and wires every component — memories, cores, MMUs, DMA engines,
 * interrupt controller, kernel, loader and migration engine — and exposes
 * the workflow a user of the paper's system would have:
 *
 *     flick::FlickSystem sys(
 *         flick::SystemConfig{}.withDevices(2));      // boot the platform
 *     flick::Program prog;                            // multi-ISA code
 *     prog.addHostAsm(...); prog.addNxpAsm(...);
 *     auto &proc = sys.load(prog);                    // link + load + NX
 *
 *     // Synchronous, single-threaded:
 *     std::uint64_t r = sys.call(proc, "main", {arg0});
 *
 *     // Concurrent: each submit() starts a thread's call and returns a
 *     // future; the calls overlap across the host core and the NxPs.
 *     flick::Task &t2 = sys.spawnThread(proc);
 *     auto f1 = sys.submit(proc, flick::CallSpec("work").withArgs({0}));
 *     auto f2 = sys.submit(proc, flick::CallSpec("work")
 *                                    .withArgs({1}).onThread(t2));
 *     std::uint64_t a = f1.wait(), b = f2.wait();
 *     sys.exitThread(t2);
 *
 * Threads start on the host and migrate transparently whenever they call
 * across the ISA boundary.
 */

#ifndef FLICK_FLICK_SYSTEM_HH
#define FLICK_FLICK_SYSTEM_HH

#include <memory>
#include <ostream>
#include <vector>

#include "flick/heap.hh"
#include "flick/native.hh"
#include "flick/nxp_platform.hh"
#include "flick/program.hh"
#include "flick/runtime.hh"
#include "isa/hx64/core.hh"
#include "isa/rv64/core.hh"
#include "loader/loader.hh"
#include "mem/dma.hh"
#include "mem/irq.hh"
#include "mem/mem_system.hh"
#include "os/kernel.hh"
#include "policy/policy.hh"
#include "sim/chaos.hh"
#include "sim/event_queue.hh"
#include "sim/timing_config.hh"
#include "vm/page_table.hh"
#include "vm/phys_allocator.hh"

namespace flick
{

/**
 * All configuration of a FlickSystem, defaulting to the paper's setup.
 *
 * The with*() setters return *this so a config can be built fluently in
 * the constructor call:
 *
 *     FlickSystem sys(SystemConfig{}
 *                         .withDevices(2)
 *                         .withNxpStackBytes(128 * 1024));
 */
struct SystemConfig
{
    TimingConfig timing;
    PlatformConfig platform;
    LoadOptions loadOptions;
    /** NxP stack allocated per thread on first migration. */
    std::uint64_t nxpStackBytes = 64 * 1024;
    /** Descriptor-ring slots per direction and device (in-flight bound). */
    unsigned ringSlots = 8;
    /** Fault-injection (chaos) configuration; disabled by default. */
    ChaosConfig chaos;
    /** Consecutive descriptor retransmissions tolerated per link. */
    unsigned retryBudget = 16;
    /**
     * Per-call completion deadline (0 = none). Expired calls fail with
     * CallStatus::deadlineExceeded. Nonzero deadlines arm the device
     * health heartbeat, perturbing the fault-free event stream, which
     * is why this is opt-in.
     */
    Tick callDeadline = 0;
    /**
     * Re-dispatch calls that lose their NxP (quarantine) to the
     * function's host-ISA twin instead of failing them; twins are the
     * symbols suffixed "__host" that load() registers automatically.
     */
    bool hostFallback = false;
    /** Progress-less heartbeats before a stalled NxP is quarantined. */
    unsigned healthStrikeLimit = 2;
    /**
     * Record trace milestones and gauges along the migration path, and
     * QoS front-door decisions as instants (DESIGN.md §10). Tracing is
     * passive — a traced run is tick-for-tick identical to an untraced
     * one — but it allocates, so it is opt-in; with it off no trace code
     * touches any container.
     */
    bool trace = false;
    /**
     * Dispatch both interpreters through their per-text-page
     * decoded-instruction caches (DESIGN.md §13). On by default: the
     * cache is a simulator speed optimization with no timing model —
     * a cached run is tick-for-tick identical to a reference run
     * (asserted by tests/interp_diff_test.cpp). Turn it off to run the
     * byte-at-a-time reference decode path.
     */
    bool decodeCache = true;
    /**
     * Placement policy consulted at every NX-fault dispatch (DESIGN.md
     * §11). The default, staticPlacement, is the paper's link-time
     * pinning and keeps every run tick-for-tick identical to a
     * policy-less engine.
     */
    PlacementKind placement = PlacementKind::staticPlacement;
    /** A caller-supplied policy instance; overrides `placement`. */
    std::shared_ptr<PlacementPolicy> placementPolicy;
    /**
     * Multi-tenant QoS and deadline-aware admission (DESIGN.md §14).
     * Each loaded process is a tenant keyed by its address space; with
     * qos.enabled the engine runs per-tenant in-flight budgets, bounded
     * submission queues with weighted fair dequeue, and deadline-aware
     * admission shedding. Off by default: a QoS-disabled run is
     * tick-for-tick identical to a pre-QoS build (tests/qos_test.cpp).
     */
    QosConfig qos;

    /** Number of NxP devices in the platform (any N >= 1). */
    SystemConfig &
    withDevices(unsigned count)
    {
        platform.nxpDeviceCount = count;
        return *this;
    }

    /** Enable (or disable) multi-tenant QoS with default tunables. */
    SystemConfig &
    withQos(bool on = true)
    {
        qos.enabled = on;
        return *this;
    }

    /** Enable multi-tenant QoS with explicit tunables (see `qos`). */
    SystemConfig &
    withQos(const QosConfig &cfg)
    {
        qos = cfg;
        qos.enabled = true;
        return *this;
    }

    /**
     * Weighted-fair-dequeue weight of @p tenant (tenants are numbered
     * in process load order; absent tenants weigh 1). Setting a weight
     * does not enable QoS by itself — combine with withQos().
     */
    SystemConfig &
    withTenantWeight(unsigned tenant, unsigned weight)
    {
        qos.setWeight(tenant, weight);
        return *this;
    }

    SystemConfig &
    withNxpStackBytes(std::uint64_t bytes)
    {
        nxpStackBytes = bytes;
        return *this;
    }

    SystemConfig &
    withRingSlots(unsigned slots)
    {
        ringSlots = slots;
        return *this;
    }

    /**
     * Seed the chaos PRNG. The seed alone does not enable fault
     * injection (use withChaos()), so a seeded-but-disabled system is
     * tick-for-tick identical to a default one — which the chaos suite
     * asserts.
     */
    SystemConfig &
    withChaosSeed(std::uint64_t seed)
    {
        chaos.seed = seed;
        return *this;
    }

    /** Enable fault injection with the given fault classes/rates. */
    SystemConfig &
    withChaos(const ChaosConfig &config)
    {
        chaos = config;
        return *this;
    }

    SystemConfig &
    withRetryBudget(unsigned budget)
    {
        retryBudget = budget;
        return *this;
    }

    SystemConfig &
    withCallDeadline(Tick deadline)
    {
        callDeadline = deadline;
        return *this;
    }

    SystemConfig &
    withHostFallback(bool on = true)
    {
        hostFallback = on;
        return *this;
    }

    SystemConfig &
    withHealthStrikeLimit(unsigned strikes)
    {
        healthStrikeLimit = strikes;
        return *this;
    }

    /** Enable event tracing and latency attribution (debug().trace()). */
    SystemConfig &
    withTrace(bool on = true)
    {
        trace = on;
        return *this;
    }

    /**
     * Toggle the decoded-instruction cache (DESIGN.md §13). Off selects
     * the reference decode path; timing is identical either way.
     */
    SystemConfig &
    withDecodeCache(bool on = true)
    {
        decodeCache = on;
        return *this;
    }

    /** Select one of the shipped placement policies (DESIGN.md §11). */
    SystemConfig &
    withPlacement(PlacementKind kind)
    {
        placement = kind;
        return *this;
    }

    /** Install a caller-supplied placement policy instance. */
    SystemConfig &
    withPlacement(std::shared_ptr<PlacementPolicy> policy)
    {
        placementPolicy = std::move(policy);
        return *this;
    }
};

/** A loaded multi-ISA process with its main thread. */
struct Process
{
    LoadedProgram image;
    Task *task = nullptr;
    std::unique_ptr<RegionHeap> hostHeap;
    /** Where the next spawned thread's host stack will be carved. */
    VAddr nextThreadStackTop = 0;
};

/**
 * Everything describing one cross-ISA call, built fluently:
 *
 *     sys.submit(proc, CallSpec("work").withArgs({seed, rounds}));
 *     sys.submit(proc, CallSpec("work")
 *                          .withArgs({1})
 *                          .onThread(t2)
 *                          .withDeadline(us(250))
 *                          .withPlacementHint(3));
 *
 * A CallSpec names its target by symbol or — via CallSpec::addr() — by
 * virtual address, runs on the process main thread unless onThread()
 * picks another, may carry a per-call deadline overriding
 * SystemConfig::callDeadline, and may hint the device its first dispatch
 * should land on (honored when that device holds the text and is not
 * quarantined; placement policies take over from the second dispatch).
 */
struct CallSpec
{
    CallSpec() = default;
    /*implicit*/ CallSpec(std::string sym) : symbol(std::move(sym)) {}

    /** Target a raw virtual address instead of a symbol. */
    static CallSpec
    addr(VAddr va)
    {
        CallSpec spec;
        spec.address = va;
        return spec;
    }

    /** Arguments, passed in the architectural argument registers. */
    CallSpec &
    withArgs(std::vector<std::uint64_t> a)
    {
        args = std::move(a);
        return *this;
    }

    /** Run on @p thread instead of the process main thread. */
    CallSpec &
    onThread(Task &thread)
    {
        task = &thread;
        return *this;
    }

    /**
     * Per-call completion deadline, overriding SystemConfig::callDeadline
     * for this call only. Like the config-wide deadline, a nonzero value
     * arms the device health heartbeat.
     */
    CallSpec &
    withDeadline(Tick ticks)
    {
        deadline = ticks;
        return *this;
    }

    /** Prefer @p device for the call's first NX-fault dispatch. */
    CallSpec &
    withPlacementHint(unsigned device)
    {
        placementHint = static_cast<int>(device);
        return *this;
    }

    /** Symbol to call; empty when targeting an address. */
    std::string symbol;
    /** Virtual address to call when `symbol` is empty. */
    VAddr address = 0;
    /** Argument registers. */
    std::vector<std::uint64_t> args;
    /** Thread to run on; nullptr = the process main thread. */
    Task *task = nullptr;
    /** Per-call deadline (0 = inherit SystemConfig::callDeadline). */
    Tick deadline = 0;
    /** First-dispatch device hint (-1 = none). */
    int placementHint = -1;
};

/**
 * The simulated heterogeneous-ISA machine.
 */
class FlickSystem
{
  public:
    explicit FlickSystem(SystemConfig config = {});

    FlickSystem(const FlickSystem &) = delete;
    FlickSystem &operator=(const FlickSystem &) = delete;

    /** Link @p program and load it into a new address space. */
    Process &load(const Program &program);

    // --- Calls ----------------------------------------------------------

    /**
     * Start the call described by @p spec and return a future. The call
     * makes progress as simulated time advances (wait() on any future,
     * or advanceTime()); concurrent submissions from different threads
     * of the process overlap across the cores. With QoS enabled the
     * future may already be done() with CallStatus::shedLoad.
     */
    CallFuture submit(Process &process, CallSpec spec);

    /**
     * Call @p symbol on @p process's main thread, starting on the host
     * core; the thread migrates transparently at ISA boundaries. This is
     * submit() + wait: it blocks until the call returns.
     */
    std::uint64_t call(Process &process, const std::string &symbol,
                       std::vector<std::uint64_t> args = {});

    /** Call a function by address. */
    std::uint64_t callVa(Process &process, VAddr va,
                         std::vector<std::uint64_t> args = {});

    // --- Threads --------------------------------------------------------

    /**
     * Create another thread in @p process (what pthread_create would
     * do): maps a fresh host stack below the previous one and registers
     * the thread with the kernel. Pass the returned Task to submit().
     */
    Task &spawnThread(Process &process,
                      std::uint64_t stack_bytes = 256 * 1024);

    /**
     * Tear a spawned thread down: frees its NxP stacks back to the
     * device heaps and retires it from the kernel. The thread must not
     * have a call in flight.
     */
    void exitThread(Task &thread);

    /** Current simulated time. */
    Tick now() const { return _events.now(); }

    /** Let simulated time pass (e.g. host work between migrations). */
    void advanceTime(Tick t) { _events.runUntil(now() + t, true); }

    /** Allocate from an NxP device's local DRAM heap; returns a virtual
     *  address valid in every process (the unified NxP windows). */
    VAddr nxpMalloc(std::uint64_t bytes, std::uint64_t align = 16,
                    unsigned device = 0);

    /** Allocate from @p process's host-memory heap. */
    VAddr hostMalloc(Process &process, std::uint64_t bytes,
                     std::uint64_t align = 16);

    // --- Untimed harness access to process memory ----------------------

    /** Read @p len (1..8) bytes at @p va in @p process (untimed). */
    std::uint64_t readVa(const Process &process, VAddr va,
                         unsigned len = 8);

    /** Write @p len bytes at @p va in @p process (untimed). */
    void writeVa(Process &process, VAddr va, std::uint64_t value,
                 unsigned len = 8);

    /** Bulk write (workload setup; untimed like the paper's data load). */
    void writeBlock(Process &process, VAddr va, const void *data,
                    std::uint64_t len);

    /** Bulk read. */
    void readBlock(const Process &process, VAddr va, void *data,
                   std::uint64_t len);

    // --- Knobs and introspection ---------------------------------------

    /** Emulate a prior-work system: extra latency per migration. */
    void
    setExtraRoundTripLatency(Tick t)
    {
        _engine->setExtraRoundTripLatency(t);
    }

    /**
     * Stream a disassembled instruction trace of every core — the host
     * and each NxP device, labelled by core name — to @p os (pass
     * nullptr to disable). Expensive; for debugging.
     */
    void enableInstructionTrace(std::ostream *os);

    /** Dump every component's statistics. */
    void dumpStats(std::ostream &os);

    const SystemConfig &config() const { return _config; }

    /**
     * QoS tenant id of @p process (its index in load order). Meaningful
     * with QoS enabled; this is the <k> in the per-tenant _cr3#<k> stat
     * suffixes and the index withTenantWeight() takes.
     */
    unsigned
    tenantIndex(const Process &process)
    {
        return _engine->tenantIndex(process.image.cr3);
    }

    /**
     * Raw access to the simulated components, for tests, tools and
     * debugging harnesses. The per-device accessors die with "no NxP
     * device" when @p device is out of range.
     */
    struct Debug
    {
        FlickSystem *sys;

        MemSystem &mem() const { return sys->_mem; }
        Kernel &kernel() const { return sys->_kernel; }
        MigrationEngine &engine() const { return *sys->_engine; }
        Hx64Core &hostCore() const { return sys->_hostCore; }
        Rv64Core &nxpCore(unsigned device = 0) const;
        NxpPlatform &nxpPlatform(unsigned device = 0) const;
        PageTableManager &pageTables() const { return sys->_ptm; }
        NativeRegistry &natives() const { return sys->_natives; }
        EventQueue &events() const { return sys->_events; }
        ChaosController &chaos() const { return sys->_chaos; }
        Tracer &trace() const { return sys->_tracer; }
        /** The installed placement policy (StaticPlacement by default). */
        PlacementPolicy &policy() const { return *sys->_placement; }
        DmaEngine &dma(unsigned device = 0) const;
        IrqController &irq() const { return sys->_irq; }
        RegionHeap &nxpHeap(unsigned device = 0) const;
        unsigned
        nxpDeviceCount() const
        {
            return sys->_config.platform.nxpDeviceCount;
        }
    };

    /** The debug/introspection harness. */
    Debug debug() { return Debug{this}; }

  private:
    friend struct Debug;

    /**
     * One NxP device's components, constructed together in device-id
     * order. Device k's stat groups and heap are named after its core:
     * "nxp"/"dma"/"nxp_platform"/"nxp_window" for device 0,
     * "nxp<k+1>"/"dma<k+1>"/... beyond it.
     */
    struct NxpDevice
    {
        NxpDevice(const SystemConfig &config, unsigned id, MemSystem &mem,
                  EventQueue &events, IrqController &irq);

        Rv64Core core;
        NxpPlatform platform;
        DmaEngine dma;
        /** Allocator over the device's BAR window past the reserved
         *  mailbox area (nxpMalloc, NxP stacks). */
        RegionHeap windowHeap;
    };

    /** Device @p id; fatal() when the platform has no such device. */
    NxpDevice &nxpDevice(unsigned id);

    Addr translateDebug(const Process &process, VAddr va) const;

    /** Gap left unmapped between thread stacks (overflow tripwire). */
    static constexpr std::uint64_t threadStackGuard = 0x10000;

    SystemConfig _config;
    EventQueue _events;
    MemSystem _mem;
    ChaosController _chaos;
    Tracer _tracer;
    IrqController _irq;
    PhysAllocator _hostAlloc;
    PhysAllocator _nxpAlloc;
    PageTableManager _ptm;
    Hx64Core _hostCore;
    Kernel _kernel;
    ProgramLoader _loader;
    NativeRegistry _natives;
    // Declared before the engine, which holds pointers into the
    // devices, so the devices outlive it.
    std::vector<std::unique_ptr<NxpDevice>> _devices;
    std::unique_ptr<MigrationEngine> _engine;
    std::shared_ptr<PlacementPolicy> _placement;
    std::vector<std::unique_ptr<Process>> _processes;
};

} // namespace flick

#endif // FLICK_FLICK_SYSTEM_HH
