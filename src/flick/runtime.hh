/**
 * @file
 * The Flick migration engine.
 *
 * Implements the protocol of Section IV-B — the host migration handler
 * (Listing 1), the NxP scheduler and migration handler (Listing 2), the
 * kernel ioctl/suspend/wake path and the descriptor DMA — as an
 * event-driven scheduler multiplexing any number of simulated threads
 * over the host core and the NxP devices:
 *
 *   - A thread enters through submit(), which queues it on the kernel's
 *     host run queue and returns a CallFuture immediately. The host
 *     core dispatches queued threads whenever it goes idle.
 *   - Each core runs one thread's segment at a time (a Core::run()
 *     slice up to the next migration point: trampoline, halt or fetch
 *     fault). Handler and kernel costs are charged by chaining
 *     continuation events from TimingConfig, so a segment plus its
 *     protocol leg occupies the core for exactly the time the serial
 *     protocol would.
 *   - Descriptors travel through per-device, per-direction descriptor
 *     rings (DescriptorRing) instead of single kernel-buffer/inbox
 *     slots, so several threads can be mid-migration on the same link.
 *     Each NxP's scheduler works its inbox ring in FIFO order — its run
 *     list — while threads suspended mid-nested-call park their saved
 *     contexts on their Task.
 *   - A thread's cross-ISA nesting is tracked as a per-task stack of
 *     call frames; returns always route device -> host -> (resume the
 *     suspended host context, or relay to the caller device), which is
 *     also how device-to-device calls bounce through the host kernel
 *     (Section IV-C3).
 *
 * All application instructions execute in the interpreters, and the
 * descriptor bytes really travel through the simulated DMA engines and
 * memories. Because every cost is charged on the owning core's timeline,
 * independent threads overlap: while one thread computes on an NxP, the
 * host core is free to run another thread's handler or segment.
 */

#ifndef FLICK_FLICK_RUNTIME_HH
#define FLICK_FLICK_RUNTIME_HH

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "flick/call_future.hh"
#include "flick/descriptor.hh"
#include "flick/heap.hh"
#include "flick/nxp_platform.hh"
#include "flick/qos.hh"
#include "flick/ring.hh"
#include "policy/cost_model.hh"
#include "isa/core.hh"
#include "mem/dma.hh"
#include "mem/irq.hh"
#include "os/kernel.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/timing_config.hh"
#include "sim/trace.hh"

namespace flick
{

class ChaosController;
class PageTableManager;
class PlacementPolicy;
struct EnginePlacementView;

/**
 * Health of one NxP device, as the driver's watchdog sees it.
 *
 * healthy --(heartbeat finds outstanding work but no progress)-->
 * suspect --(strike limit reached)--> quarantined. A suspect device
 * that makes progress again returns to healthy; quarantine is
 * terminal: the rings are drained, in-flight calls are failed (or
 * failed over to host text) and new submissions are rejected.
 */
enum class DeviceHealth
{
    healthy,
    suspect,
    quarantined,
};

/** Printable health-state name. */
const char *deviceHealthName(DeviceHealth health);

/**
 * Drives threads across the ISA boundary.
 */
class MigrationEngine
{
  public:
    /**
     * @param ptm The kernel's page tables: the engine reads PTEs (the
     *        NX-fault ISA tag, page residency) through its untimed
     *        translate(). Not owned.
     */
    MigrationEngine(EventQueue &events, MemSystem &mem,
                    const PageTableManager &ptm, const TimingConfig &timing,
                    Kernel &kernel, IrqController &irq, Core &host_core);

    /**
     * Register one NxP device (in device-id order, starting at 0).
     * Any number of devices may be registered; every ring, health
     * record and counter the engine keeps is sized per registration.
     *
     * @param host_staging_pa Host DRAM base of the kernel's outbound
     *        descriptor-staging ring (ring_slots slots of 128 bytes);
     *        slot i DMAs into the device's inbox ring slot i.
     * @param host_inbox_pa Host DRAM base of the inbound ring the
     *        device's outbox slots DMA into.
     * @param irq_vector Host interrupt vector the device raises.
     * @param ring_slots Slots per direction (in-flight descriptor bound).
     * @param freq_hz Device core frequency; 0 inherits TimingConfig's
     *        nxpFreqHz (the homogeneous-fabric default).
     */
    void addNxpDevice(Core &core, NxpPlatform &platform, DmaEngine &dma,
                      RegionHeap &stack_heap, Addr host_staging_pa,
                      Addr host_inbox_pa, unsigned irq_vector,
                      unsigned ring_slots, std::uint64_t freq_hz = 0);

    /** Per-call knobs a submission may carry (FlickSystem's CallSpec). */
    struct SubmitOptions
    {
        /**
         * Relative completion deadline for this call; 0 inherits the
         * engine-wide setCallDeadline() value. A nonzero deadline arms
         * the heartbeat watchdog (like setCallDeadline does).
         */
        Tick deadline = 0;
        /**
         * Preferred NxP device for the call's first placement decision,
         * consumed one-shot at the next NX-fault dispatch; -1 = none.
         * An impossible hint (no such device, no text there, or the
         * device is quarantined) is ignored and dispatch proceeds as if
         * no hint were given.
         */
        int placementHint = -1;
    };

    /**
     * Start @p task at @p entry on the host core and return a future
     * that resolves when the entry function returns. The call begins at
     * the current simulated time but makes progress only as the event
     * queue runs (CallFuture::wait() pumps it); submitting never blocks.
     * The QoS front door (setQos) may shed the call at submit time: the
     * returned future is then already done with CallStatus::shedLoad.
     *
     * @param stack_top Initial host stack pointer.
     */
    CallFuture submit(Task &task, VAddr entry,
                      const std::vector<std::uint64_t> &args,
                      VAddr stack_top, const SubmitOptions &opts);

    /**
     * Free the NxP stacks @p task accumulated (thread teardown). The
     * task must not be mid-migration.
     */
    void releaseNxpStacks(Task &task);

    /** Run one pending event; false if the queue is empty. */
    bool pump() { return _events.step(); }

    /**
     * Inject extra latency per migration round trip, emulating the
     * prior-work systems of Table II / Figure 5's dashed lines.
     */
    void setExtraRoundTripLatency(Tick t) { _extraRoundTrip = t; }

    /** Bytes of NxP stack allocated per thread on first migration. */
    void setNxpStackBytes(std::uint64_t b) { _nxpStackBytes = b; }

    /**
     * Attach the machine's chaos controller. The engine never draws
     * from it; it only uses it to decide whether to arm the descriptor
     * watchdogs (pointless without fault injection) and to report the
     * chaos seed in unrecoverable-fault diagnostics.
     */
    void setChaos(ChaosController *chaos) { _chaos = chaos; }

    /**
     * Attach the tracer. The engine emits a milestone at every protocol
     * step of every in-flight call, an instant at every QoS front-door
     * decision, plus ring-occupancy / in-flight-call gauges (DESIGN.md
     * §10). Purely passive: the tracer never schedules events, so traced
     * and untraced runs are tick-for-tick identical.
     */
    void setTracer(Tracer *tracer) { _tracer = tracer; }

    /**
     * Consecutive retransmissions tolerated per link before the
     * simulation dies with an unrecoverable-corruption diagnostic.
     */
    void setRetryBudget(unsigned budget) { _retryBudget = budget; }

    // --- Multi-tenant QoS & overload protection (DESIGN.md §14) --------

    /**
     * Configure the per-tenant QoS front door (tenant submission
     * queues, weighted fair dequeue, in-flight budgets and the
     * deadline-aware admission test). With cfg.enabled false (the
     * default) submit() takes exactly the pre-QoS path: no container
     * is touched, no counter is bumped and every run is tick-for-tick
     * identical to a build without the subsystem.
     */
    void setQos(const QosConfig &cfg) { _qos = cfg; }

    /** The active QoS configuration. */
    const QosConfig &qosConfig() const { return _qos; }

    /**
     * Register @p cr3 as a tenant (idempotent), assigning tenant ids in
     * registration order — FlickSystem::load() calls this per process,
     * so tenant k is the k-th loaded process and the per-tenant counter
     * suffix "_cr3#k" is stable across runs.
     */
    unsigned registerTenant(Addr cr3);

    /** Tenant id of @p cr3 (registering it on first sight). */
    unsigned tenantIndex(Addr cr3) { return registerTenant(cr3); }

    /** Calls of @p tenant admitted into the engine and not yet retired. */
    unsigned qosInFlight(unsigned tenant) const
    {
        return _tenants.inFlight(tenant);
    }

    /** Calls of @p tenant waiting in its submission queue. */
    unsigned qosQueued(unsigned tenant) const
    {
        return _tenants.queued(tenant);
    }

    /**
     * The per-tenant in-flight budget after capacity-loss scaling:
     * QosConfig::tenantInFlight times the alive fraction of the fabric
     * (a quarantined device shrinks every tenant's budget), never below
     * one.
     */
    unsigned effectiveTenantBudget() const;

    /**
     * The admission test's completion-time estimate for a call by
     * @p cr3 to @p entry: the per-call service estimate (placement
     * policy EWMAs, then the QoS layer's own end-to-end model, then the
     * analytic crossingCostEstimate() floor) plus the tenant's own
     * backlog serialized over the alive share of the fabric. Pure and
     * side-effect free.
     */
    Tick admissionEstimate(Addr cr3, VAddr entry, unsigned tenant) const;

    /** The QoS layer's learned end-to-end cost model. */
    const CallCostModel &qosCostModel() const { return _qosModel; }

    // --- Device health, deadlines and failover -------------------------

    /**
     * Per-call deadline: a submitted call that has not completed after
     * this much simulated time fails with status deadlineExceeded
     * (checked at device-heartbeat granularity). 0 disables deadlines;
     * a nonzero deadline arms the heartbeat, so it perturbs the
     * fault-free event stream — which is why it is opt-in.
     */
    void setCallDeadline(Tick t) { _callDeadline = t; }

    /**
     * Enable the host-native fallback path: a call that fails because
     * its target device is lost is re-dispatched to the function's
     * host-ISA twin (registerHostFallback) instead of failing, when the
     * call's state permits re-execution (a leaf call with no context
     * parked on the dead device).
     */
    void setHostFallback(bool on) { _hostFallback = on; }

    /**
     * Heartbeats in a row without forward progress before an NxP with
     * outstanding work is quarantined (first strike marks it suspect).
     */
    void setHealthStrikeLimit(unsigned strikes)
    {
        _strikeLimit = strikes ? strikes : 1;
    }

    /**
     * Register @p host_va as the host-ISA twin of @p va in address
     * space @p cr3 (the multi-ISA binary's Section 3.3 property: the
     * same function exists as text for every ISA). The engine
     * re-dispatches failed calls to the twin when host fallback is on.
     */
    void
    registerHostFallback(Addr cr3, VAddr va, VAddr host_va)
    {
        _fallback[{cr3, va}] = host_va;
    }

    // --- Placement policy (DESIGN.md §11) ------------------------------

    /**
     * Attach the placement policy consulted at every NX-fault dispatch.
     * nullptr (the default) — and an attached StaticPlacement — keep
     * dispatch on the paper's link-time pinning, tick-for-tick
     * identical to the pre-policy engine. The engine does not own the
     * policy.
     */
    void setPlacementPolicy(PlacementPolicy *policy) { _policy = policy; }

    /**
     * Attach the residency tracker (DESIGN.md §15). The policy view's
     * pageResidency() then answers from its per-page counters; without
     * a tracker the view reports every page unmapped and residency-
     * aware placement degrades to queue-depth balancing. Not owned.
     */
    void setResidencyTracker(ResidencyTracker *tracker)
    {
        _residency = tracker;
    }

    /**
     * Register @p twin_va as @p canonical's text for @p device (the
     * "__dev<k>" twins load() discovers, plus the home symbol itself).
     * A placement policy may re-point a faulted call at any registered
     * device's copy.
     */
    void registerDeviceTwin(Addr cr3, VAddr canonical, unsigned device,
                            VAddr twin_va);

    /**
     * Analytic Host-NxP-Host protocol overhead (fault service through
     * host wakeup, excluding callee execution) from TimingConfig; what
     * ProfileGuidedPlacement subtracts from measured round trips to
     * estimate callee execution time (DESIGN.md §11).
     */
    Tick crossingCostEstimate() const;

    /**
     * Fault/test hook: the device's hardware stops responding from now
     * on (it picks up no descriptors and completes nothing). Detection
     * still happens through the health watchdog, which this arms.
     */
    void killDevice(unsigned device);

    /** Health of @p device as the watchdog currently sees it. */
    DeviceHealth
    deviceHealth(unsigned device)
    {
        return side(device).health;
    }

    /**
     * Cancel the in-flight call of @p pid: its future completes with
     * status cancelled. Returns false if no call is in flight.
     */
    bool cancelCall(int pid);

    /** Current simulated time (CallFuture::waitFor's clock). */
    Tick now() const { return _events.now(); }

    StatGroup &stats() { return _stats; }

  private:
    friend struct EnginePlacementView;

    /** "Device" id of the host side in a call frame. */
    static constexpr unsigned hostSide = ~0u;

    /**
     * One level of a thread's cross-ISA nesting: who is running the
     * callee and who is waiting for the return.
     */
    struct CallFrame
    {
        unsigned callee; //!< Device running the called function, or host.
        unsigned caller; //!< Side waiting for the return, or hostSide.
        Tick t0;         //!< Round-trip start (for the ticks stats).
        //! Call target and arguments, recorded when the call descriptor
        //! is built; what the host fallback path re-dispatches. 0 until
        //! the descriptor exists.
        VAddr target = 0;
        std::uint32_t nargs = 0;
        std::array<std::uint64_t, MigrationDescriptor::maxArgs> args{};
        //! Home-symbol VA of the callee (== target unless the placement
        //! policy re-pointed the call at a twin); the cost model's key.
        VAddr canonical = 0;
        //! The placement policy chose host text (vs a quarantine
        //! failover); splits the return-path counters.
        bool steered = false;
    };

    /** Execution state of one in-flight submitted call. */
    struct TaskExec
    {
        Task *task = nullptr;
        std::shared_ptr<CallFutureState> future;
        std::vector<CallFrame> frames;
        //! Generation token. PIDs are reused across calls; continuation
        //! events and descriptors carry (pid, id) and are dropped when
        //! the id no longer matches (the call failed or was cancelled).
        std::uint64_t id = 0;
        //! Absolute completion deadline; 0 = none.
        Tick deadline = 0;
        //! Entry-call parameters, consumed by the first host dispatch.
        VAddr entry = 0;
        std::vector<std::uint64_t> args;
        VAddr stackTop = 0;
        //! Set while a woken descriptor waits for the host core.
        bool pendingWake = false;
        MigrationDescriptor wakeDesc;
        //! Set while a host-fallback re-dispatch waits for the core.
        bool pendingFallback = false;
        //! One-shot device preference (SubmitOptions::placementHint),
        //! consumed by the call's first placement decision; -1 = none.
        int placementHint = -1;
        //! The call passed the QoS front door (its retirement must give
        //! the tenant's in-flight budget back and pump the queues).
        bool qosAdmitted = false;
        //! Tenant id (only meaningful when qosAdmitted).
        unsigned tenant = 0;
        //! Admission time; the QoS cost model's sample starts here.
        Tick admitted = 0;
    };

    /** Everything belonging to one NxP device. */
    struct NxpSide
    {
        Core *core;
        NxpPlatform *platform;
        DmaEngine *dma;
        RegionHeap *stackHeap;
        Addr hostStagingPa;
        Addr hostInboxPa;
        unsigned irqVector;
        //! This device's core clock (addNxpDevice's freq_hz, defaulting
        //! to the TimingConfig-wide nxpFreqHz).
        ClockDomain clock{1'000'000'000ull};
        DescriptorRing h2d; //!< Host staging ring -> device inbox ring.
        DescriptorRing d2h; //!< Device outbox ring -> host inbox ring.
        //! Descriptors waiting for a free slot (ring backpressure).
        std::deque<MigrationDescriptor> h2dDeferred;
        std::deque<MigrationDescriptor> d2hDeferred;

        bool busy = false;          //!< Core owned by a thread/handler.
        bool kickScheduled = false; //!< Scheduler poll event pending.
        Addr loadedCr3 = 0;         //!< CR3 the device MMU currently holds.

        // --- Device health (heartbeat/progress watchdog) --------------
        DeviceHealth health = DeviceHealth::healthy;
        //! Chaos/test flag: the hardware stopped responding. The
        //! protocol cannot see this directly; the watchdog infers it
        //! from the missing progress.
        bool dead = false;
        //! Heartbeats in a row with outstanding work but no progress.
        unsigned strikes = 0;
        //! Bumped on every observable step the device completes
        //! (descriptor accepted, segment retired, DMA landed).
        std::uint64_t progress = 0;
        //! progress as of the previous heartbeat.
        std::uint64_t lastProgress = 0;
        //! When the segment occupying the core will retire; a busy core
        //! before this tick is computing, not wedged.
        Tick segmentEnd = 0;

        // --- Link integrity state (sequence numbers, retry budgets) ---
        std::uint64_t h2dSendSeq = 0;   //!< Last seq sent host->device.
        std::uint64_t h2dAcceptSeq = 0; //!< Last seq accepted by device.
        std::uint64_t d2hSendSeq = 0;   //!< Last seq sent device->host.
        std::uint64_t d2hAcceptSeq = 0; //!< Last seq accepted by host.
        unsigned h2dRetries = 0; //!< Consecutive NAKs, host->device link.
        unsigned d2hRetries = 0; //!< Consecutive NAKs, device->host link.
        //! Descriptors whose d2h DMA landed but are not yet serviced;
        //! the guard that makes duplicated or stale MSIs harmless.
        unsigned d2hLanded = 0;
    };

    using Cont = std::function<void()>;

    // --- Host-core scheduling -----------------------------------------

    /** Schedule a host dispatch attempt if the core might be free. */
    void kickHost();
    /** Pop the next runnable thread and put it on the host core. */
    void dispatchHost();
    /** Release the host core and look for more work. */
    void releaseHost();

    // --- QoS front door (DESIGN.md §14) --------------------------------

    /** One call parked in a tenant's submission queue. */
    struct QosPending
    {
        Task *task = nullptr;
        VAddr entry = 0;
        std::vector<std::uint64_t> args;
        VAddr stackTop = 0;
        int placementHint = -1;
        //! Absolute deadline fixed at submit time: queueing delay burns
        //! deadline budget, which the dequeue-time re-check observes.
        Tick absDeadline = 0;
        std::shared_ptr<CallFutureState> future;
    };

    /**
     * Refuse a call of @p tenant at submit time: shedCall() on a fresh
     * future. Never allocates a call frame, touches a ring staging slot
     * or schedules an event — the future is the only thing created
     * (asserted by tests/qos_test.cpp).
     */
    CallFuture shedFuture(Task &task, unsigned tenant, ShedReason reason);

    /**
     * Charge a refused call of @p tenant (qos.shed plus the per-reason
     * counter), emit its qosShed instant and complete @p state with
     * CallStatus::shedLoad and @p reason.
     */
    void shedCall(CallFutureState &state, unsigned tenant,
                  ShedReason reason);

    /**
     * The pre-QoS submit() body: create the TaskExec and hand the task
     * to the host scheduler. @p state reuses a queued call's future
     * (so copies handed out at submit time observe the completion);
     * nullptr makes a fresh one.
     */
    CallFuture admitCall(Task &task, VAddr entry,
                         const std::vector<std::uint64_t> &args,
                         VAddr stack_top, Tick abs_deadline,
                         int placement_hint,
                         std::shared_ptr<CallFutureState> state);

    /**
     * Hand freed capacity to the tenant queues: weighted-fair dequeue
     * while any tenant with queued work is under its effective budget.
     * Re-checks deadline feasibility with the time burned queueing.
     */
    void pumpQosQueues();

    /** cancelCall() found @p pid parked in @p tenant's queue. */
    void cancelQueuedCall(int pid, unsigned tenant);

    /**
     * Dequeue-time residency re-vote for a queued call's stale
     * placement hint: the device holding a strict access-weighted
     * majority of the pages @p args point at, or -1 when no device
     * does (unmapped args, host-resident data, tie).
     */
    int residencyMajorityDevice(Task &task,
                                const std::vector<std::uint64_t> &args);

    /** Devices not written off by the health watchdog. */
    unsigned aliveDeviceCount() const;

    /** Bump the aggregate and the per-tenant (_cr3#k) counter. */
    void
    tenantStat(const char *key, unsigned tenant)
    {
        _stats.inc(key);
        _stats.inc(strfmt("%s_cr3#%u", key, tenant));
    }

    /** First dispatch of a submitted call: set up and run the entry. */
    void startEntry(TaskExec &x);
    /** Dispatch a thread woken by a migration-return interrupt. */
    void dispatchWake(TaskExec &x);
    /** Dispatch a thread whose failed call re-runs on host text. */
    void dispatchFallback(TaskExec &x);
    /** Act on the descriptor that woke the thread (after ioctl exit). */
    void handleHostDescriptor(TaskExec &x, MigrationDescriptor d);

    /** Run one host segment of @p x and schedule the stop handling. */
    void runHostSegment(TaskExec &x);
    void handleHostStop(int pid, std::uint64_t id, RunResult r);

    /** Host NX fault: begin the host->NxP call migration (Listing 1).
     *  @p canonical is the callee's home-symbol VA (== @p target unless
     *  the placement policy re-pointed the call at a device twin). */
    void startHostToNxpCall(TaskExec &x, VAddr target, unsigned device,
                            VAddr canonical);

    // --- Placement policy (DESIGN.md §11) ------------------------------

    /** A placement decision, clamped to what actually exists. */
    struct Placed
    {
        bool toHost = false; //!< Run the host twin without crossing.
        unsigned device = 0; //!< Dispatch device when !toHost.
        VAddr va = 0;        //!< VA to dispatch (twin or original).
        VAddr canonical = 0; //!< Home-symbol VA (the model's key).
    };

    /**
     * Consult the placement policy for a faulted call to @p target
     * whose PTE tags it for @p home. @p caller_device is the
     * originating NxP for device-to-device calls, hostSide otherwise.
     * Without a policy — or when the policy's answer is impossible —
     * returns the home placement.
     */
    Placed decidePlacement(Task &task, VAddr target, unsigned home,
                           unsigned caller_device);

    /**
     * Run @p twin on the host core in place of the host-originated
     * faulted call to @p faulted (tagged for @p device): record a host
     * frame from the live argument registers, charge the NX fault
     * service and handler prologue, then enter the twin — no
     * descriptor, no DMA, no device. The hijacked return address is in
     * place, so the call completes exactly like a migration would have.
     * @p steered is the placement policy's choice (opens hostSteered);
     * otherwise @p device was quarantined at the fault (hostFallback).
     */
    void startHostTwinCall(TaskExec &x, VAddr faulted, VAddr canonical,
                           VAddr twin, unsigned device, bool steered);

    /** Feed a completed call's latency to the policy's cost model. */
    void recordPlacementOutcome(Task &task, const CallFrame &frame);

    /** The entry function returned (or the program exited). */
    void completeCall(TaskExec &x, std::uint64_t value);

    /**
     * Package @p d, suspend the thread and fire the descriptor DMA to
     * @p device (the kernel ioctl path; Section IV-D ordering). Ends by
     * releasing the host core.
     */
    void hostSendDescriptor(TaskExec &x, MigrationDescriptor d,
                            unsigned device);
    /** Stage @p d in the next h2d ring slot and start its DMA burst. */
    void fireHostToNxp(MigrationDescriptor d, unsigned device);

    // --- NxP-side scheduling ------------------------------------------

    /** Schedule an inbox poll on @p device if its core might be free. */
    void kickNxp(unsigned device);
    /** NxP scheduler: pick up the next inbox descriptor (Listing 2). */
    void dispatchNxp(unsigned device);
    void releaseNxp(unsigned device);

    void handleNxpDescriptor(unsigned device, MigrationDescriptor d);
    void runNxpSegment(TaskExec &x, unsigned device);
    void handleNxpStop(int pid, std::uint64_t id, unsigned device,
                       RunResult r);

    /** NxP fetch fault: classify by ISA tag and start the migration. */
    void startNxpFaultMigration(TaskExec &x, VAddr target,
                                unsigned device);

    /**
     * Ship @p d to the host (outbox stage + doorbell + DMA), then
     * release the device core.
     */
    void deviceSendToHost(TaskExec &x, MigrationDescriptor d,
                          unsigned device);
    /** Stage @p d in the next d2h ring slot and start its DMA burst. */
    void fireNxpToHost(MigrationDescriptor d, unsigned device);

    /** The IRQ handler for @p device's DMA-complete vector. */
    void hostIrq(unsigned device);

    // --- Link integrity (NAK / retransmit / timeout) -------------------

    /**
     * Service the oldest landed descriptor on @p device's d2h ring:
     * verify integrity, NAK-and-retransmit on failure, wake the target
     * thread on success. Shared by the IRQ handler and the watchdog.
     */
    void processHostInbox(unsigned device);

    /** Device rejected its inbox head: retransmit from staging. */
    void nakH2d(unsigned device);
    /** Host rejected its inbox head: retransmit from the outbox. */
    void nakD2h(unsigned device);

    /**
     * Arm (or re-arm) the lost-MSI watchdog for d2h descriptor @p seq.
     * Only armed while fault injection is active; the fault-free event
     * stream carries no watchdog events at all.
     */
    void armD2hWatchdog(unsigned device, std::uint64_t seq);

    /** Die on an exhausted retry budget, naming the link and seed. */
    [[noreturn]] void unrecoverable(const char *link, unsigned device);

    // --- Device health, deadlines and failover -------------------------

    /** Arm the recurring heartbeat (idempotent). */
    void armHeartbeat();
    /** One heartbeat: check call deadlines and device progress. */
    void heartbeat();
    /** The heartbeat found @p device stalled: suspect, then quarantine. */
    void strike(unsigned device);
    /** Nothing outstanding on the device: no progress expected. */
    bool deviceIdle(const NxpSide &s) const;

    /**
     * Quarantine @p device: drain its rings, drop deferred traffic and
     * fail (or fail over) every in-flight call that depends on it.
     */
    void quarantineDevice(unsigned device);

    /** Does @p x's call state reference @p device anywhere? */
    bool execTouches(const TaskExec &x, unsigned device) const;

    /**
     * Complete @p x's call with a non-ok @p status and unwind its
     * bookkeeping (run queue, task state, saved contexts). When the
     * status is deviceLost and the call is rescuable, re-dispatches it
     * to the host-ISA twin instead. Never touches core ownership: a
     * continuation that finds its call gone releases the core it holds.
     */
    void failCall(TaskExec &x, CallStatus status);

    /**
     * Can @p x's failed call be re-executed on the host? Requires the
     * fallback path enabled, a registered host twin, and a leaf call:
     * the topmost frame targets the lost device, nothing deeper
     * references it, and the thread is suspended awaiting it.
     */
    bool canFailover(const TaskExec &x) const;

    /** Convert the top frame to a host frame and queue the re-dispatch. */
    void scheduleFallback(TaskExec &x);

    /** Host twin of (cr3, va), or 0 if none registered. */
    VAddr
    fallbackVa(Addr cr3, VAddr va) const
    {
        auto it = _fallback.find({cr3, va});
        return it == _fallback.end() ? 0 : it->second;
    }

    /** The device a failing call's counters should be charged to, or
     *  hostSide for a pure host call. */
    unsigned execDevice(const TaskExec &x) const;

    /** Charge a failure counter, per-device when one is involved. */
    void
    failStat(const char *key, unsigned device)
    {
        if (device == hostSide)
            _stats.inc(key);
        else
            protoStat(key, device);
    }

    /** Bump the aggregate and the per-device protocol counter. */
    void
    protoStat(const char *key, unsigned device)
    {
        _stats.inc(key);
        _stats.inc(strfmt("%s_dev%u", key, device));
    }

    // --- Helpers -------------------------------------------------------

    /** Ensure @p x's thread has an NxP stack on @p device (Listing 1),
     *  charging the allocation before running @p then. */
    void ensureNxpStack(TaskExec &x, unsigned device, Cont then);

    /** Schedule @p fn to run @p t ticks from now. */
    void
    after(Tick t, Cont fn)
    {
        _events.scheduleIn(t, "flick-engine", std::move(fn));
    }

    Tick hostCycles(std::uint64_t n) const;
    Tick nxpCycles(unsigned device, std::uint64_t n) const;

    void writeHostStaging(const MigrationDescriptor &d, unsigned device,
                          unsigned slot);
    MigrationDescriptor::Wire readNxpInboxWire(unsigned device,
                                               unsigned slot);
    void writeNxpOutbox(const MigrationDescriptor &d, unsigned device,
                        unsigned slot);
    MigrationDescriptor::Wire readHostInboxWire(unsigned device,
                                                unsigned slot);

    /** Current NxP stack pointer for a (possibly nested) call. */
    std::uint64_t currentNxpSp(const Task &task, unsigned device) const;

    /** Emit a trace milestone for call (@p pid, @p id) when tracing. */
    void
    tracePoint(TracePoint p, int pid, std::uint64_t id, unsigned device = 0,
               std::uint64_t arg = 0)
    {
        if (_tracer)
            _tracer->point(p, _events.now(), pid, id, device, arg);
    }

    /** Sample a trace gauge when tracing. */
    void
    traceGauge(TraceGauge g, unsigned device, std::uint64_t value)
    {
        if (_tracer)
            _tracer->gauge(g, _events.now(), device, value);
    }

    NxpSide &side(unsigned device);
    TaskExec &exec(int pid);

    /**
     * The in-flight call (pid, id) if it is still alive, else nullptr.
     * Continuation events and descriptor arrivals look their call up
     * through this so a failed/cancelled call's stragglers bail out
     * instead of acting on a dead call (or on a newer call reusing the
     * PID).
     */
    TaskExec *live(int pid, std::uint64_t id);

    EventQueue &_events;
    MemSystem &_mem;
    const PageTableManager &_ptm;
    const TimingConfig &_timing;
    Kernel &_kernel;
    IrqController &_irq;
    Core &_hostCore;
    std::vector<NxpSide> _nxp;

    //! In-flight submitted calls by PID (node-stable container: chained
    //! events hold PIDs and look their exec state up on entry).
    std::map<int, TaskExec> _exec;

    bool _hostBusy = false;
    bool _hostKickScheduled = false;
    Addr _hostLoadedCr3 = 0;

    Tick _extraRoundTrip = 0;
    std::uint64_t _nxpStackBytes = 64 * 1024;
    ChaosController *_chaos = nullptr;
    Tracer *_tracer = nullptr;
    unsigned _retryBudget = 16;
    std::uint64_t _nextExecId = 0;
    Tick _callDeadline = 0;
    bool _hostFallback = false;
    unsigned _strikeLimit = 2;
    bool _heartbeatArmed = false;
    //! (cr3, va) -> host-ISA twin va (Section 3.3 multi-ISA binaries).
    std::map<std::pair<Addr, VAddr>, VAddr> _fallback;
    //! Placement policy; nullptr = the paper's link-time pinning.
    PlacementPolicy *_policy = nullptr;
    //! Residency counters for the policy view; nullptr = tracking off.
    ResidencyTracker *_residency = nullptr;
    //! (cr3, canonical va) -> per-device dispatch VA (0 = no copy).
    std::map<std::pair<Addr, VAddr>, std::vector<VAddr>> _deviceTwins;
    //! (cr3, twin va) -> canonical va, the reverse of _deviceTwins.
    std::map<std::pair<Addr, VAddr>, VAddr> _twinCanonical;
    StatGroup _stats;

    // --- QoS state (all dormant while _qos.enabled is false) -----------
    QosConfig _qos;
    TenantScheduler _tenants;
    //! Per-tenant submission queues, indexed by tenant id.
    std::vector<std::deque<QosPending>> _qosQueues;
    //! pid -> tenant of every queued call (submit guard, cancel path).
    std::map<int, unsigned> _qosQueuedPid;
    //! End-to-end entry-latency EWMAs (the admission fallback model).
    CallCostModel _qosModel;
};

} // namespace flick

#endif // FLICK_FLICK_RUNTIME_HH
