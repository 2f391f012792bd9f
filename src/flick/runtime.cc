#include "flick/runtime.hh"

#include "loader/loader.hh"
#include "mem/residency.hh"
#include "policy/policy.hh"
#include "policy/residency_aware.hh"
#include "sim/chaos.hh"
#include "vm/page_table.hh"

namespace flick
{

// --- Placement policy plumbing (DESIGN.md §11) --------------------------

/**
 * The engine-state window a PlacementPolicy looks through. Everything
 * is a cheap read of existing engine state; building one is free and
 * side-effect free, so consulting a policy cannot perturb the event
 * stream.
 */
struct EnginePlacementView final : PlacementView
{
    explicit EnginePlacementView(const MigrationEngine &engine)
        : e(engine)
    {
    }

    unsigned
    deviceCount() const override
    {
        return static_cast<unsigned>(e._nxp.size());
    }

    DeviceLoad
    load(unsigned device) const override
    {
        const auto &s = e._nxp[device];
        DeviceLoad l;
        l.depth = s.h2d.inUse() +
                  static_cast<unsigned>(s.h2dDeferred.size()) +
                  (s.busy ? 1 : 0);
        l.busy = s.busy;
        l.quarantined = s.health == DeviceHealth::quarantined;
        return l;
    }

    Tick crossingEstimate() const override
    {
        return e.crossingCostEstimate();
    }

    Tick
    steerOverhead() const override
    {
        return e._timing.nxFaultService + e._timing.faultTrapExit +
               e.hostCycles(e._timing.hostHandlerCycles);
    }

    unsigned
    hostSpeedup() const override
    {
        if (!e._timing.nxpFreqHz)
            return 1;
        auto r = e._timing.hostFreqHz / e._timing.nxpFreqHz;
        return r ? static_cast<unsigned>(r) : 1;
    }

    PageResidency
    pageResidency(Addr cr3, VAddr va) const override
    {
        PageResidency pr;
        if (!e._residency)
            return pr;
        // Untimed walk (same as the NX-fault tag read): residency
        // queries are modeled as kernel metadata lookups and must not
        // perturb timing or stats.
        std::optional<DebugTranslation> t = e._ptm.translate(cr3, va);
        if (!t)
            return pr;
        Addr pa = t->pa;
        const PlatformConfig &p = e._mem.platform();
        unsigned dev;
        if (p.inHostDram(pa))
            pr.holder = -1;
        else if (p.inBarDram(pa, dev))
            pr.holder = static_cast<int>(dev);
        else
            return pr; // control window / unmapped: no residency.
        pr.mapped = true;
        std::uint64_t key =
            e._mem.canonicalPageKey(Requester::debug, pa);
        const std::vector<std::uint64_t> *row = e._residency->counts(key);
        if (!row)
            return pr;
        pr.hostAccesses = (*row)[ResidencyTracker::hostAccessor];
        pr.deviceAccesses.assign(row->begin() + 1, row->end());
        return pr;
    }

    const MigrationEngine &e;
};

const char *
callStatusName(CallStatus status)
{
    switch (status) {
      case CallStatus::pending: return "pending";
      case CallStatus::ok: return "ok";
      case CallStatus::deadlineExceeded: return "deadlineExceeded";
      case CallStatus::deviceLost: return "deviceLost";
      case CallStatus::cancelled: return "cancelled";
      case CallStatus::shedLoad: return "shedLoad";
    }
    return "?";
}

const char *
deviceHealthName(DeviceHealth health)
{
    switch (health) {
      case DeviceHealth::healthy: return "healthy";
      case DeviceHealth::suspect: return "suspect";
      case DeviceHealth::quarantined: return "quarantined";
    }
    return "?";
}

// --- CallFuture ---------------------------------------------------------

std::uint64_t
CallFuture::wait()
{
    if (!_state || !_engine)
        panic("wait() on an invalid CallFuture");
    while (!_state->done) {
        if (!_engine->pump())
            panic("migration engine deadlock: waiting on an empty "
                  "event queue");
    }
    return _state->value;
}

bool
CallFuture::waitFor(Tick ticks)
{
    if (!_state || !_engine)
        panic("waitFor() on an invalid CallFuture");
    Tick until = _engine->now() + ticks;
    while (!_state->done && _engine->now() < until) {
        if (!_engine->pump())
            break; // queue ran dry; the call is stuck, not done
    }
    return _state->done;
}

bool
CallFuture::cancel()
{
    if (!_state || !_engine || _state->done)
        return false;
    return _engine->cancelCall(_state->pid);
}

std::uint64_t
CallFuture::value() const
{
    if (!_state || !_state->done)
        panic("value() on a CallFuture that is not done");
    return _state->value;
}

// --- Construction and registration --------------------------------------

MigrationEngine::MigrationEngine(EventQueue &events, MemSystem &mem,
                                 const PageTableManager &ptm,
                                 const TimingConfig &timing,
                                 Kernel &kernel, IrqController &irq,
                                 Core &host_core)
    : _events(events), _mem(mem), _ptm(ptm), _timing(timing),
      _kernel(kernel), _irq(irq), _hostCore(host_core), _stats("flick")
{
}

void
MigrationEngine::addNxpDevice(Core &core, NxpPlatform &platform,
                              DmaEngine &dma, RegionHeap &stack_heap,
                              Addr host_staging_pa, Addr host_inbox_pa,
                              unsigned irq_vector, unsigned ring_slots,
                              std::uint64_t freq_hz)
{
    if (ring_slots == 0 || ring_slots > NxpPlatform::maxRingSlots)
        fatal("descriptor rings must have 1..%u slots",
              NxpPlatform::maxRingSlots);
    NxpSide s;
    s.core = &core;
    s.platform = &platform;
    s.dma = &dma;
    s.stackHeap = &stack_heap;
    s.hostStagingPa = host_staging_pa;
    s.hostInboxPa = host_inbox_pa;
    s.irqVector = irq_vector;
    s.clock = ClockDomain(freq_hz ? freq_hz : _timing.nxpFreqHz);
    s.h2d = DescriptorRing(host_staging_pa, platform.inboxLocalPa(),
                           ring_slots);
    s.d2h = DescriptorRing(platform.outboxLocalPa(), host_inbox_pa,
                           ring_slots);
    _nxp.push_back(std::move(s));
    unsigned device = static_cast<unsigned>(_nxp.size() - 1);
    _irq.connect(irq_vector, [this, device] { hostIrq(device); });
}

MigrationEngine::NxpSide &
MigrationEngine::side(unsigned device)
{
    if (device >= _nxp.size())
        panic("no NxP device %u", device);
    return _nxp[device];
}

MigrationEngine::TaskExec &
MigrationEngine::exec(int pid)
{
    auto it = _exec.find(pid);
    if (it == _exec.end())
        panic("no in-flight call for task %d", pid);
    return it->second;
}

MigrationEngine::TaskExec *
MigrationEngine::live(int pid, std::uint64_t id)
{
    auto it = _exec.find(pid);
    if (it == _exec.end() || it->second.id != id)
        return nullptr;
    return &it->second;
}

Tick
MigrationEngine::hostCycles(std::uint64_t n) const
{
    return _timing.hostClock().cycles(n);
}

Tick
MigrationEngine::nxpCycles(unsigned device, std::uint64_t n) const
{
    // Each device has its own clock domain (addNxpDevice's freq_hz);
    // homogeneous fabrics inherit the TimingConfig-wide nxpFreqHz and
    // every domain is identical.
    if (device >= _nxp.size())
        panic("no NxP device %u", device);
    return _nxp[device].clock.cycles(n);
}

// --- Descriptor-ring memory helpers -------------------------------------

void
MigrationEngine::writeHostStaging(const MigrationDescriptor &d,
                                  unsigned device, unsigned slot)
{
    auto w = d.toWire();
    _mem.hostDram().write(side(device).h2d.stagingPa(slot), w.data(),
                          w.size());
}

MigrationDescriptor::Wire
MigrationEngine::readNxpInboxWire(unsigned device, unsigned slot)
{
    MigrationDescriptor::Wire w{};
    Addr off = side(device).h2d.mailboxPa(slot) -
               _mem.platform().nxpDramLocalBase;
    _mem.nxpDram(device).read(off, w.data(), w.size());
    return w;
}

void
MigrationEngine::writeNxpOutbox(const MigrationDescriptor &d,
                                unsigned device, unsigned slot)
{
    auto w = d.toWire();
    Addr off = side(device).d2h.stagingPa(slot) -
               _mem.platform().nxpDramLocalBase;
    _mem.nxpDram(device).write(off, w.data(), w.size());
}

MigrationDescriptor::Wire
MigrationEngine::readHostInboxWire(unsigned device, unsigned slot)
{
    MigrationDescriptor::Wire w{};
    _mem.hostDram().read(side(device).d2h.mailboxPa(slot), w.data(),
                         w.size());
    return w;
}

std::uint64_t
MigrationEngine::currentNxpSp(const Task &task, unsigned device) const
{
    // The innermost saved context on this device tells where the
    // thread's NxP stack currently stands (reentrant nested calls).
    for (auto it = task.nxpSavedCtx.rbegin(); it != task.nxpSavedCtx.rend();
         ++it) {
        if (it->device == device)
            return it->sp & ~std::uint64_t(15);
    }
    return task.nxpStackTop[device] & ~std::uint64_t(15);
}

void
MigrationEngine::ensureNxpStack(TaskExec &x, unsigned device, Cont then)
{
    Task &task = *x.task;
    if (task.nxpStackTop[device] != 0) {
        then();
        return;
    }
    VAddr stack_base = side(device).stackHeap->allocate(_nxpStackBytes, 16);
    task.nxpStackTop[device] = stack_base + _nxpStackBytes;
    task.nxpStackBytes = _nxpStackBytes;
    int pid = task.pid;
    std::uint64_t id = x.id;
    VAddr top = task.nxpStackTop[device];
    after(_timing.nxpStackAllocate, [this, pid, id, device, top, then] {
        _stats.inc("nxp_stacks_allocated");
        tracePoint(TracePoint::nxpStackAlloc, pid, id, device, top);
        then();
    });
}

void
MigrationEngine::releaseNxpStacks(Task &task)
{
    if (!task.nxpSavedCtx.empty())
        panic("releasing NxP stacks of task %d mid-migration", task.pid);
    for (unsigned d = 0; d < _nxp.size(); ++d) {
        if (task.nxpStackTop[d] == 0)
            continue;
        side(d).stackHeap->free(task.nxpStackTop[d] - task.nxpStackBytes);
        task.nxpStackTop[d] = 0;
        _stats.inc("nxp_stacks_freed");
    }
}

// --- Submission ----------------------------------------------------------

CallFuture
MigrationEngine::submit(Task &task, VAddr entry,
                        const std::vector<std::uint64_t> &args,
                        VAddr stack_top, const SubmitOptions &opts)
{
    if (task.state != TaskState::created &&
        task.state != TaskState::running) {
        panic("submit on task %d in state %d", task.pid,
              static_cast<int>(task.state));
    }
    if (_exec.count(task.pid))
        panic("task %d already has a call in flight", task.pid);
    if (_qos.enabled && _qosQueuedPid.count(task.pid))
        panic("task %d already has a call queued", task.pid);

    unsigned tenant = 0;
    if (_qos.enabled) {
        tenant = registerTenant(task.cr3);
        tenantStat("qos.submitted", tenant);
    }

    Tick abs_deadline = 0;
    if (opts.deadline)
        abs_deadline = _events.now() + opts.deadline;
    else if (_callDeadline)
        abs_deadline = _events.now() + _callDeadline;

    if (!_qos.enabled) {
        return admitCall(task, entry, args, stack_top, abs_deadline,
                         opts.placementHint, nullptr);
    }

    // --- The QoS front door (DESIGN.md §14) ---------------------------

    // Deadline-aware admission: estimate this call's completion time
    // (shared cost model + the tenant's own backlog) and shed it now,
    // before it occupies a ring slot, if the deadline cannot be met.
    Tick estimate = admissionEstimate(task.cr3, entry, tenant);
    if (abs_deadline && _qos.deadlineAdmission &&
        _events.now() + estimate > abs_deadline)
        return shedFuture(task, tenant, ShedReason::deadlineInfeasible);

    if (_tenants.inFlight(tenant) >= effectiveTenantBudget()) {
        // Queueing disabled: a strict budget, shed on the spot.
        if (_qos.tenantQueueCap == 0)
            return shedFuture(task, tenant, ShedReason::tenantOverBudget);
        if (_tenants.queued(tenant) >= _qos.tenantQueueCap)
            return shedFuture(task, tenant, ShedReason::queueFull);
        // Over budget but the queue has room: park the call. Its future
        // is pending; weighted fair dequeue admits it when the tenant's
        // budget frees up (pumpQosQueues).
        auto state = std::make_shared<CallFutureState>();
        state->pid = task.pid;
        QosPending p;
        p.task = &task;
        p.entry = entry;
        p.args = args;
        p.stackTop = stack_top;
        p.placementHint = opts.placementHint;
        p.absDeadline = abs_deadline;
        p.future = state;
        _qosQueues[tenant].push_back(std::move(p));
        _qosQueuedPid[task.pid] = tenant;
        _tenants.onEnqueue(tenant);
        tenantStat("qos.queued", tenant);
        tracePoint(TracePoint::qosQueue, task.pid, 0, 0, estimate);
        return CallFuture(std::move(state), this);
    }

    tenantStat("qos.admitted", tenant);
    tracePoint(TracePoint::qosAdmit, task.pid, 0, 0, estimate);
    return admitCall(task, entry, args, stack_top, abs_deadline,
                     opts.placementHint, nullptr);
}

CallFuture
MigrationEngine::shedFuture(Task &task, unsigned tenant, ShedReason reason)
{
    // A shed call completes without allocating a call frame, touching a
    // ring staging slot or scheduling an event: the future is the only
    // thing created, and the engine's clocks, rings and counters (bar
    // the shed counters) are untouched.
    auto shed = std::make_shared<CallFutureState>();
    shed->pid = task.pid;
    shedCall(*shed, tenant, reason);
    return CallFuture(std::move(shed), this);
}

void
MigrationEngine::shedCall(CallFutureState &state, unsigned tenant,
                          ShedReason reason)
{
    tenantStat("qos.shed", tenant);
    tenantStat(reason == ShedReason::queueFull ? "qos.shed.queue_full"
               : reason == ShedReason::tenantOverBudget
                   ? "qos.shed.tenant_over_budget"
                   : "qos.shed.deadline_infeasible",
               tenant);
    tracePoint(TracePoint::qosShed, state.pid, 0, 0,
               static_cast<std::uint64_t>(reason));
    state.value = 0;
    state.status = CallStatus::shedLoad;
    state.shedReason = reason;
    state.done = true;
}

CallFuture
MigrationEngine::admitCall(Task &task, VAddr entry,
                           const std::vector<std::uint64_t> &args,
                           VAddr stack_top, Tick abs_deadline,
                           int placement_hint,
                           std::shared_ptr<CallFutureState> state)
{
    if (!state) {
        state = std::make_shared<CallFutureState>();
        state->pid = task.pid;
    }
    TaskExec x;
    x.task = &task;
    x.future = state;
    x.id = ++_nextExecId;
    x.entry = entry;
    x.args = args;
    x.stackTop = stack_top;
    x.placementHint = placement_hint;
    x.deadline = abs_deadline;
    if (_qos.enabled) {
        x.qosAdmitted = true;
        x.tenant = registerTenant(task.cr3);
        x.admitted = _events.now();
        _tenants.onAdmit(x.tenant);
    }
    bool deadlined = x.deadline != 0;
    _exec.emplace(task.pid, std::move(x));
    _stats.inc("calls_submitted");
    traceGauge(TraceGauge::inFlightCalls, 0, _exec.size());
    // The watchdog only exists when something can actually go wrong
    // (endpoint fault injection or a configured deadline); otherwise the
    // fault-free event stream stays untouched.
    if (deadlined || (_chaos && _chaos->endpointFaultsEnabled()))
        armHeartbeat();
    _kernel.enqueueRunnable(task);
    kickHost();
    return CallFuture(std::move(state), this);
}

unsigned
MigrationEngine::registerTenant(Addr cr3)
{
    unsigned tenant = _tenants.tenantOf(cr3);
    if (_qosQueues.size() <= tenant)
        _qosQueues.resize(tenant + 1);
    return tenant;
}

unsigned
MigrationEngine::aliveDeviceCount() const
{
    unsigned n = 0;
    for (const NxpSide &s : _nxp) {
        if (s.health != DeviceHealth::quarantined)
            ++n;
    }
    return n;
}

unsigned
MigrationEngine::effectiveTenantBudget() const
{
    unsigned budget = _qos.tenantInFlight ? _qos.tenantInFlight : 1;
    unsigned total = static_cast<unsigned>(_nxp.size());
    if (!total)
        return budget;
    // Quarantined devices propagate their capacity loss into the
    // admission budget: the per-tenant budget shrinks with the alive
    // fraction of the fabric, but never below one so a degraded fabric
    // still drains.
    unsigned eff = budget * aliveDeviceCount() / total;
    return eff ? eff : 1;
}

Tick
MigrationEngine::admissionEstimate(Addr cr3, VAddr entry,
                                   unsigned tenant) const
{
    // Per-call service estimate, most-informed source first: the
    // placement policy's learned EWMAs (the same model that steers
    // dispatch), the QoS layer's own end-to-end entry model, then the
    // analytic single-crossing floor for never-seen callees.
    Tick service = _policy ? _policy->estimateCall(cr3, entry) : 0;
    if (!service)
        service = _qosModel.estimate(cr3, entry);
    if (!service)
        service = crossingCostEstimate();
    // Queueing delay: the tenant's own backlog (in-flight + queued
    // calls) serialized over the alive share of the fabric. Another
    // tenant's burst never inflates this estimate — its interference is
    // bounded by that tenant's own budget instead.
    unsigned alive = aliveDeviceCount();
    if (!alive)
        alive = 1;
    std::uint64_t ahead =
        _tenants.inFlight(tenant) + _tenants.queued(tenant);
    return service + service * ahead / alive;
}

int
MigrationEngine::residencyMajorityDevice(
    Task &task, const std::vector<std::uint64_t> &args)
{
    if (!_residency)
        return -1;
    // The same access-weighted page vote ResidencyAwarePlacement casts
    // at fault time (DESIGN.md §15), reduced to the question the hint
    // override needs: does one device hold a strict majority?
    ResidencyVotes votes =
        residencyVotes(task.cr3, args, EnginePlacementView(*this));
    int best = -1;
    for (unsigned d = 0; d < votes.device.size(); ++d) {
        if (!votes.device[d] ||
            _nxp[d].health == DeviceHealth::quarantined)
            continue;
        if (best < 0 || votes.device[d] > votes.device[best])
            best = static_cast<int>(d);
    }
    if (best >= 0 && votes.device[best] * 2 > votes.total)
        return best;
    return -1;
}

void
MigrationEngine::pumpQosQueues()
{
    if (!_qos.enabled)
        return;
    for (;;) {
        unsigned budget = effectiveTenantBudget();
        int pick = _tenants.pick(
            [budget](unsigned) { return budget; },
            [this](unsigned t) { return _qos.weight(t); },
            _qos.agingDequeues);
        if (pick < 0)
            break;
        if (_tenants.lastPickAged())
            tenantStat("qos.aged_picks", static_cast<unsigned>(pick));
        auto tenant = static_cast<unsigned>(pick);
        QosPending p = std::move(_qosQueues[tenant].front());
        _qosQueues[tenant].pop_front();
        _qosQueuedPid.erase(p.task->pid);
        _tenants.onDequeue(tenant);
        // Deadline feasibility again, now that queueing burned part of
        // the call's deadline budget.
        Tick estimate = admissionEstimate(p.task->cr3, p.entry, tenant);
        if (p.absDeadline && _qos.deadlineAdmission &&
            _events.now() + estimate > p.absDeadline) {
            shedCall(*p.future, tenant, ShedReason::deadlineInfeasible);
            continue;
        }
        _tenants.charge(tenant);
        tenantStat("qos.dequeued", tenant);
        tracePoint(TracePoint::qosDequeue, p.task->pid, 0, 0, estimate);
        // A submit-time placement hint can go stale while the call sits
        // in the queue (hot-page migration moved its data): re-vote the
        // majority holder of the argument pages at dequeue time and
        // re-point the hint when the data clearly lives elsewhere now.
        if (_residency && p.placementHint >= 0) {
            int holder = residencyMajorityDevice(*p.task, p.args);
            if (holder >= 0 && holder != p.placementHint) {
                protoStat("qos.hint_revotes",
                          static_cast<unsigned>(holder));
                p.placementHint = holder;
            }
        }
        admitCall(*p.task, p.entry, p.args, p.stackTop, p.absDeadline,
                  p.placementHint, std::move(p.future));
    }
}

void
MigrationEngine::cancelQueuedCall(int pid, unsigned tenant)
{
    auto &queue = _qosQueues[tenant];
    for (auto it = queue.begin(); it != queue.end(); ++it) {
        if (it->task->pid != pid)
            continue;
        it->future->value = 0;
        it->future->status = CallStatus::cancelled;
        it->future->done = true;
        _qosQueuedPid.erase(pid);
        _tenants.onDequeue(tenant);
        _stats.inc("calls_failed");
        _stats.inc("cancellations");
        tenantStat("qos.cancelled_queued", tenant);
        tracePoint(TracePoint::qosCancel, pid, 0, 0,
                   admissionEstimate(it->task->cr3, it->entry, tenant));
        queue.erase(it);
        return;
    }
    panic("queued call of pid %d missing from tenant %u's queue", pid,
          tenant);
}

// --- Host-core scheduling ------------------------------------------------

void
MigrationEngine::kickHost()
{
    if (_hostBusy || _hostKickScheduled || _kernel.runQueueDepth() == 0)
        return;
    _hostKickScheduled = true;
    after(0, [this] {
        _hostKickScheduled = false;
        dispatchHost();
    });
}

void
MigrationEngine::dispatchHost()
{
    if (_hostBusy)
        return;
    while (Task *task = _kernel.nextRunnable()) {
        auto it = _exec.find(task->pid);
        if (it == _exec.end())
            continue; // the queued call failed or was cancelled
        _hostBusy = true;
        TaskExec &x = it->second;
        if (x.pendingFallback)
            dispatchFallback(x);
        else if (x.pendingWake)
            dispatchWake(x);
        else
            startEntry(x);
        return;
    }
}

void
MigrationEngine::releaseHost()
{
    _hostBusy = false;
    kickHost();
}

void
MigrationEngine::startEntry(TaskExec &x)
{
    Task &task = *x.task;
    task.state = TaskState::running;
    // A fresh call enters through the kernel, which installs the
    // process's page tables on the host core.
    _hostCore.mmu().setCr3(task.cr3);
    _hostLoadedCr3 = task.cr3;
    _hostCore.setStackPointer(x.stackTop & ~std::uint64_t(15));
    _hostCore.setupCall(x.entry, x.args);
    tracePoint(TracePoint::callEntry, task.pid, x.id, 0, x.entry);
    runHostSegment(x);
}

void
MigrationEngine::dispatchWake(TaskExec &x)
{
    int pid = x.task->pid;
    std::uint64_t id = x.id;
    // Scheduler latency until the thread runs again, then the ioctl
    // returns into the user-space migration handler.
    after(_timing.wakeupToRun, [this, pid, id] {
        TaskExec *w = live(pid, id);
        if (!w) {
            releaseHost();
            return;
        }
        Task &task = *w->task;
        if (_hostLoadedCr3 != task.cr3) {
            _hostCore.mmu().setCr3(task.cr3);
            _hostLoadedCr3 = task.cr3;
        }
        _hostCore.restoreContext(_kernel.resume(task));
        after(_timing.ioctlExit, [this, pid, id] {
            TaskExec *v = live(pid, id);
            if (!v) {
                releaseHost();
                return;
            }
            MigrationDescriptor d = v->wakeDesc;
            v->pendingWake = false;
            handleHostDescriptor(*v, d);
        });
    });
}

void
MigrationEngine::dispatchFallback(TaskExec &x)
{
    int pid = x.task->pid;
    std::uint64_t id = x.id;
    // The kernel failed the migration and woke the thread; it resumes
    // exactly like a migration return (scheduler latency, then the
    // driver hands control back to user space), but the driver reports
    // the failure and the runtime re-dispatches to the host twin.
    after(_timing.wakeupToRun, [this, pid, id] {
        TaskExec *w = live(pid, id);
        if (!w) {
            releaseHost();
            return;
        }
        Task &task = *w->task;
        if (_hostLoadedCr3 != task.cr3) {
            _hostCore.mmu().setCr3(task.cr3);
            _hostLoadedCr3 = task.cr3;
        }
        // The saved context's PC still sits on the faulting NX target;
        // the re-dispatch below repoints it at the host twin before any
        // fetch happens.
        _hostCore.restoreContext(_kernel.resume(task));
        after(_timing.ioctlExit +
                  hostCycles(_timing.hostHandlerCycles),
              [this, pid, id] {
            TaskExec *v = live(pid, id);
            if (!v) {
                releaseHost();
                return;
            }
            v->pendingFallback = false;
            CallFrame &top = v->frames.back();
            VAddr twin = fallbackVa(v->task->cr3, top.target);
            if (!twin) {
                panic("host fallback dispatched for task %d without a "
                      "registered twin of %#llx",
                      pid, (unsigned long long)top.target);
            }
            std::vector<std::uint64_t> args(top.args.begin(),
                                            top.args.begin() + top.nargs);
            _hostCore.setupCall(twin, args);
            tracePoint(TracePoint::hostFallback, pid, id, 0, twin);
            runHostSegment(*v);
        });
    });
}

void
MigrationEngine::handleHostDescriptor(TaskExec &x, MigrationDescriptor d)
{
    Task &task = *x.task;
    int pid = task.pid;
    if (x.frames.empty())
        panic("host woke task %d with no cross-ISA call in flight", pid);
    CallFrame &top = x.frames.back();

    switch (d.kind) {
      case DescriptorKind::nxpToHostCall: {
        if (top.callee == hostSide) {
            // (d) An NxP called a host function: run it here.
            std::vector<std::uint64_t> args(d.args.begin(),
                                            d.args.begin() + d.nargs);
            _hostCore.setupCall(d.target, args);
            tracePoint(TracePoint::hostCallStart, pid, x.id, 0, d.target);
            runHostSegment(x);
            return;
        }
        // Device-to-device call: the target belongs to another NxP, so
        // the kernel forwards the descriptor there (Section IV-C3).
        unsigned to = top.callee;
        if (side(to).health == DeviceHealth::quarantined) {
            // The destination is gone. With fallback enabled the kernel
            // runs the host twin right here — the host core is already
            // ours and the calling device just waits for its return
            // descriptor as usual. Without it, the call chain dies.
            protoStat("rejected_submissions", to);
            VAddr twin = _hostFallback ? fallbackVa(task.cr3, d.target) : 0;
            if (!twin) {
                failCall(x, CallStatus::deviceLost);
                releaseHost();
                return;
            }
            protoStat("failovers", to);
            top.callee = hostSide;
            _hostCore.setupCall(twin, d.argVector());
            tracePoint(TracePoint::hostFallback, pid, x.id, 0, twin);
            runHostSegment(x);
            return;
        }
        tracePoint(TracePoint::hostForward, pid, x.id, to, d.target);
        MigrationDescriptor fwd = d;
        std::uint64_t id = x.id;
        ensureNxpStack(x, to, [this, pid, id, fwd, to] {
            after(_timing.ioctlEntry, [this, pid, id, fwd, to] {
                TaskExec *w = live(pid, id);
                if (!w) {
                    releaseHost();
                    return;
                }
                MigrationDescriptor f = fwd;
                f.kind = DescriptorKind::hostToNxpCall;
                f.cr3 = w->task->cr3;
                f.nxpSp = currentNxpSp(*w->task, to);
                hostSendDescriptor(*w, f, to);
            });
        });
        return;
      }

      case DescriptorKind::nxpToHostReturn: {
        if (top.caller == hostSide) {
            // (g) The host->NxP round trip completes here.
            tracePoint(TracePoint::hostResume, pid, x.id);
            CallFrame done = top;
            x.frames.pop_back();
            ++task.migrations;
            _stats.inc("host_nxp_host_roundtrips");
            _stats.inc("host_nxp_host_ticks", _events.now() - done.t0);
            // The measured end-to-end latency is the cost model's input
            // (ProfileGuidedPlacement); a no-feedback policy skips it.
            recordPlacementOutcome(task, done);
            _hostCore.finishHijackedCall(d.retval);
            runHostSegment(x);
            return;
        }
        // A forwarded device-to-device call returned: relay the value
        // back to the device that is waiting for it.
        unsigned from = top.caller;
        std::uint64_t rv = d.retval;
        std::uint64_t id = x.id;
        tracePoint(TracePoint::hostDescBuild, pid, id, from);
        after(_timing.ioctlEntry, [this, pid, id, rv, from] {
            TaskExec *w = live(pid, id);
            if (!w) {
                releaseHost();
                return;
            }
            MigrationDescriptor ret;
            ret.kind = DescriptorKind::hostToNxpReturn;
            ret.pid = static_cast<std::uint32_t>(pid);
            ret.retval = rv;
            ret.nxpSp = currentNxpSp(*w->task, from);
            hostSendDescriptor(*w, ret, from);
        });
        return;
      }

      default:
        panic("host received unexpected descriptor kind %s for task %d",
              descriptorKindName(d.kind), pid);
    }
}

void
MigrationEngine::runHostSegment(TaskExec &x)
{
    int pid = x.task->pid;
    std::uint64_t id = x.id;
    // Functional-first: the slice executes now, its time is charged as
    // a continuation, and the core stays owned until the stop handler.
    RunResult r = _hostCore.run();
    after(r.elapsed, [this, pid, id, r] { handleHostStop(pid, id, r); });
}

void
MigrationEngine::handleHostStop(int pid, std::uint64_t id, RunResult r)
{
    TaskExec *xp = live(pid, id);
    if (!xp) {
        // The call was failed/cancelled while its segment's time was
        // being charged; the segment's owner releases the core.
        releaseHost();
        return;
    }
    TaskExec &x = *xp;
    Task &task = *x.task;

    switch (r.stop) {
      case Fault::trampoline: {
        std::uint64_t rv = _hostCore.retVal();
        if (x.frames.empty()) {
            // The entry function returned: the call is complete.
            completeCall(x, rv);
            return;
        }
        CallFrame &top = x.frames.back();
        if (top.callee != hostSide) {
            panic("host trampoline for task %d inside a device-side "
                  "frame", pid);
        }
        if (top.caller == hostSide) {
            // A host twin of a host-initiated call finished — either a
            // failover or a policy-steered run: deliver the value like
            // the migration return would have.
            CallFrame done = top;
            x.frames.pop_back();
            _stats.inc(done.steered ? "placement.host_steered_returns"
                                    : "fallback_returns");
            recordPlacementOutcome(task, done);
            _hostCore.finishHijackedCall(rv);
            runHostSegment(x);
            return;
        }
        // (e) A nested host function finished: package the return and
        // ship it back to the calling device.
        unsigned from = top.caller;
        tracePoint(TracePoint::hostDescBuild, pid, id, from, rv);
        after(hostCycles(_timing.hostHandlerCycles) + _timing.ioctlEntry,
              [this, pid, id, rv, from] {
                  TaskExec *w = live(pid, id);
                  if (!w) {
                      releaseHost();
                      return;
                  }
                  MigrationDescriptor ret;
                  ret.kind = DescriptorKind::hostToNxpReturn;
                  ret.pid = static_cast<std::uint32_t>(pid);
                  ret.retval = rv;
                  ret.nxpSp = currentNxpSp(*w->task, from);
                  hostSendDescriptor(*w, ret, from);
              });
        return;
      }

      case Fault::halt:
        if (!x.frames.empty())
            panic("program exit inside a nested cross-ISA call");
        task.state = TaskState::done;
        completeCall(x, _hostCore.retVal());
        return;

      case Fault::nxFetch: {
        FaultAction action =
            _kernel.classifyFetchFault(r.stop, IsaKind::hx64);
        if (action != FaultAction::migrateToNxp)
            panic("host NX fault not classified as migration");

        // The fault handler reads the PTE's software ISA tag (cached in
        // the I-TLB by the faulting fetch) to tell NxP text from plain
        // non-executable data and to pick the target device
        // (Section IV-C3).
        const TlbEntry *pte_entry = _hostCore.mmu().itlb().peek(r.faultVa);
        unsigned isa_tag = pte_entry ? pte::isaTag(pte_entry->flags) : 0;
        if (isa_tag < nxpIsaTag || isa_tag - nxpIsaTag >= _nxp.size()) {
            fatal("guest jumped to NX page %#llx with ISA tag %u: "
                  "not code for any NxP (likely a call through a "
                  "data pointer)",
                  (unsigned long long)r.faultVa, isa_tag);
        }
        // The dispatch decision point (DESIGN.md §11): the fault
        // handler consults the placement policy before staging
        // anything. Without a policy the answer is always "home" and
        // this is a straight pass-through.
        unsigned home = isa_tag - nxpIsaTag;
        Placed p = decidePlacement(task, r.faultVa, home, hostSide);
        if (p.toHost) {
            protoStat("placement.host_steered", home);
            startHostTwinCall(x, r.faultVa, p.canonical, p.va, home, true);
            return;
        }
        if (p.device != home)
            protoStat("placement.rebalanced", p.device);
        startHostToNxpCall(x, p.va, p.device, p.canonical);
        return;
      }

      default:
        // A genuine guest fault (the kernel would deliver SIGSEGV /
        // SIGILL): a user error, not a simulator bug.
        fatal("guest fault on the host core: %s at %#llx "
              "(pc %#llx, pid %d)",
              faultName(r.stop), (unsigned long long)r.faultVa,
              (unsigned long long)_hostCore.pc(), task.pid);
    }
}

void
MigrationEngine::registerDeviceTwin(Addr cr3, VAddr canonical,
                                    unsigned device, VAddr twin_va)
{
    auto &family = _deviceTwins[{cr3, canonical}];
    if (family.size() < _nxp.size())
        family.resize(_nxp.size(), 0);
    if (device < family.size())
        family[device] = twin_va;
    if (twin_va != canonical)
        _twinCanonical[{cr3, twin_va}] = canonical;
}

Tick
MigrationEngine::crossingCostEstimate() const
{
    const TimingConfig &t = _timing;
    std::uint64_t wire = MigrationDescriptor::wireBytes;
    // Host outbound leg: NX fault service, trap exit into the hijacked
    // handler, handler prologue, ioctl entry, descriptor packaging,
    // suspend + context switch, then the h2d descriptor DMA.
    Tick host_out = t.nxFaultService + t.faultTrapExit +
                    hostCycles(t.hostHandlerCycles) + t.ioctlEntry +
                    t.descriptorPack + t.suspendSwitch +
                    t.dmaTransfer(wire);
    // Device: scheduler poll + doorbell read, descriptor parse, context
    // switch in; then (callee runs); then descriptor build, context
    // switch out, doorbell, and the d2h return DMA.
    ClockDomain nxp = t.nxpClock();
    Tick device_legs = nxp.cycles(t.nxpPollCycles) + t.nxpToLocalMmio +
                       nxp.cycles(t.nxpDescriptorCycles) +
                       t.nxpToNxpDram + nxp.cycles(t.nxpCtxSwitchCycles) +
                       nxp.cycles(t.nxpDescriptorCycles) +
                       t.nxpToNxpDram + nxp.cycles(t.nxpCtxSwitchCycles) +
                       t.nxpToLocalMmio + t.dmaTransfer(wire);
    // Host return leg: MSI delivery, IRQ wake, scheduler latency and
    // the ioctl exit back to user space.
    Tick host_back = t.irqDelivery + t.irqWake + t.wakeupToRun +
                     t.ioctlExit;
    return host_out + device_legs + host_back;
}

MigrationEngine::Placed
MigrationEngine::decidePlacement(Task &task, VAddr target, unsigned home,
                                 unsigned caller_device)
{
    Placed p;
    p.device = home;
    p.va = target;
    auto c_it = _twinCanonical.find({task.cr3, target});
    p.canonical = c_it == _twinCanonical.end() ? target : c_it->second;

    // A submit-time placement hint is consumed by the call's first
    // dispatch decision, before (and instead of) the policy.
    int hint = -1;
    auto e_it = _exec.find(task.pid);
    if (e_it != _exec.end() && e_it->second.placementHint >= 0) {
        hint = e_it->second.placementHint;
        e_it->second.placementHint = -1;
    }
    if (hint >= 0 && static_cast<unsigned>(hint) < _nxp.size() &&
        _nxp[hint].health != DeviceHealth::quarantined &&
        !(caller_device != hostSide &&
          static_cast<unsigned>(hint) == caller_device)) {
        VAddr hinted_va = 0;
        if (static_cast<unsigned>(hint) == home) {
            hinted_va = target;
        } else {
            auto h_it = _deviceTwins.find({task.cr3, p.canonical});
            if (h_it != _deviceTwins.end() &&
                static_cast<unsigned>(hint) < h_it->second.size()) {
                hinted_va = h_it->second[hint];
            }
        }
        if (hinted_va) {
            protoStat("placement.hinted", static_cast<unsigned>(hint));
            p.device = static_cast<unsigned>(hint);
            p.va = hinted_va;
            return p;
        }
        // No text for the hinted device: the hint is unusable and
        // dispatch proceeds as if none were given.
    }

    if (!_policy)
        return p;

    PlacementQuery q;
    q.cr3 = task.cr3;
    q.canonical = p.canonical;
    q.home = home;
    q.fromDevice = caller_device != hostSide;
    q.callerDevice = q.fromDevice ? caller_device : 0;
    // The argument registers are live on the faulting core at decision
    // time (the descriptor is built from the same registers just after);
    // residency-aware placement reads the pages they point at.
    const Core &argsrc = q.fromDevice
                             ? *_nxp[caller_device].core
                             : static_cast<const Core &>(_hostCore);
    q.args.reserve(MigrationDescriptor::maxArgs);
    for (unsigned i = 0; i < MigrationDescriptor::maxArgs; ++i)
        q.args.push_back(argsrc.arg(i));

    PlacementCandidates c;
    c.deviceVa.assign(_nxp.size(), 0);
    if (home < c.deviceVa.size())
        c.deviceVa[home] = target;
    auto t_it = _deviceTwins.find({task.cr3, p.canonical});
    if (t_it != _deviceTwins.end()) {
        for (unsigned d = 0;
             d < c.deviceVa.size() && d < t_it->second.size(); ++d) {
            if (t_it->second[d])
                c.deviceVa[d] = t_it->second[d];
        }
    }
    // A device cannot call its own core's text — the fault already
    // proved the target is foreign.
    if (q.fromDevice && caller_device < c.deviceVa.size())
        c.deviceVa[caller_device] = 0;
    c.hostVa = fallbackVa(task.cr3, p.canonical);

    EnginePlacementView view(*this);
    PlacementDecision d = _policy->place(q, c, view);

    // Clamp: a decision for text that does not exist (or a quarantined
    // answer the policy should not have given) degrades to home.
    if (d.toHost && c.hostVa) {
        p.toHost = true;
        p.va = c.hostVa;
        return p;
    }
    if (!d.toHost && d.device < c.deviceVa.size() &&
        c.deviceVa[d.device] != 0) {
        p.device = d.device;
        p.va = c.deviceVa[d.device];
    }
    return p;
}

void
MigrationEngine::startHostTwinCall(TaskExec &x, VAddr faulted,
                                   VAddr canonical, VAddr twin,
                                   unsigned device, bool steered)
{
    int pid = x.task->pid;
    std::uint64_t id = x.id;
    CallFrame f{hostSide, hostSide, _events.now()};
    f.target = faulted;
    f.canonical = canonical;
    f.steered = steered;
    f.nargs = MigrationDescriptor::maxArgs;
    for (unsigned i = 0; i < MigrationDescriptor::maxArgs; ++i)
        f.args[i] = _hostCore.arg(i);
    x.frames.push_back(f);
    tracePoint(TracePoint::hostNxFault, pid, id, device, faulted);
    after(_timing.nxFaultService + _timing.faultTrapExit +
              hostCycles(_timing.hostHandlerCycles),
          [this, pid, id, twin, steered] {
        TaskExec *w = live(pid, id);
        if (!w) {
            releaseHost();
            return;
        }
        CallFrame &top = w->frames.back();
        std::vector<std::uint64_t> args(top.args.begin(),
                                        top.args.begin() + top.nargs);
        _hostCore.setupCall(twin, args);
        tracePoint(steered ? TracePoint::hostSteered
                           : TracePoint::hostFallback,
                   pid, id, 0, twin);
        runHostSegment(*w);
    });
}

void
MigrationEngine::recordPlacementOutcome(Task &task, const CallFrame &frame)
{
    if (!_policy || !_policy->wantsFeedback() || frame.canonical == 0)
        return;
    // Both host-originated and device-originated (relayed) calls feed
    // the model: a d2h or d2d round trip is as real a sample of its
    // callee's cost as a host-side one, and relayed calls would
    // otherwise never update the EWMAs at all.
    Tick latency = _events.now() - frame.t0;
    if (frame.callee == hostSide) {
        _policy->recordHostCall(task.cr3, frame.canonical, latency);
        _stats.inc("placement.model_updates");
    } else {
        _policy->recordDeviceCall(task.cr3, frame.canonical, frame.callee,
                                  latency);
        protoStat("placement.model_updates", frame.callee);
    }
}

void
MigrationEngine::startHostToNxpCall(TaskExec &x, VAddr target,
                                    unsigned device, VAddr canonical)
{
    Task &task = *x.task;
    int pid = task.pid;
    std::uint64_t id = x.id;

    if (side(device).health == DeviceHealth::quarantined) {
        // The kernel's fault handler consults the device health before
        // staging anything: a migration to a quarantined NxP is
        // rejected on the spot. With fallback enabled and a host twin
        // registered, the handler re-points the faulting call at the
        // twin — the hijacked return address is already in place, so
        // the call completes exactly like a migration would have.
        protoStat("rejected_submissions", device);
        VAddr twin = _hostFallback ? fallbackVa(task.cr3, canonical) : 0;
        if (!twin) {
            failCall(x, CallStatus::deviceLost);
            releaseHost();
            return;
        }
        protoStat("failovers", device);
        startHostTwinCall(x, target, canonical, twin, device, false);
        return;
    }

    protoStat("host_to_nxp_calls", device);
    {
        CallFrame f{device, hostSide, _events.now()};
        f.canonical = canonical;
        x.frames.push_back(f);
    }

    // Kernel NX fault service: decode, save the faulting address in the
    // task_struct, hijack the return address to the migration handler,
    // then trap-exit into the hijacked user-space handler.
    task.savedFaultAddr = target;
    tracePoint(TracePoint::hostNxFault, pid, id, device, target);
    after(_timing.nxFaultService + _timing.faultTrapExit,
          [this, pid, id, target, device] {
              TaskExec *w0 = live(pid, id);
              if (!w0) {
                  releaseHost();
                  return;
              }
              tracePoint(TracePoint::hostDescBuild, pid, id, device);
              // First migration to this device: allocate the thread's
              // NxP stack (Listing 1 lines 3-4).
              ensureNxpStack(*w0, device,
                             [this, pid, id, target, device] {
                  // User-space handler gathers its (hijacked)
                  // arguments, then ioctl(): package target, args,
                  // CR3, PID, NxP SP into a descriptor.
                  after(hostCycles(_timing.hostHandlerCycles) +
                            _timing.ioctlEntry,
                        [this, pid, id, target, device] {
                      TaskExec *w = live(pid, id);
                      if (!w) {
                          releaseHost();
                          return;
                      }
                      Task &t = *w->task;
                      MigrationDescriptor d;
                      d.kind = DescriptorKind::hostToNxpCall;
                      d.pid = static_cast<std::uint32_t>(pid);
                      d.target = target;
                      d.cr3 = t.cr3;
                      d.nxpSp = currentNxpSp(t, device);
                      d.nargs = MigrationDescriptor::maxArgs;
                      for (unsigned i = 0; i < MigrationDescriptor::maxArgs;
                           ++i)
                          d.args[i] = _hostCore.arg(i);
                      hostSendDescriptor(*w, d, device);
                  });
              });
          });
}

void
MigrationEngine::completeCall(TaskExec &x, std::uint64_t value)
{
    x.future->value = value;
    x.future->status = CallStatus::ok;
    x.future->done = true;
    _stats.inc("calls_completed");
    tracePoint(TracePoint::callComplete, x.task->pid, x.id, 0, value);
    bool was_qos = x.qosAdmitted;
    unsigned tenant = x.tenant;
    if (was_qos) {
        // Feed the admission estimator with the observed end-to-end
        // latency and give the tenant's freed budget slot away.
        _qosModel.record(x.task->cr3, x.entry, _events.now() - x.admitted);
        _tenants.onRetire(tenant);
    }
    _exec.erase(x.task->pid);
    traceGauge(TraceGauge::inFlightCalls, 0, _exec.size());
    if (was_qos)
        pumpQosQueues();
    releaseHost();
}

void
MigrationEngine::hostSendDescriptor(TaskExec &x, MigrationDescriptor d,
                                    unsigned device)
{
    int pid = x.task->pid;
    std::uint64_t id = x.id;
    d.callId = id;
    if (d.kind == DescriptorKind::hostToNxpCall && !x.frames.empty()) {
        // Remember what the descriptor asks for in the call frame; the
        // host fallback path re-dispatches from this record if the
        // device dies under the call.
        CallFrame &top = x.frames.back();
        top.target = d.target;
        top.nargs = d.nargs;
        top.args = d.args;
    }
    after(_timing.descriptorPack, [this, pid, id, d, device] {
        TaskExec *w0 = live(pid, id);
        if (!w0) {
            releaseHost();
            return;
        }
        // Suspend TASK_KILLABLE, context switch away, then (and only
        // then) let the scheduler trigger the descriptor DMA
        // (Section IV-D).
        Task &task = *w0->task;
        _kernel.suspendForMigration(task, _hostCore.saveContext());
        after(_timing.suspendSwitch, [this, pid, id, d, device] {
            bool is_call = d.kind == DescriptorKind::hostToNxpCall;
            Cont fire = [this, pid, id, d, device] {
                TaskExec *w = live(pid, id);
                if (!w) {
                    releaseHost();
                    return;
                }
                Task &t = *w->task;
                if (!_kernel.takeMigrationTrigger(t)) {
                    panic("descriptor DMA requested without the "
                          "migration flag set");
                }
                NxpSide &s = side(device);
                if (s.health == DeviceHealth::quarantined) {
                    // The device died between the fault and the DMA
                    // trigger: the kernel fails the migration instead
                    // of staging into a drained ring.
                    failCall(*w, CallStatus::deviceLost);
                    releaseHost();
                    return;
                }
                if (s.h2d.full())
                    s.h2dDeferred.push_back(d);
                else
                    fireHostToNxp(d, device);
                releaseHost();
            };
            if (is_call && _extraRoundTrip)
                after(_extraRoundTrip, std::move(fire));
            else
                fire();
        });
    });
}

void
MigrationEngine::fireHostToNxp(MigrationDescriptor d, unsigned device)
{
    NxpSide &s = side(device);
    // The kernel stamps the link sequence number as it stages the
    // descriptor; fire order is ring order, so the device expects
    // exactly this sequence.
    d.seq = ++s.h2dSendSeq;
    unsigned slot = s.h2d.push();
    writeHostStaging(d, device, slot);
    tracePoint(TracePoint::dmaToNxpStart, static_cast<int>(d.pid),
               d.callId, device);
    traceGauge(TraceGauge::h2dRing, device, s.h2d.inUse());
    protoStat("doorbell_writes", device);
    NxpPlatform *platform = s.platform;
    int dpid = static_cast<int>(d.pid);
    std::uint64_t cid = d.callId;
    s.dma->copyHostToNxp(s.h2d.stagingPa(slot), s.h2d.mailboxPa(slot),
                         MigrationDescriptor::wireBytes,
                         [this, platform, device, dpid, cid] {
                             ++side(device).progress;
                             tracePoint(TracePoint::dmaToNxpDone, dpid, cid,
                                        device);
                             platform->inboxArrived();
                             kickNxp(device);
                         });
}

// --- NxP-side scheduling -------------------------------------------------

void
MigrationEngine::kickNxp(unsigned device)
{
    NxpSide &s = side(device);
    if (s.busy || s.kickScheduled || s.platform->pendingInbox() == 0)
        return;
    s.kickScheduled = true;
    after(0, [this, device] {
        side(device).kickScheduled = false;
        dispatchNxp(device);
    });
}

void
MigrationEngine::dispatchNxp(unsigned device)
{
    NxpSide &s = side(device);
    if (s.dead || s.health == DeviceHealth::quarantined)
        return; // nobody home; the watchdog notices the silence
    if (s.busy || s.platform->pendingInbox() == 0)
        return;
    if (_chaos && _chaos->shouldKillNxpDevice()) {
        // The device's scheduler core dies right here: the pending
        // inbox descriptor is never picked up and nothing the device
        // owes will ever complete. Only the health watchdog can tell.
        s.dead = true;
        s.segmentEnd = _events.now();
        _stats.inc("chaos_device_deaths");
        return;
    }
    s.busy = true;
    // The NxP scheduler polls the DMA status register (Listing 2):
    // one poll iteration plus the status register read.
    after(nxpCycles(device, _timing.nxpPollCycles) + _timing.nxpToLocalMmio,
          [this, device] {
        // Fetch and parse the descriptor from the local inbox ring.
        after(nxpCycles(device, _timing.nxpDescriptorCycles) +
                  _timing.nxpToNxpDram,
              [this, device] {
            NxpSide &t = side(device);
            unsigned slot = t.h2d.front();
            MigrationDescriptor::Wire w = readNxpInboxWire(device, slot);
            // The scheduler verifies the slot before trusting any field
            // in it; a corrupted burst is NAKed and retransmitted from
            // the host's intact staging copy.
            MigrationDescriptor d;
            bool ok = MigrationDescriptor::wireIntact(w);
            if (ok) {
                d = MigrationDescriptor::fromWire(w);
                ok = d.seq == t.h2dAcceptSeq + 1;
                if (!ok)
                    protoStat("seq_mismatches", device);
            }
            if (!ok) {
                nakH2d(device);
                return;
            }
            t.h2dAcceptSeq = d.seq;
            t.h2dRetries = 0;
            ++t.progress;
            t.h2d.pop();
            traceGauge(TraceGauge::h2dRing, device, t.h2d.inUse());
            t.platform->consumeInbox();
            // The freed slot unblocks a deferred host-side send.
            if (!t.h2dDeferred.empty() && !t.h2d.full()) {
                MigrationDescriptor dd = t.h2dDeferred.front();
                t.h2dDeferred.pop_front();
                fireHostToNxp(dd, device);
            }
            // ACK through the control register.
            after(_timing.nxpToLocalMmio, [this, device, d] {
                handleNxpDescriptor(device, d);
            });
        });
    });
}

void
MigrationEngine::releaseNxp(unsigned device)
{
    side(device).busy = false;
    kickNxp(device);
}

void
MigrationEngine::handleNxpDescriptor(unsigned device,
                                     MigrationDescriptor d)
{
    int pid = static_cast<int>(d.pid);

    switch (d.kind) {
      case DescriptorKind::hostToNxpCall: {
        // Context switch into the thread using the descriptor's stack
        // pointer.
        after(nxpCycles(device, _timing.nxpCtxSwitchCycles),
              [this, device, d, pid] {
            TaskExec *x = live(pid, d.callId);
            if (!x) {
                // The call this descriptor belongs to was failed or
                // cancelled while the descriptor was in flight.
                protoStat("stale_descriptors", device);
                releaseNxp(device);
                return;
            }
            NxpSide &s = side(device);
            Core &core = *s.core;
            core.mmu().setCr3(d.cr3);
            s.loadedCr3 = d.cr3;
            core.setStackPointer(d.nxpSp);
            std::vector<std::uint64_t> args(d.args.begin(),
                                            d.args.begin() + d.nargs);
            core.setupCall(d.target, args);
            tracePoint(TracePoint::nxpCallStart, pid, d.callId, device,
                       d.target);
            runNxpSegment(*x, device);
        });
        return;
      }

      case DescriptorKind::hostToNxpReturn: {
        // Context switch the thread back in and resume it where it
        // faulted.
        after(nxpCycles(device, _timing.nxpCtxSwitchCycles),
              [this, device, d, pid] {
            TaskExec *xp = live(pid, d.callId);
            if (!xp) {
                protoStat("stale_descriptors", device);
                releaseNxp(device);
                return;
            }
            NxpSide &s = side(device);
            Core &core = *s.core;
            TaskExec &x = *xp;
            Task &task = *x.task;
            if (task.nxpSavedCtx.empty() ||
                task.nxpSavedCtx.back().device != device) {
                panic("host->NxP return with mismatched saved NxP "
                      "context");
            }
            if (s.loadedCr3 != task.cr3) {
                core.mmu().setCr3(task.cr3);
                s.loadedCr3 = task.cr3;
            }
            core.restoreContext(task.nxpSavedCtx.back().context);
            task.nxpSavedCtx.pop_back();
            tracePoint(TracePoint::nxpResume, pid, d.callId, device);

            if (x.frames.empty() || x.frames.back().caller != device) {
                panic("NxP %u resumed task %d without a matching call "
                      "frame", device, pid);
            }
            CallFrame f = x.frames.back();
            x.frames.pop_back();
            ++task.migrations;
            if (f.callee == hostSide) {
                _stats.inc("nxp_host_nxp_roundtrips");
                _stats.inc("nxp_host_nxp_ticks", _events.now() - f.t0);
            } else {
                _stats.inc("nxp_to_nxp_roundtrips");
            }
            // Device-originated round trips feed the cost model too
            // (the relayed-call feedback gap): the EWMAs would
            // otherwise never learn from d2h or d2d calls.
            recordPlacementOutcome(task, f);
            core.finishHijackedCall(d.retval);
            runNxpSegment(x, device);
        });
        return;
      }

      default:
        panic("NxP %u received unexpected descriptor kind %s", device,
              descriptorKindName(d.kind));
    }
}

void
MigrationEngine::runNxpSegment(TaskExec &x, unsigned device)
{
    int pid = x.task->pid;
    std::uint64_t id = x.id;
    NxpSide &s = side(device);
    // A chaos-wedged core hangs a few instructions into the segment (a
    // hung accelerator pipeline): the architectural state stops
    // advancing and no stop event is ever scheduled. The core stays
    // busy forever; recovery is the health watchdog's job. A segment
    // shorter than the wedge budget completes before the hang can bite.
    bool wedge = _chaos && _chaos->shouldWedgeNxpCore();
    RunResult r = wedge ? s.core->run(_chaos->wedgeProgress())
                        : s.core->run();
    if (wedge && r.stop == Fault::none) {
        s.segmentEnd = _events.now();
        _stats.inc("chaos_core_wedges");
        return;
    }
    // While the segment's time is being charged the busy core is
    // computing, not stalled; tell the watchdog when that excuse ends.
    s.segmentEnd = _events.now() + r.elapsed;
    after(r.elapsed,
          [this, pid, id, device, r] {
              handleNxpStop(pid, id, device, r);
          });
}

void
MigrationEngine::handleNxpStop(int pid, std::uint64_t id, unsigned device,
                               RunResult r)
{
    ++side(device).progress; // a retired segment is forward progress
    TaskExec *xp = live(pid, id);
    if (!xp) {
        // The call was failed/cancelled while the segment's time was
        // being charged; the segment's owner releases the core.
        releaseNxp(device);
        return;
    }
    TaskExec &x = *xp;
    Core &core = *side(device).core;

    switch (r.stop) {
      case Fault::trampoline: {
        // (f) The NxP function finished: ship the return value home.
        std::uint64_t rv = core.retVal();
        tracePoint(TracePoint::nxpDescBuild, pid, id, device, rv);
        MigrationDescriptor ret;
        ret.kind = DescriptorKind::nxpToHostReturn;
        ret.pid = static_cast<std::uint32_t>(pid);
        ret.retval = rv;
        deviceSendToHost(x, ret, device);
        return;
      }

      case Fault::nonNxFetch:
      case Fault::misalignedFetch: {
        FaultAction action =
            _kernel.classifyFetchFault(r.stop, IsaKind::rv64);
        if (action != FaultAction::migrateToHost)
            panic("NxP fetch fault not classified as migration");
        tracePoint(TracePoint::nxpFault, pid, id, device, r.faultVa);
        startNxpFaultMigration(x, r.faultVa, device);
        return;
      }

      default:
        fatal("guest fault on the NxP core: %s at %#llx "
              "(pc %#llx, pid %d)",
              faultName(r.stop), (unsigned long long)r.faultVa,
              (unsigned long long)core.pc(), pid);
    }
}

void
MigrationEngine::startNxpFaultMigration(TaskExec &x, VAddr target,
                                        unsigned device)
{
    int pid = x.task->pid;
    std::uint64_t id = x.id;
    // The kernel classifies the target by the ISA tag in its PTE. The
    // upper table levels sit in the host's paging-structure caches, so
    // this is charged as a single leaf read; the value is fetched with
    // an untimed walk.
    after(_timing.hostToHostDram, [this, pid, id, target, device] {
        TaskExec *wp = live(pid, id);
        if (!wp) {
            releaseNxp(device);
            return;
        }
        TaskExec &w = *wp;
        Task &task = *w.task;
        Core &core = *side(device).core;

        std::optional<DebugTranslation> leaf =
            _ptm.translate(task.cr3, target);
        if (!leaf) {
            fatal("guest on NxP %u jumped to unmapped address %#llx",
                  device, (unsigned long long)target);
        }

        unsigned tag = pte::isaTag(leaf->entry);
        unsigned dest = hostSide;
        if (tag != 0) {
            unsigned to = tag - nxpIsaTag;
            if (to >= _nxp.size())
                fatal("guest jumped to code tagged for missing NxP %u", to);
            if (to == device) {
                panic("NxP %u faulted on its own code at %#llx", device,
                      (unsigned long long)target);
            }
            dest = to;
        }

        // The trace records the faulted VA; the dispatch VA is what the
        // descriptor carries (a policy may re-point it at a twin).
        VAddr dispatch = target;
        VAddr canonical = target;
        if (dest != hostSide) {
            // Device-to-device calls go through the same decision point
            // as host-originated ones (the kernel relays them anyway);
            // the policy may rebalance onto another device's twin or —
            // if it says crossing loses — route the relay straight to
            // the host twin.
            Placed p = decidePlacement(task, target, dest, device);
            canonical = p.canonical;
            if (p.toHost) {
                protoStat("placement.host_steered", dest);
                dest = hostSide;
            } else if (p.device != dest) {
                protoStat("placement.rebalanced", p.device);
                dest = p.device;
            }
            dispatch = p.va;
        }

        _stats.inc(dest == hostSide ? "nxp_to_host_calls"
                                    : "nxp_to_nxp_calls");
        tracePoint(TracePoint::nxpDescBuild, pid, id, device, target);

        // Build the NxP->host call descriptor from the faulting call's
        // argument registers (Listing 2 lines 3-4).
        MigrationDescriptor d;
        d.kind = DescriptorKind::nxpToHostCall;
        d.pid = static_cast<std::uint32_t>(pid);
        d.target = dispatch;
        d.cr3 = task.cr3;
        d.nargs = MigrationDescriptor::maxArgs;
        for (unsigned i = 0; i < MigrationDescriptor::maxArgs; ++i)
            d.args[i] = core.arg(i);

        // Save the thread's NxP context (the context switch to the NxP
        // scheduler); the device core frees up once the send completes.
        task.nxpSavedCtx.push_back(
            {device, core.saveContext(), core.stackPointer()});
        {
            CallFrame f{dest, device, _events.now()};
            f.canonical = canonical;
            w.frames.push_back(f);
        }

        if (_extraRoundTrip) {
            after(_extraRoundTrip, [this, pid, id, d, device] {
                TaskExec *v = live(pid, id);
                if (!v) {
                    releaseNxp(device);
                    return;
                }
                deviceSendToHost(*v, d, device);
            });
        } else {
            deviceSendToHost(w, d, device);
        }
    });
}

void
MigrationEngine::deviceSendToHost(TaskExec &x, MigrationDescriptor d,
                                  unsigned device)
{
    d.callId = x.id;
    after(nxpCycles(device, _timing.nxpDescriptorCycles) +
              _timing.nxpToNxpDram,
          [this, d, device] {
        // Context switch to the NxP scheduler, ring the DMA doorbell.
        after(nxpCycles(device, _timing.nxpCtxSwitchCycles) +
                  _timing.nxpToLocalMmio,
              [this, d, device] {
            NxpSide &s = side(device);
            if (s.dead || s.health == DeviceHealth::quarantined) {
                // The device (or its link) was written off while the
                // send was being staged; nothing may enter the drained
                // rings. The waiting caller is failed by quarantine.
                protoStat("dropped_descriptors", device);
                releaseNxp(device);
                return;
            }
            if (s.d2h.full())
                s.d2hDeferred.push_back(d);
            else
                fireNxpToHost(d, device);
            releaseNxp(device);
        });
    });
}

void
MigrationEngine::fireNxpToHost(MigrationDescriptor d, unsigned device)
{
    NxpSide &s = side(device);
    d.seq = ++s.d2hSendSeq;
    unsigned slot = s.d2h.push();
    writeNxpOutbox(d, device, slot);
    tracePoint(TracePoint::dmaToHostStart, static_cast<int>(d.pid),
               d.callId, device);
    traceGauge(TraceGauge::d2hRing, device, s.d2h.inUse());
    int dpid = static_cast<int>(d.pid);
    std::uint64_t cid = d.callId;
    s.dma->copyNxpToHost(s.d2h.stagingPa(slot), s.d2h.mailboxPa(slot),
                         MigrationDescriptor::wireBytes,
                         static_cast<int>(s.irqVector),
                         [this, device, dpid, cid] {
                             NxpSide &t = side(device);
                             ++t.d2hLanded;
                             ++t.progress;
                             tracePoint(TracePoint::dmaToHostDone, dpid, cid,
                                        device);
                         });
    armD2hWatchdog(device, d.seq);
}

void
MigrationEngine::hostIrq(unsigned device)
{
    // The device raised the DMA-complete MSI: read the descriptor out
    // of the inbox ring, then let the IRQ handler find and wake the
    // suspended task.
    protoStat("host_irqs", device);
    NxpSide &s = side(device);
    if (s.d2hLanded == 0) {
        // A duplicated MSI, or one whose descriptor the watchdog has
        // already serviced: nothing unserviced has landed.
        protoStat("spurious_irqs", device);
        return;
    }
    processHostInbox(device);
}

void
MigrationEngine::processHostInbox(unsigned device)
{
    NxpSide &s = side(device);
    unsigned slot = s.d2h.front();
    MigrationDescriptor::Wire w = readHostInboxWire(device, slot);
    MigrationDescriptor d;
    bool ok = MigrationDescriptor::wireIntact(w);
    if (ok) {
        d = MigrationDescriptor::fromWire(w);
        ok = d.seq == s.d2hAcceptSeq + 1;
        if (!ok)
            protoStat("seq_mismatches", device);
    }
    if (!ok) {
        nakD2h(device);
        return;
    }
    s.d2hAcceptSeq = d.seq;
    s.d2hRetries = 0;
    ++s.progress;
    --s.d2hLanded;
    s.d2h.pop();
    traceGauge(TraceGauge::d2hRing, device, s.d2h.inUse());
    if (!s.d2hDeferred.empty() && !s.d2h.full()) {
        MigrationDescriptor dd = s.d2hDeferred.front();
        s.d2hDeferred.pop_front();
        fireNxpToHost(dd, device);
    }
    after(_timing.irqWake, [this, d, device] {
        int pid = static_cast<int>(d.pid);
        TaskExec *x = live(pid, d.callId);
        if (!x) {
            // The call this return belongs to is gone (failed,
            // cancelled, already failed over).
            protoStat("stale_descriptors", device);
            return;
        }
        if (x->pendingFallback || x->task->state != TaskState::onNxp) {
            // The thread was already rescued out of its suspension
            // (host fallback in flight); this straggler return must
            // not wake it a second time.
            protoStat("stale_descriptors", device);
            return;
        }
        _kernel.wake(*x->task);
        tracePoint(TracePoint::hostWake, pid, d.callId, device);
        x->pendingWake = true;
        x->wakeDesc = d;
        _kernel.enqueueRunnable(*x->task);
        kickHost();
    });
}

// --- Link integrity (NAK / retransmit / timeout) -------------------------

void
MigrationEngine::nakH2d(unsigned device)
{
    NxpSide &s = side(device);
    protoStat("naks", device);
    if (++s.h2dRetries > _retryBudget)
        unrecoverable("host->NxP", device);
    protoStat("retries", device);
    // The corrupt arrival is consumed; the retransmission will signal a
    // fresh one. The host's staging copy of the head slot is intact, so
    // the NAK just replays its DMA burst.
    s.platform->consumeInbox();
    unsigned slot = s.h2d.front();
    NxpPlatform *platform = s.platform;
    protoStat("doorbell_writes", device);
    s.dma->copyHostToNxp(s.h2d.stagingPa(slot), s.h2d.mailboxPa(slot),
                         MigrationDescriptor::wireBytes,
                         [this, platform, device] {
                             platform->inboxArrived();
                             kickNxp(device);
                         });
    releaseNxp(device);
}

void
MigrationEngine::nakD2h(unsigned device)
{
    NxpSide &s = side(device);
    protoStat("naks", device);
    if (++s.d2hRetries > _retryBudget)
        unrecoverable("NxP->host", device);
    protoStat("retries", device);
    // The landed copy is trash; replay the outbox slot's burst. The
    // watchdog armed at first fire keeps covering the retransmission's
    // MSI, which may itself be lost.
    --s.d2hLanded;
    unsigned slot = s.d2h.front();
    s.dma->copyNxpToHost(s.d2h.stagingPa(slot), s.d2h.mailboxPa(slot),
                         MigrationDescriptor::wireBytes,
                         static_cast<int>(s.irqVector),
                         [this, device] { ++side(device).d2hLanded; });
}

void
MigrationEngine::armD2hWatchdog(unsigned device, std::uint64_t seq)
{
    // Without fault injection MSIs cannot be lost; leave the event
    // stream untouched so fault-free runs stay tick-for-tick identical.
    if (!_chaos || !_chaos->enabled())
        return;
    _events.scheduleIn(_timing.descriptorTimeout, "d2h-watchdog",
                       [this, device, seq] {
        NxpSide &s = side(device);
        if (s.d2hAcceptSeq >= seq)
            return; // serviced in time; disarm
        if (s.d2hLanded == 0) {
            // Still in flight (delayed burst or pending retransmission);
            // keep watching.
            armD2hWatchdog(device, seq);
            return;
        }
        // The descriptor landed but its MSI never arrived: the driver's
        // poll finds and services it.
        protoStat("timeouts", device);
        processHostInbox(device);
        if (side(device).d2hAcceptSeq < seq)
            armD2hWatchdog(device, seq); // NAKed; watch the retry
    });
}

void
MigrationEngine::unrecoverable(const char *link, unsigned device)
{
    fatal("unrecoverable fabric fault: descriptor on the %s link of "
          "NxP %u still corrupt after %u retransmissions%s",
          link, device, _retryBudget,
          _chaos ? strfmt(" (chaos seed %llu)",
                          (unsigned long long)_chaos->seed())
                       .c_str()
                 : "");
}

// --- Device health, deadlines and failover -------------------------------

void
MigrationEngine::killDevice(unsigned device)
{
    NxpSide &s = side(device);
    s.dead = true;
    s.segmentEnd = _events.now();
    _stats.inc("devices_killed");
    armHeartbeat();
}

bool
MigrationEngine::cancelCall(int pid)
{
    auto qit = _qosQueuedPid.find(pid);
    if (qit != _qosQueuedPid.end()) {
        // The call never entered the engine; lift it straight out of
        // its tenant's submission queue.
        cancelQueuedCall(pid, qit->second);
        return true;
    }
    auto it = _exec.find(pid);
    if (it == _exec.end() || it->second.future->done)
        return false;
    failCall(it->second, CallStatus::cancelled);
    return true;
}

void
MigrationEngine::armHeartbeat()
{
    if (_heartbeatArmed)
        return;
    _heartbeatArmed = true;
    _events.scheduleIn(_timing.deviceHeartbeat, "device-heartbeat",
                       [this] { heartbeat(); });
}

void
MigrationEngine::heartbeat()
{
    Tick now = _events.now();

    // Deadlines first: a stalled call on a wedged device should report
    // deadlineExceeded when the caller asked for a bound, even if the
    // same beat would also quarantine the device.
    std::vector<int> late;
    for (const auto &kv : _exec) {
        if (kv.second.deadline && now >= kv.second.deadline)
            late.push_back(kv.first);
    }
    for (int pid : late) {
        auto it = _exec.find(pid);
        if (it != _exec.end())
            failCall(it->second, CallStatus::deadlineExceeded);
    }

    // Then per-device progress: a device owing work must show forward
    // progress between beats, unless its core is legitimately inside a
    // long segment whose retirement is already scheduled.
    for (unsigned dev = 0; dev < _nxp.size(); ++dev) {
        NxpSide &s = _nxp[dev];
        if (s.health == DeviceHealth::quarantined)
            continue;
        bool outstanding = !deviceIdle(s);
        bool advanced = s.progress != s.lastProgress;
        s.lastProgress = s.progress;
        if (!outstanding || advanced || (s.busy && now < s.segmentEnd)) {
            s.strikes = 0;
            if (s.health == DeviceHealth::suspect) {
                s.health = DeviceHealth::healthy;
                protoStat("health_recoveries", dev);
            }
            continue;
        }
        strike(dev);
    }

    // Keep beating while calls are in flight; a later submit or
    // killDevice re-arms an idle watchdog.
    _heartbeatArmed = false;
    if (!_exec.empty())
        armHeartbeat();
}

void
MigrationEngine::strike(unsigned device)
{
    NxpSide &s = side(device);
    ++s.strikes;
    protoStat("health_strikes", device);
    if (s.health == DeviceHealth::healthy)
        s.health = DeviceHealth::suspect;
    if (s.strikes >= _strikeLimit)
        quarantineDevice(device);
}

bool
MigrationEngine::deviceIdle(const NxpSide &s) const
{
    return !s.busy && s.h2d.empty() && s.d2h.empty() &&
           s.h2dDeferred.empty() && s.d2hDeferred.empty() &&
           s.platform->pendingInbox() == 0 && !s.dma->busy();
}

void
MigrationEngine::quarantineDevice(unsigned device)
{
    NxpSide &s = side(device);
    if (s.health == DeviceHealth::quarantined)
        return;
    s.health = DeviceHealth::quarantined;
    protoStat("quarantines", device);
    if (_qos.enabled) {
        // The capacity the fabric just lost propagates into admission:
        // effectiveTenantBudget() shrinks with the alive-device count,
        // and this counter's _dev# split records who took it away.
        protoStat("qos.capacity_lost", device);
    }

    // Nothing staged for or by the device will ever be serviced again:
    // drop the in-flight rings, the backpressure queues and any landed-
    // but-unserviced returns, then fail every call that depends on it.
    s.h2d.drain();
    s.d2h.drain();
    s.h2dDeferred.clear();
    s.d2hDeferred.clear();
    s.d2hLanded = 0;

    // failCall erases from _exec, so sweep over a PID snapshot.
    std::vector<int> pids;
    for (const auto &kv : _exec) {
        if (execTouches(kv.second, device))
            pids.push_back(kv.first);
    }
    for (int pid : pids) {
        auto it = _exec.find(pid);
        if (it != _exec.end())
            failCall(it->second, CallStatus::deviceLost);
    }
}

bool
MigrationEngine::execTouches(const TaskExec &x, unsigned device) const
{
    for (const CallFrame &f : x.frames) {
        if (f.callee == device || f.caller == device)
            return true;
    }
    for (const auto &ctx : x.task->nxpSavedCtx) {
        if (ctx.device == device)
            return true;
    }
    return false;
}

void
MigrationEngine::failCall(TaskExec &x, CallStatus status)
{
    if (x.future->done)
        return;
    unsigned dev = execDevice(x);
    if (status == CallStatus::deviceLost && canFailover(x)) {
        scheduleFallback(x);
        return;
    }

    x.future->value = 0;
    x.future->status = status;
    x.future->done = true;
    _stats.inc("calls_failed");
    tracePoint(TracePoint::callFailed, x.task->pid, x.id,
               dev == hostSide ? 0 : dev, static_cast<std::uint64_t>(status));
    switch (status) {
      case CallStatus::cancelled:
        failStat("cancellations", dev);
        break;
      case CallStatus::deadlineExceeded:
        failStat("deadline_exceeded", dev);
        break;
      case CallStatus::deviceLost:
        failStat("device_lost", dev);
        break;
      default:
        panic("failCall with status %s", callStatusName(status));
    }

    // Unwind the thread's migration bookkeeping so the task object is
    // reusable (resubmit, teardown). In-flight continuations and
    // descriptors of this call die against the generation token.
    Task &task = *x.task;
    bool was_qos = x.qosAdmitted;
    unsigned tenant = x.tenant;
    _kernel.removeFromRunQueue(task);
    _kernel.abortMigration(task);
    task.nxpSavedCtx.clear();
    _exec.erase(task.pid);
    traceGauge(TraceGauge::inFlightCalls, 0, _exec.size());
    if (was_qos) {
        // Failed calls free the tenant's budget slot like completions,
        // but deliberately don't feed the cost model — a deadline kill
        // or device loss is not a service-time sample.
        _tenants.onRetire(tenant);
        pumpQosQueues();
    }
}

bool
MigrationEngine::canFailover(const TaskExec &x) const
{
    if (!_hostFallback || x.frames.empty())
        return false;
    const CallFrame &top = x.frames.back();
    if (top.callee == hostSide || top.callee >= _nxp.size())
        return false;
    if (top.target == 0) // descriptor never built: nothing to re-run
        return false;
    unsigned device = top.callee;
    // Only a leaf call is safely re-executable: the thread must be
    // suspended waiting for exactly this call, with no deeper frame and
    // no saved execution context on the lost device (those would mean
    // partially-executed state we cannot reconstruct).
    if (x.task->state != TaskState::onNxp || x.pendingWake ||
        x.pendingFallback)
        return false;
    for (std::size_t i = 0; i + 1 < x.frames.size(); ++i) {
        if (x.frames[i].callee == device || x.frames[i].caller == device)
            return false;
    }
    for (const auto &ctx : x.task->nxpSavedCtx) {
        if (ctx.device == device)
            return false;
    }
    return fallbackVa(x.task->cr3, top.target) != 0;
}

void
MigrationEngine::scheduleFallback(TaskExec &x)
{
    CallFrame &top = x.frames.back();
    protoStat("failovers", top.callee);
    // The frame becomes a host-executed call; its recorded target and
    // arguments drive the re-dispatch once the thread gets the core.
    top.callee = hostSide;
    x.pendingFallback = true;
    _kernel.wake(*x.task);
    _kernel.enqueueRunnable(*x.task);
    kickHost();
}

unsigned
MigrationEngine::execDevice(const TaskExec &x) const
{
    for (auto it = x.frames.rbegin(); it != x.frames.rend(); ++it) {
        if (it->callee != hostSide)
            return it->callee;
        if (it->caller != hostSide)
            return it->caller;
    }
    return hostSide;
}

} // namespace flick
