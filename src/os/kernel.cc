#include "os/kernel.hh"

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace flick
{

Task &
Kernel::createTask(Addr cr3)
{
    auto task = std::make_unique<Task>();
    task->pid = _nextPid++;
    task->cr3 = cr3;
    _tasks.push_back(std::move(task));
    _stats.inc("tasks_created");
    return *_tasks.back();
}

Task &
Kernel::createThread(Addr cr3, VAddr host_stack_top,
                     std::uint64_t host_stack_bytes)
{
    Task &t = createTask(cr3);
    t.hostStackTop = host_stack_top;
    t.hostStackBytes = host_stack_bytes;
    _stats.inc("threads_spawned");
    return t;
}

void
Kernel::exitTask(Task &task)
{
    if (task.state == TaskState::onNxp || task.state == TaskState::runnable)
        panic("exitTask of task %d mid-migration (state %d)", task.pid,
              static_cast<int>(task.state));
    if (!task.nxpSavedCtx.empty())
        panic("exitTask of task %d with %zu saved NxP contexts", task.pid,
              task.nxpSavedCtx.size());
    task.state = TaskState::done;
    _stats.inc("tasks_exited");
}

void
Kernel::enqueueRunnable(Task &task)
{
    _runQueue.push_back(&task);
}

Task *
Kernel::nextRunnable()
{
    if (_runHead == _runQueue.size())
        return nullptr;
    Task *t = _runQueue[_runHead++];
    if (_runHead == _runQueue.size()) {
        _runQueue.clear();
        _runHead = 0;
    } else if (_runHead >= 64 && 2 * _runHead >= _runQueue.size()) {
        _runQueue.erase(_runQueue.begin(), _runQueue.begin() + _runHead);
        _runHead = 0;
    }
    return t;
}

void
Kernel::removeFromRunQueue(Task &task)
{
    for (auto it = _runQueue.begin() + _runHead; it != _runQueue.end();) {
        if (*it == &task) {
            it = _runQueue.erase(it);
            _stats.inc("runqueue_removals");
        } else {
            ++it;
        }
    }
}

void
Kernel::abortMigration(Task &task)
{
    if (task.state == TaskState::onNxp ||
        task.state == TaskState::runnable) {
        task.state = TaskState::running;
        _stats.inc("migrations_aborted");
    }
    task.migrationFlag = false;
}

Task *
Kernel::findTask(int pid)
{
    for (auto &t : _tasks) {
        if (t->pid == pid)
            return t.get();
    }
    return nullptr;
}

FaultAction
Kernel::classifyFetchFault(Fault fault, IsaKind core_isa)
{
    if (core_isa == IsaKind::hx64) {
        // Host side: only the NX instruction fault means "call an NxP
        // function"; everything else is a real fault.
        if (fault == Fault::nxFetch) {
            _nxFaults.inc();
            return FaultAction::migrateToNxp;
        }
    } else {
        // NxP side: both the inverted-NX fetch fault and the misaligned
        // instruction exception indicate host text (Section IV-B2).
        if (fault == Fault::nonNxFetch || fault == Fault::misalignedFetch) {
            _nxpFetchFaults.inc();
            return FaultAction::migrateToHost;
        }
    }
    _stats.inc("signal_faults");
    return FaultAction::deliverSignal;
}

void
Kernel::traceInstant(TracePoint p, const Task &task)
{
    if (_tracer && _traceClock)
        _tracer->point(p, _traceClock->now(), task.pid, 0);
}

void
Kernel::suspendForMigration(Task &task, const CoreContext &host_context)
{
    if (task.state != TaskState::running && task.state != TaskState::created)
        panic("suspendForMigration of task %d in state %d", task.pid,
              static_cast<int>(task.state));
    task.hostContext = host_context;
    task.migrationFlag = true;
    task.state = TaskState::onNxp;
    _suspensions.inc();
    traceInstant(TracePoint::kernelSuspend, task);
}

bool
Kernel::takeMigrationTrigger(Task &task)
{
    if (!task.migrationFlag)
        return false;
    task.migrationFlag = false;
    _dmaTriggers.inc();
    return true;
}

void
Kernel::wake(Task &task)
{
    if (task.state != TaskState::onNxp)
        panic("wake of task %d in state %d", task.pid,
              static_cast<int>(task.state));
    task.state = TaskState::runnable;
    _wakeups.inc();
    traceInstant(TracePoint::kernelWake, task);
}

const CoreContext &
Kernel::resume(Task &task)
{
    if (task.state != TaskState::runnable)
        panic("resume of task %d in state %d", task.pid,
              static_cast<int>(task.state));
    task.state = TaskState::running;
    _resumes.inc();
    traceInstant(TracePoint::kernelResume, task);
    return task.hostContext;
}

} // namespace flick
