/**
 * @file
 * The kernel model: task table, fault classification, suspend/wake.
 *
 * Stands in for the paper's < 2 kLoC of Linux modifications: the NX page
 * fault hook, the migration ioctl driver, the TASK_KILLABLE suspension and
 * the scheduler's migration-flag handling. Application code runs in the
 * interpreters and faults architecturally; this layer decides what a fault
 * means and keeps the books. Its costs are charged by the migration
 * runtime from TimingConfig (see DESIGN.md's substitution table).
 */

#ifndef FLICK_OS_KERNEL_HH
#define FLICK_OS_KERNEL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/isa.hh"
#include "os/task.hh"
#include "sim/stats.hh"
#include "vm/fault.hh"

namespace flick
{

class EventQueue;
class Tracer;
enum class TracePoint : std::uint8_t;

/** What the fault handler decides to do with a fetch fault. */
enum class FaultAction
{
    migrateToNxp,  //!< Host fetched NX-marked (NxP) text: Flick call.
    migrateToHost, //!< NxP fetched host text: Flick call back.
    deliverSignal, //!< Genuine fault: would SIGSEGV/SIGILL the task.
};

/**
 * Task table and Flick's kernel-side decisions.
 */
class Kernel
{
  public:
    Kernel() : _stats("kernel") {}

    /** Create a task in @p cr3's address space. */
    Task &createTask(Addr cr3);

    /**
     * Create an additional thread in an existing address space (what
     * pthread_create would do): same CR3, fresh PID, fresh NxP stack
     * slots. The caller provides the thread's host stack.
     */
    Task &createThread(Addr cr3, VAddr host_stack_top,
                       std::uint64_t host_stack_bytes);

    /** Mark @p task exited. It must not be mid-migration. */
    void exitTask(Task &task);

    /** Look up a task by PID (the IRQ wake path), or nullptr. */
    Task *findTask(int pid);

    // --- Host run queue -------------------------------------------------
    //
    // The scheduler's FIFO of threads that want the host core: freshly
    // submitted calls and threads woken by a migration-return interrupt.
    // The migration engine (standing in for the CPU scheduler loop)
    // pops from it whenever the host core goes idle.

    /** Append @p task to the host run queue. */
    void enqueueRunnable(Task &task);

    /** Pop the next queued task, or nullptr if the queue is empty. */
    Task *nextRunnable();

    /** Number of tasks queued for the host core. */
    std::size_t
    runQueueDepth() const
    {
        return _runQueue.size() - _runHead;
    }

    /**
     * Remove every queued occurrence of @p task (its call failed or was
     * cancelled while waiting for the host core).
     */
    void removeFromRunQueue(Task &task);

    /**
     * A failed or cancelled migration: return @p task from its
     * suspended/woken migration state to plain running, clearing the
     * pending DMA trigger. No-op for a task that is not mid-migration.
     */
    void abortMigration(Task &task);

    /**
     * Classify a fetch fault, as the modified page fault handler does.
     *
     * @param fault The architectural fault raised by the core.
     * @param core_isa ISA of the faulting core.
     */
    FaultAction classifyFetchFault(Fault fault, IsaKind core_isa);

    /**
     * Suspend @p task TASK_KILLABLE for migration: save the host context,
     * set the migration flag, and account the context switch. The caller
     * (the ioctl path) must trigger the descriptor DMA only after this
     * returns — the ordering the paper's scheduler flag enforces.
     */
    void suspendForMigration(Task &task, const CoreContext &host_context);

    /**
     * Consume the migration flag, as the scheduler does right after
     * switching away; returns whether a DMA trigger is owed.
     */
    bool takeMigrationTrigger(Task &task);

    /** IRQ wake path: mark @p task runnable. */
    void wake(Task &task);

    /** Scheduler picked the task back up; returns the saved context. */
    const CoreContext &resume(Task &task);

    StatGroup &stats() { return _stats; }

    /**
     * Attach the tracer (and the clock it timestamps with); the kernel
     * then emits instant markers at suspend/wake/resume. Passive — the
     * kernel's behaviour and accounting are unchanged.
     */
    void
    setTracer(Tracer *tracer, const EventQueue *events)
    {
        _tracer = tracer;
        _traceClock = events;
    }

  private:
    void traceInstant(TracePoint p, const Task &task);

    int _nextPid = 1000;
    std::vector<std::unique_ptr<Task>> _tasks;
    //! FIFO of runnable tasks: [_runHead, end) is queued. The vector is
    //! cleared when it drains and compacted when its consumed prefix
    //! dominates, so steady-state wake-ups allocate nothing.
    std::vector<Task *> _runQueue;
    std::size_t _runHead = 0;
    StatGroup _stats;
    // Bumped once per crossing, so resolved once (DESIGN.md §17).
    StatGroup::Counter _nxFaults{_stats, "nx_faults"};
    StatGroup::Counter _nxpFetchFaults{_stats, "nxp_fetch_faults"};
    StatGroup::Counter _suspensions{_stats, "suspensions"};
    StatGroup::Counter _dmaTriggers{_stats, "dma_triggers"};
    StatGroup::Counter _wakeups{_stats, "wakeups"};
    StatGroup::Counter _resumes{_stats, "resumes"};
    Tracer *_tracer = nullptr;
    const EventQueue *_traceClock = nullptr;
};

} // namespace flick

#endif // FLICK_OS_KERNEL_HH
