/**
 * @file
 * Task (thread) state.
 *
 * Mirrors the fields Flick adds to the Linux task_struct: the saved
 * faulting address (the NxP function the thread tried to call), the NxP
 * stack pointer whose NULL-ness signals a first migration (Listing 1),
 * and the "migration" flag that tells the scheduler to fire the
 * descriptor DMA only after the thread is context-switched away
 * (Section IV-D).
 */

#ifndef FLICK_OS_TASK_HH
#define FLICK_OS_TASK_HH

#include <cstdint>
#include <vector>

#include "isa/isa.hh"
#include "vm/pte.hh"

namespace flick
{

/**
 * Per-device NxP stack tops of one thread, growing on demand: indexing a
 * device the thread never migrated to reads as 0 (the "no stack yet"
 * sentinel of Listing 1) without pre-sizing for a device count.
 */
class NxpStackTops
{
  public:
    /** Writable slot for @p device; grows the table as needed. */
    VAddr &
    operator[](unsigned device)
    {
        if (device >= _tops.size())
            _tops.resize(device + 1, 0);
        return _tops[device];
    }

    /** Read @p device's stack top; 0 if never allocated. */
    VAddr
    operator[](unsigned device) const
    {
        return device < _tops.size() ? _tops[device] : 0;
    }

    /** Number of device slots ever touched. */
    unsigned size() const { return static_cast<unsigned>(_tops.size()); }

  private:
    std::vector<VAddr> _tops;
};

/** Scheduling state of a task. */
enum class TaskState
{
    created,   //!< Not yet started.
    running,   //!< Executing on the host core.
    onNxp,     //!< Migrated; suspended TASK_KILLABLE on the host.
    runnable,  //!< Woken by an interrupt, waiting for the scheduler.
    done,      //!< Exited.
};

/**
 * Saved NxP execution state for one nesting level — the thread's context
 * as that device's scheduler would hold it on the thread's NxP stack
 * while the thread is away running host (or another device's) code.
 */
struct NxpSavedContext
{
    unsigned device;
    CoreContext context;
    std::uint64_t sp;
};

/** One software thread. */
struct Task
{
    int pid = 0;
    Addr cr3 = 0;
    TaskState state = TaskState::created;

    /**
     * Top of this thread's NxP-local stack on each device; 0 until the
     * first migration there allocates it (Listing 1 lines 3-4).
     */
    NxpStackTops nxpStackTop;
    std::uint64_t nxpStackBytes = 0;

    /** Faulting address saved by the modified page fault handler. */
    VAddr savedFaultAddr = 0;

    /**
     * Set before suspension so the scheduler triggers the descriptor DMA
     * after the context switch (the race-condition fix of Section IV-D).
     */
    bool migrationFlag = false;

    /** Host register context saved while suspended. */
    CoreContext hostContext{};

    /**
     * NxP contexts saved per nesting level while this thread is away
     * from a device mid-call (the per-task piece of the run-list
     * scheduling: the device core is free for other threads while these
     * are parked here).
     */
    std::vector<NxpSavedContext> nxpSavedCtx;

    /** Top of this thread's host stack (set when the thread is created). */
    VAddr hostStackTop = 0;
    /** Bytes of host stack owned by this thread (0: process main stack). */
    std::uint64_t hostStackBytes = 0;

    /** Completed thread-migration round trips. */
    std::uint64_t migrations = 0;
};

} // namespace flick

#endif // FLICK_OS_TASK_HH
