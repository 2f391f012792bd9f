/**
 * @file
 * CallFuture: the handle for an in-flight cross-ISA call.
 *
 * FlickSystem::submit() starts a call and returns immediately; the
 * returned CallFuture resolves when the call's root function returns.
 * wait() drives the simulated machine (the shared event queue) forward,
 * so while one thread's call is blocked mid-migration every other
 * in-flight call keeps making progress — that is where the overlap
 * between concurrent migrating threads comes from.
 *
 * A call no longer either succeeds or kills the process: it completes
 * with an outcome. status() distinguishes a normal return (ok) from a
 * deadline expiry, a lost (quarantined) device and a user cancel();
 * value() is only meaningful when the status is ok.
 *
 * Lifecycle edges are well-defined:
 *  - Destroying an unwaited (or never-waited) future is a no-op; the
 *    call keeps running and its completion state simply has no observer.
 *  - wait() on an already-completed future returns immediately with the
 *    recorded value, so double wait() is safe.
 *  - A moved-from future is invalid (valid() is false); wait(), value()
 *    and cancel() on it panic/no-op exactly like on a default-
 *    constructed future.
 */

#ifndef FLICK_FLICK_CALL_FUTURE_HH
#define FLICK_FLICK_CALL_FUTURE_HH

#include <cstdint>
#include <memory>

#include "sim/ticks.hh"

namespace flick
{

class MigrationEngine;

/** Outcome of a submitted call. */
enum class CallStatus
{
    pending,          //!< Still in flight.
    ok,               //!< Root function returned normally.
    deadlineExceeded, //!< SystemConfig::callDeadline expired first.
    deviceLost,       //!< An NxP it depended on was quarantined.
    cancelled,        //!< CallFuture::cancel() tore it down.
    shedLoad,         //!< The QoS front door refused it (DESIGN.md §14).
};

/** Printable status name. */
const char *callStatusName(CallStatus status);

/** Why the QoS front door refused a call with status shedLoad
 *  (DESIGN.md §14). */
enum class ShedReason
{
    none,               //!< Not shed (status != shedLoad).
    queueFull,          //!< The tenant's submission queue is full.
    deadlineInfeasible, //!< Estimated completion misses the deadline.
    tenantOverBudget,   //!< Tenant at its in-flight budget, no queueing.
};

/** Shared completion state between the engine and the future. */
struct CallFutureState
{
    bool done = false;
    CallStatus status = CallStatus::pending;
    std::uint64_t value = 0;
    int pid = 0;
    ShedReason shedReason = ShedReason::none;
};

/**
 * Result handle for one submitted call.
 *
 * Copyable; all copies observe the same completion. A default-
 * constructed (or moved-from) future is invalid until assigned from
 * submit().
 */
class CallFuture
{
  public:
    CallFuture() = default;

    bool valid() const { return _state != nullptr; }

    /** True once the call completed (any status, not only ok). */
    bool done() const { return _state && _state->done; }

    /** The call's outcome; pending while in flight or invalid. */
    CallStatus
    status() const
    {
        return _state ? _state->status : CallStatus::pending;
    }

    /** PID of the thread executing the call. */
    int pid() const { return _state ? _state->pid : 0; }

    /** Why the call was shed; none unless status() is shedLoad. */
    ShedReason
    shedReason() const
    {
        return _state ? _state->shedReason : ShedReason::none;
    }

    /**
     * Drive the simulation until this call completes; returns the
     * call's return value (0 when the status is not ok — check
     * status()). Other in-flight calls progress concurrently. Safe to
     * call again on a completed future: it returns immediately.
     */
    std::uint64_t wait();

    /**
     * Like wait(), but gives up once at least @p ticks of simulated
     * time have passed (or the event queue runs dry). Returns done().
     * The call stays in flight after a false return; wait()/waitFor()
     * can be called again.
     */
    bool waitFor(Tick ticks);

    /**
     * Tear the in-flight call down: its future completes with status
     * cancelled and the engine unwinds the call's protocol state (any
     * descriptor still in flight is dropped on arrival). Returns true
     * if this call cancelled it, false if the call had already
     * completed (or the future is invalid). Cancelling never rescues
     * the call via host fallback — the caller asked for it to stop.
     */
    bool cancel();

    /** The return value; the call must be done(). */
    std::uint64_t value() const;

  private:
    friend class MigrationEngine;

    CallFuture(std::shared_ptr<CallFutureState> state,
               MigrationEngine *engine)
        : _state(std::move(state)), _engine(engine)
    {}

    std::shared_ptr<CallFutureState> _state;
    MigrationEngine *_engine = nullptr;
};

} // namespace flick

#endif // FLICK_FLICK_CALL_FUTURE_HH
