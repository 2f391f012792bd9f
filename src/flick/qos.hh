/**
 * @file
 * Multi-tenant QoS and overload protection (DESIGN.md §14).
 *
 * Each loaded process (address space, keyed by its cr3) is a tenant.
 * With QoS enabled, submit() becomes a guarded front door in front of
 * the migration engine:
 *
 *   - a deadline-aware admission test estimates the call's completion
 *     time (policy EWMAs / the QoS cost model / the analytic crossing
 *     floor, plus the tenant's backlog) and sheds calls that cannot
 *     meet their deadline before they occupy ring slots;
 *   - each tenant has an in-flight budget (scaled down when devices are
 *     quarantined — capacity loss propagates into admission); calls
 *     over budget wait in the tenant's bounded submission queue;
 *   - freed capacity is handed out by weighted fair dequeue across the
 *     tenant queues, so a bursty tenant cannot starve a well-behaved
 *     one.
 *
 * Every refusal completes the future immediately with
 * CallStatus::shedLoad and a ShedReason, without allocating a call
 * frame, touching a descriptor ring or scheduling an event. With QoS
 * disabled (the default) none of this code runs and every workload is
 * tick-for-tick identical to a build without the subsystem
 * (tests/qos_test.cpp asserts it).
 */

#ifndef FLICK_FLICK_QOS_HH
#define FLICK_FLICK_QOS_HH

#include <cstdint>
#include <map>
#include <vector>

#include "flick/call_future.hh"
#include "mem/sparse_memory.hh"
#include "sim/ticks.hh"

namespace flick
{

/**
 * Tunables of the multi-tenant QoS layer (SystemConfig::withQos).
 */
struct QosConfig
{
    /** Master switch; off means zero overhead and tick-identity. */
    bool enabled = false;
    /**
     * Per-tenant in-flight budget: calls admitted into the engine but
     * not yet completed. A tenant at its budget queues (or sheds, see
     * tenantQueueCap) instead of admitting more. Quarantined devices
     * shrink the effective budget proportionally to the capacity lost.
     */
    unsigned tenantInFlight = 4;
    /**
     * Pending slots in each tenant's submission queue. An over-budget
     * arrival finding the queue full is shed with ShedReason::queueFull;
     * 0 disables queueing entirely, so every over-budget arrival is
     * shed immediately with ShedReason::tenantOverBudget.
     */
    unsigned tenantQueueCap = 16;
    /**
     * Shed calls whose estimated completion time misses their deadline
     * at admission time (and re-check at dequeue). Only calls that
     * carry a deadline (per-call or SystemConfig::callDeadline) are
     * tested; deadline-less calls always pass.
     */
    bool deadlineAdmission = true;
    /**
     * Weighted-fair-dequeue weight per tenant, indexed by tenant id
     * (the order processes were loaded). Absent / zero entries default
     * to weight 1. A tenant with weight w receives w shares of freed
     * capacity per share a weight-1 tenant receives.
     */
    std::vector<unsigned> tenantWeights;
    /**
     * Starvation bound: an eligible tenant (queued work, under budget)
     * passed over this many consecutive served dequeues is picked next
     * regardless of its weighted-fair virtual time, so every queued
     * tenant is served within a bounded number of dequeues even while
     * fresh low-virtual-time tenants keep arriving. 0 disables aging
     * (pure WFQ, unbounded worst-case wait).
     */
    unsigned agingDequeues = 64;

    /** Weight of @p tenant (defaulting absent/zero entries to 1). */
    unsigned
    weight(unsigned tenant) const
    {
        if (tenant < tenantWeights.size() && tenantWeights[tenant])
            return tenantWeights[tenant];
        return 1;
    }

    /** Set @p tenant's weight (growing the table as needed). */
    QosConfig &
    setWeight(unsigned tenant, unsigned w)
    {
        if (tenantWeights.size() <= tenant)
            tenantWeights.resize(tenant + 1, 0);
        tenantWeights[tenant] = w;
        return *this;
    }
};

/**
 * Tenant registry, in-flight accounting and the weighted-fair pick.
 *
 * Owned by the MigrationEngine; the engine keeps the queued calls
 * themselves (they hold engine-internal state) and asks the scheduler
 * which tenant's queue to serve next. Fairness is start-time weighted
 * fair queuing over served call counts: the eligible tenant with the
 * smallest served/weight virtual time wins, ties broken by tenant id,
 * so the dequeue order is deterministic.
 */
class TenantScheduler
{
  public:
    /** Tenant id of @p cr3, registering it on first sight. */
    unsigned
    tenantOf(Addr cr3)
    {
        auto it = _index.find(cr3);
        if (it != _index.end())
            return it->second;
        unsigned id = static_cast<unsigned>(_tenants.size());
        _index.emplace(cr3, id);
        _tenants.push_back(Tenant{cr3});
        return id;
    }

    /** Registered tenant count. */
    unsigned count() const { return static_cast<unsigned>(_tenants.size()); }

    /** cr3 of @p tenant. */
    Addr cr3Of(unsigned tenant) const { return _tenants[tenant].cr3; }

    unsigned inFlight(unsigned t) const { return _tenants[t].inFlight; }
    unsigned queued(unsigned t) const { return _tenants[t].queued; }

    /** A call of @p tenant entered the engine. */
    void onAdmit(unsigned tenant) { ++_tenants[tenant].inFlight; }

    /** A call of @p tenant completed or failed inside the engine. */
    void
    onRetire(unsigned tenant)
    {
        if (_tenants[tenant].inFlight)
            --_tenants[tenant].inFlight;
    }

    void onEnqueue(unsigned tenant) { ++_tenants[tenant].queued; }

    /** A queued call of @p tenant left the queue (any outcome). */
    void
    onDequeue(unsigned tenant)
    {
        Tenant &t = _tenants[tenant];
        if (t.queued)
            --t.queued;
    }

    /**
     * Charge one served dequeue to @p tenant's weighted-fair virtual
     * time. Only dequeues that actually admit a call are charged —
     * a cancel or a dequeue-time shed does not consume the tenant's
     * share.
     */
    void charge(unsigned tenant) { ++_tenants[tenant].served; }

    /**
     * The weighted-fair choice: among tenants with queued work whose
     * in-flight count is under @p budget_of(tenant), the one with the
     * smallest served/weight virtual time (ties to the lower id);
     * -1 when no tenant is eligible.
     *
     * Aging (@p aging_dequeues > 0) bounds the worst-case wait: every
     * successful pick increments the eligible tenants it passed over,
     * and a tenant whose counter reaches the bound preempts the
     * virtual-time order on the next pick (largest counter wins, ties
     * to the lower id). Pure WFQ can starve a high-virtual-time tenant
     * indefinitely while fresh tenants keep arriving with served == 0;
     * with aging, an eligible tenant is served within aging_dequeues + 1
     * dequeues of becoming eligible (tests/qos_test.cpp asserts it).
     */
    template <typename BudgetFn, typename WeightFn>
    int
    pick(BudgetFn budget_of, WeightFn weight_of,
         unsigned aging_dequeues = 0)
    {
        int best = -1;
        int starved = -1;
        _lastPickAged = false;
        for (unsigned t = 0; t < _tenants.size(); ++t) {
            const Tenant &c = _tenants[t];
            if (!c.queued || c.inFlight >= budget_of(t))
                continue;
            if (aging_dequeues && c.waiting >= aging_dequeues &&
                (starved < 0 ||
                 c.waiting > _tenants[static_cast<unsigned>(starved)].waiting))
                starved = static_cast<int>(t);
            if (best < 0) {
                best = static_cast<int>(t);
                continue;
            }
            // c wins if c.served/c.weight < best.served/best.weight,
            // cross-multiplied to stay in integers.
            const Tenant &b = _tenants[static_cast<unsigned>(best)];
            std::uint64_t lhs = c.served * weight_of(static_cast<unsigned>(best));
            std::uint64_t rhs = b.served * weight_of(t);
            if (lhs < rhs)
                best = static_cast<int>(t);
        }
        if (starved >= 0 && starved != best) {
            best = starved;
            _lastPickAged = true;
        } else if (starved >= 0) {
            // The starved tenant won on virtual time anyway; its
            // counter still resets below.
            _lastPickAged = true;
        }
        if (best >= 0) {
            for (unsigned t = 0; t < _tenants.size(); ++t) {
                Tenant &c = _tenants[t];
                if (static_cast<int>(t) == best) {
                    c.waiting = 0;
                    continue;
                }
                if (c.queued && c.inFlight < budget_of(t))
                    ++c.waiting;
            }
        }
        return best;
    }

    /** Did the last successful pick() come from aging preemption? */
    bool lastPickAged() const { return _lastPickAged; }

  private:
    struct Tenant
    {
        Addr cr3 = 0;
        unsigned inFlight = 0; //!< Admitted into the engine, not retired.
        unsigned queued = 0;   //!< Waiting in the submission queue.
        std::uint64_t served = 0; //!< Dequeues charged (WFQ virtual time).
        //! Served picks this eligible tenant was passed over (aging).
        unsigned waiting = 0;
    };

    std::vector<Tenant> _tenants;
    std::map<Addr, unsigned> _index;
    bool _lastPickAged = false;
};

} // namespace flick

#endif // FLICK_FLICK_QOS_HH
