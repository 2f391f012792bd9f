/**
 * @file
 * The shared call-cost model (DESIGN.md §11, §14).
 *
 * One integer-EWMA latency model per (address space, function) pair,
 * used from two sides of the engine:
 *
 *   - ProfileGuidedPlacement smooths its per-function device/host round
 *     trips through CallCostModel::blend() — the same update rule the
 *     admission layer uses, so a latency both subsystems observe moves
 *     both estimates identically.
 *   - The QoS admission test (DESIGN.md §14) keeps a CallCostModel of
 *     end-to-end entry latencies: when the placement policy has no
 *     learned estimate for a callee, admission falls back to this model
 *     before resorting to the analytic crossingCostEstimate() floor.
 *
 * Like the placement policies, the model is deterministic and
 * side-effect free: record() and estimate() never allocate simulated
 * resources, never schedule events and never draw randomness.
 */

#ifndef FLICK_POLICY_COST_MODEL_HH
#define FLICK_POLICY_COST_MODEL_HH

#include <cstdint>
#include <map>
#include <utility>

#include "mem/sparse_memory.hh"
#include "policy/policy.hh"
#include "sim/ticks.hh"
#include "vm/pte.hh"

namespace flick
{

/**
 * Per-(cr3, va) latency EWMA store.
 */
class CallCostModel
{
  public:
    /**
     * The shared EWMA step: avg += (sample - avg) / 2^ewmaShift, in
     * signed integer arithmetic so the estimate converges from either
     * side. A zero @p avg (never seen) adopts the sample outright.
     */
    static Tick
    blend(Tick avg, Tick sample)
    {
        if (avg == 0)
            return sample;
        std::int64_t delta = static_cast<std::int64_t>(sample) -
                             static_cast<std::int64_t>(avg);
        return static_cast<Tick>(static_cast<std::int64_t>(avg) +
                                 (delta >> placement_tuning::ewmaShift));
    }

    /** Fold one measured latency for (cr3, va) into the model. */
    void
    record(Addr cr3, VAddr va, Tick latency)
    {
        Entry &e = _model[{cr3, va}];
        e.ewma = blend(e.ewma, latency);
        ++e.samples;
    }

    /** Learned latency estimate for (cr3, va); 0 = never seen. */
    Tick
    estimate(Addr cr3, VAddr va) const
    {
        auto it = _model.find({cr3, va});
        return it == _model.end() ? 0 : it->second.ewma;
    }

    /** Number of samples folded in for (cr3, va). */
    std::uint64_t
    samples(Addr cr3, VAddr va) const
    {
        auto it = _model.find({cr3, va});
        return it == _model.end() ? 0 : it->second.samples;
    }

    /** Number of (cr3, va) pairs with learned state. */
    std::size_t size() const { return _model.size(); }

  private:
    struct Entry
    {
        Tick ewma = 0;
        std::uint64_t samples = 0;
    };

    //! std::map for deterministic iteration in tests and tools.
    std::map<std::pair<Addr, VAddr>, Entry> _model;
};

} // namespace flick

#endif // FLICK_POLICY_COST_MODEL_HH
