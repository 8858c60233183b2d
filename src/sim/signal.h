/**
 * @file
 * Boolean wire/signal model for the APC control fabric.
 *
 * The paper's architecture (Fig. 3) adds a handful of long-distance control
 * and status wires between the APMU and the rest of the SoC: `InCC1`,
 * `InL0s`, `AllowL0s`, `Allow_CKE_OFF`, `Ret`, `PwrOk`, `ClkGate`,
 * `InPC1A`, `WakeUp`. `Signal` models one such wire: a boolean level with
 * edge-notification to subscribers, with optional scheduled (delayed)
 * writes for modeling wire/aggregation propagation delay.
 *
 * `AndTree` models the AND-gate aggregation networks used for `InCC1` and
 * `InL0s` (Sec. 5.1/5.3): N input signals combined into one output signal
 * with a configurable propagation delay.
 */

#ifndef APC_SIM_SIGNAL_H
#define APC_SIM_SIGNAL_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/inline_function.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace apc::sim {

/**
 * Edge callback: invoked with the new level after a change. Stored
 * inline in 32 bytes — every observer in the control fabric is a
 * `this` pointer plus a scalar or two.
 */
using SignalObserver = InplaceFunction<void(bool), 32>;

/** A named boolean wire with edge notification. */
class Signal
{
  public:
    Signal(Simulation &sim, std::string name, bool initial = false)
        : sim_(sim), name_(std::move(name)), value_(initial)
    {}

    Signal(const Signal &) = delete;
    Signal &operator=(const Signal &) = delete;

    /** Current level. */
    bool read() const { return value_; }

    /** Wire name (for logs and debugging). */
    const std::string &name() const { return name_; }

    /**
     * Drive the wire immediately. Observers run synchronously, in
     * subscription order, only on an actual edge.
     */
    void write(bool v);

    /**
     * Drive the wire after @p delay ticks. A subsequent write (immediate
     * or scheduled) supersedes any in-flight scheduled write: last write
     * wins, mirroring logic that re-drives the wire. The delay is
     * inertial: a write cancels the pending one, so at most one event
     * is ever in flight, and a write of the current level schedules
     * nothing (the edge it cancelled can no longer happen, and no other
     * write can move the level before it would land). Re-driving the
     * pending level re-times its edge to the new delay.
     */
    void writeAfter(Tick delay, bool v);

    /** Convenience: write(true) / write(false). */
    void set() { write(true); }
    void clear() { write(false); }

    /**
     * Subscribe to edges. @return a subscription id for unsubscribe().
     * Observers must not destroy the signal from inside the callback.
     * Safe to call from inside an observer callback: because the
     * observer list must not reallocate while one of its inline
     * callables is executing, a mid-dispatch subscription is parked and
     * merged only after the outermost dispatch unwinds — the new
     * observer sees no edge dispatched before then (including nested
     * edges raised by other observers of the one being dispatched).
     */
    std::uint64_t subscribe(SignalObserver fn);

    /**
     * Remove a subscription. Safe against already-removed ids, and safe
     * to call from inside an observer callback (including
     * self-unsubscription): the entry stops receiving edges immediately
     * but is physically erased only after the dispatch unwinds.
     *
     * "Immediately" includes the edge currently being dispatched: an
     * observer unsubscribed by a peer observer that runs earlier in the
     * same dispatch does NOT receive the in-flight edge. (The pre-pool
     * copy-based dispatch still delivered that edge; no in-tree
     * component unsubscribes a peer mid-dispatch — pll_farm's
     * self-unsubscribe is unaffected either way.)
     */
    void unsubscribe(std::uint64_t id);

    /** Number of rising edges seen so far (for stats/tests). */
    std::uint64_t risingEdges() const { return rising_; }
    /** Number of falling edges seen so far. */
    std::uint64_t fallingEdges() const { return falling_; }

  private:
    struct Sub
    {
        std::uint64_t id; ///< 0 marks an entry unsubscribed mid-dispatch
        SignalObserver fn;
    };

    /** Apply an edge and notify observers. */
    void applyEdge(bool v);

    Simulation &sim_;
    std::string name_;
    bool value_;
    std::uint64_t nextSub_ = 1;
    /** The scheduled write in flight, if any; reset when it lands. */
    EventHandle pendingWrite_;
    std::uint64_t rising_ = 0;
    std::uint64_t falling_ = 0;
    std::vector<Sub> subs_;
    /** Observers subscribed mid-dispatch, merged when dispatch unwinds. */
    std::vector<Sub> pendingAdds_;
    int dispatchDepth_ = 0;
    bool pendingRemoval_ = false;
};

/**
 * AND-aggregation of input signals into an output signal, with a
 * propagation delay. The tree counts its high inputs, so each input
 * edge updates the output level in O(1); output updates are scheduled
 * after the delay, last-change-wins.
 */
class AndTree
{
  public:
    /**
     * @param sim        owning simulation
     * @param name       name for the output wire
     * @param prop_delay gate + routing propagation delay
     */
    AndTree(Simulation &sim, const std::string &name, Tick prop_delay);

    /** Attach an input. All inputs must be attached before use. */
    void addInput(Signal &in);

    /** The aggregated output wire. */
    Signal &output() { return out_; }
    const Signal &output() const { return out_; }

    /** Combinational value of the AND over inputs right now (pre-delay). */
    bool
    combinational() const
    {
        return inputs_ != 0 && high_ == inputs_;
    }

  private:
    void onInputEdge();

    Tick propDelay_;
    Signal out_;
    /** Inputs attached, and how many of them are high. */
    std::uint32_t inputs_ = 0;
    std::uint32_t high_ = 0;
};

} // namespace apc::sim

#endif // APC_SIM_SIGNAL_H
