/**
 * @file
 * Boolean wire/signal model for the APC control fabric.
 *
 * The paper's architecture (Fig. 3) adds a handful of long-distance control
 * and status wires between the APMU and the rest of the SoC: `InCC1`,
 * `InL0s`, `AllowL0s`, `Allow_CKE_OFF`, `Ret`, `PwrOk`, `ClkGate`,
 * `InPC1A`, `WakeUp`. `Signal` models one such wire: a boolean level with
 * edge-notification to at most two observers (no wire in the fabric has
 * more consumers), with optional scheduled (delayed) writes for modeling
 * wire/aggregation propagation delay.
 *
 * `AndTree` models the AND-gate aggregation networks used for `InCC1` and
 * `InL0s` (Sec. 5.1/5.3): N input signals combined into one output signal
 * with a configurable propagation delay.
 */

#ifndef APC_SIM_SIGNAL_H
#define APC_SIM_SIGNAL_H

#include <cstddef>
#include <cstdint>

#include "sim/inline_function.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace apc::sim {

/**
 * Edge callback: invoked with the new level after a change. Stored
 * inline in 16 bytes — every observer in the control fabric is a
 * `this` pointer, at most plus one more pointer or scalar.
 */
using SignalObserver = InplaceFunction<void(bool), 16>;

/** A boolean wire with edge notification to up to two observers. */
class Signal
{
  public:
    /** Observers one wire can carry. */
    static constexpr std::size_t kMaxObservers = 2;

    explicit Signal(Simulation &sim, bool initial = false)
        : sim_(sim), value_(initial)
    {}

    Signal(const Signal &) = delete;
    Signal &operator=(const Signal &) = delete;

    /** Current level. */
    bool read() const { return value_; }

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
     * Subscribe to edges; observers run in subscription order.
     * Observers must not destroy the signal from inside the callback.
     * The slots never move, so an observer may subscribe another one:
     * the newcomer misses the edge being dispatched and sees every
     * later edge. @throws std::logic_error on a third subscription.
     */
    void subscribe(SignalObserver fn);

  private:
    /** Apply an edge and notify observers. */
    void applyEdge(bool v);

    Simulation &sim_;
    /** The scheduled write in flight, if any; reset when it lands. */
    EventHandle pendingWrite_;
    SignalObserver observers_[kMaxObservers];
    std::uint8_t numObservers_ = 0;
    bool value_;
};

// Every member is inline, so a wire's observers sit in the same cache
// lines as its level. A server holds about fifty wires, so the bound
// is on bytes: the level and observer count share the trailing word,
// and a std::vector or std::string member does not fit.
static_assert(sizeof(Signal) <=
                  Signal::kMaxObservers * sizeof(SignalObserver) +
                      sizeof(Simulation *) + sizeof(EventHandle) +
                      sizeof(void *),
              "Signal holds only its level, one pending write and its "
              "inline observer slots");

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
     * @param prop_delay gate + routing propagation delay
     */
    AndTree(Simulation &sim, Tick prop_delay);

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
