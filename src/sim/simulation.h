/**
 * @file
 * Simulation facade: event queue + RNG + termination control.
 *
 * Every model component takes a `Simulation &` at construction and uses it
 * for scheduling, time queries and randomness. Simulations are
 * deterministic given the seed.
 */

#ifndef APC_SIM_SIMULATION_H
#define APC_SIM_SIMULATION_H

#include <cstdint>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace apc::obs {
class TraceWriter;
}

namespace apc::sim {

/** Top-level simulation context. */
class Simulation
{
  public:
    /** @param seed RNG seed; the default gives reproducible runs. */
    explicit Simulation(std::uint64_t seed = 42) : rng_(seed) {}

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Current simulated time. */
    Tick now() const { return events_.now(); }

    /** Schedule @p fn at absolute tick @p when. */
    template <typename F>
    EventHandle
    at(Tick when, F &&fn)
    {
        return events_.scheduleAt(when, std::forward<F>(fn));
    }

    /** Schedule @p fn @p delay ticks from now. */
    template <typename F>
    EventHandle
    after(Tick delay, F &&fn)
    {
        return events_.scheduleAfter(delay, std::forward<F>(fn));
    }

    /** Run until @p until (inclusive); see EventQueue::runUntil. */
    std::uint64_t runUntil(Tick until) { return events_.runUntil(until); }

    /** Drain all pending events. */
    std::uint64_t runAll() { return events_.runAll(); }

    /** Execute at most one event. */
    bool step() { return events_.step(); }

    /** The underlying event queue. */
    EventQueue &events() { return events_; }

    /** Simulation-wide random number generator. */
    Rng &rng() { return rng_; }

    /**
     * Trace sink for components living inside this simulation (NIC,
     * memory controllers, ...). Null when tracing is off; recording
     * through it never perturbs simulation behavior (obs/tracer.h).
     */
    obs::TraceWriter *trace() const { return trace_; }
    void setTrace(obs::TraceWriter *w) { trace_ = w; }

  private:
    EventQueue events_;
    Rng rng_;
    obs::TraceWriter *trace_ = nullptr;
};

} // namespace apc::sim

#endif // APC_SIM_SIMULATION_H
