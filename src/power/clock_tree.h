/**
 * @file
 * Clock distribution network gating model.
 *
 * CLMR (paper Sec. 4.3) gates the CLM clock tree via the new `ClkGate`
 * signal while leaving the CLM PLL locked; gating/ungating an optimized
 * clock distribution takes 1–2 cycles (Sec. 5.5). The tree's state feeds
 * the owning domain's dynamic power.
 */

#ifndef APC_POWER_CLOCK_TREE_H
#define APC_POWER_CLOCK_TREE_H

#include <string>

#include "sim/signal.h"
#include "sim/simulation.h"

namespace apc::power {

/** Clock tree configuration. */
struct ClockTreeConfig
{
    sim::Tick gateLatency = 4 * sim::kNs; ///< 2 cycles @ 500 MHz
};

/** A gateable clock distribution tree. */
class ClockTree
{
  public:
    ClockTree(sim::Simulation &sim, const ClockTreeConfig &cfg);

    /** Request gating; `running` drops after the gate latency. */
    void gate();

    /** Request ungating; `running` rises after the gate latency. */
    void ungate();

    /** True when clocks are being distributed (pre-latency request state
     *  is reflected only after the latency elapses). */
    bool running() const { return running_.read(); }

    /** Status wire: high while the tree distributes clocks. */
    sim::Signal &runningSignal() { return running_; }

  private:
    sim::Simulation &sim_;
    ClockTreeConfig cfg_;
    sim::Signal running_;
};

} // namespace apc::power

#endif // APC_POWER_CLOCK_TREE_H
