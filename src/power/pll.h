/**
 * @file
 * All-digital PLL (ADPLL) model.
 *
 * APC's fourth technique (paper Sec. 4) is to keep all system PLLs locked
 * during PC1A so exit skips the relock latency (a few microseconds),
 * paying only ~7 mW per ADPLL (Sec. 5.4). The legacy PC6 flow powers PLLs
 * off. This model covers both behaviours plus the relock transition for
 * the baseline and for the keep-PLLs-on ablation.
 */

#ifndef APC_POWER_PLL_H
#define APC_POWER_PLL_H

#include "power/energy_meter.h"
#include "sim/signal.h"
#include "sim/simulation.h"

namespace apc::power {

/** PLL configuration. */
struct PllConfig
{
    double powerWatts = 0.007;          ///< locked/locking draw (7 mW ADPLL)
    sim::Tick relockLatency = 5 * sim::kUs; ///< off -> locked latency
};

/** One PLL: Off, Locking or Locked. */
class Pll
{
  public:
    enum class State { Off, Locking, Locked };

    /** @p name is the power load's name (a string literal; see
     *  PowerLoad). */
    Pll(sim::Simulation &sim, EnergyMeter &meter, const char *name,
        const PllConfig &cfg, Plane plane = Plane::Package);

    /**
     * Power the PLL on. If off, starts the relock; `locked` rises after
     * the relock latency. No-op if already locking or locked.
     */
    void powerOn();

    /** Power the PLL off immediately; `locked` drops. */
    void powerOff();

    State state() const { return state_; }

    /** Status wire: high when the PLL output clock is usable. */
    sim::Signal &locked() { return locked_; }
    const sim::Signal &locked() const { return locked_; }

    /** Present draw (config power when locking/locked, 0 when off). */
    double currentPowerWatts() const { return load_.currentPower(); }

    const PllConfig &config() const { return cfg_; }

  private:
    sim::Simulation &sim_;
    PllConfig cfg_;
    State state_ = State::Locked;
    sim::Signal locked_;
    PowerLoad load_;
    sim::EventHandle lockEvent_;
};

} // namespace apc::power

#endif // APC_POWER_PLL_H
