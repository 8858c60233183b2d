/**
 * @file
 * Fully integrated voltage regulator (FIVR) model.
 *
 * Models the per-domain FIVRs of the Skylake server PDN (paper Sec. 3 and
 * Sec. 4.3): a voltage source that slews linearly between levels at a
 * configurable rate (≥2 mV/ns per the paper), supports a pre-programmed
 * retention voltage (the new RVID register added by CLMR, Sec. 5.2), and
 * implements *preemptive voltage commands* — a new target issued mid-ramp
 * reverses the ramp from the current (partial) voltage, which is what
 * bounds PC1A's exit latency when a wakeup interrupts entry (Sec. 5.5).
 *
 * The regulator raises its `PwrOk` output whenever the output voltage has
 * reached the commanded target (paper Fig. 4, step 4→5).
 */

#ifndef APC_POWER_FIVR_H
#define APC_POWER_FIVR_H

#include "sim/signal.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace apc::power {

/** FIVR configuration. */
struct FivrConfig
{
    double nominalVolts = 0.8;   ///< operational voltage (Vccclm nominal)
    double retentionVolts = 0.5; ///< pre-programmed RVID retention level
    double slewVoltsPerSec = 2.0e6; ///< 2 mV/ns expressed in V/s
};

/** One voltage regulator with slewed transitions and PwrOk. */
class Fivr
{
  public:
    Fivr(sim::Simulation &sim, const FivrConfig &cfg);

    /**
     * Command a new target voltage. Preemptive: if a ramp is in flight
     * the new ramp starts from the present output voltage. PwrOk drops
     * immediately if the target differs from the present voltage and
     * rises when the output settles at the target.
     */
    void setTarget(double volts);

    /** Command the pre-programmed retention voltage (Ret asserted). */
    void toRetention() { setTarget(cfg_.retentionVolts); }

    /** Command the nominal operational voltage (Ret deasserted). */
    void toNominal() { setTarget(cfg_.nominalVolts); }

    /** Output voltage at the current simulated time. */
    double voltage() const;

    /** Commanded target voltage. */
    double target() const { return target_; }

    /** True while a ramp is in flight. */
    bool ramping() const;

    /** Time remaining until the present ramp settles (0 if settled). */
    sim::Tick settleTimeRemaining() const;

    /** PwrOk status wire: high when output == target. */
    sim::Signal &pwrOk() { return pwrOk_; }
    const sim::Signal &pwrOk() const { return pwrOk_; }

    const FivrConfig &config() const { return cfg_; }

  private:
    /** Voltage at absolute time @p t given the active ramp. */
    double voltageAt(sim::Tick t) const;

    sim::Simulation &sim_;
    FivrConfig cfg_;
    // Active ramp: from (rampStart_, v0_) to (rampEnd_, target_),
    // linear in between; settled when now >= rampEnd_.
    sim::Tick rampStart_ = 0;
    sim::Tick rampEnd_ = 0;
    double v0_;
    double target_;
    sim::Signal pwrOk_;
    sim::EventHandle settleEvent_;
};

} // namespace apc::power

#endif // APC_POWER_FIVR_H
