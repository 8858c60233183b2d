/**
 * @file
 * Power/energy accounting.
 *
 * Each model component owns one or more `PowerLoad`s registered with the
 * simulation's `EnergyMeter`. A load's power is piecewise linear in time:
 * components either set a constant power level or start a linear ramp
 * (used for FIVR voltage transitions, whose leakage power ramps with the
 * voltage). Energy is integrated analytically — exactly for constant and
 * linear segments — so metering adds no events to the simulation.
 */

#ifndef APC_POWER_ENERGY_METER_H
#define APC_POWER_ENERGY_METER_H

#include <string_view>
#include <vector>

#include "power/plane.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace apc::power {

class EnergyMeter;

/**
 * One attributable power consumer.
 *
 * Loads register with the meter at construction and deregister at
 * destruction; a load must not outlive its meter.
 */
class PowerLoad
{
  public:
    /**
     * @param meter meter to register with
     * @param name  component kind for breakdown reports ("core", "mc",
     *              ...): a string literal, or storage that outlives the
     *              load; the load keeps only the pointer
     * @param plane RAPL plane this load belongs to
     * @param watts initial power draw
     */
    PowerLoad(EnergyMeter &meter, const char *name, Plane plane,
              double watts = 0.0);
    ~PowerLoad();

    PowerLoad(const PowerLoad &) = delete;
    PowerLoad &operator=(const PowerLoad &) = delete;

    /** Set a constant power level starting now. */
    void setPower(double watts);

    /**
     * Start a linear power ramp from the current level to @p end_watts
     * over @p duration. After the ramp completes the level stays at
     * @p end_watts. A later setPower/setRamp supersedes the ramp from the
     * current (mid-ramp) level.
     */
    void setRamp(double end_watts, sim::Tick duration);

    /** Instantaneous power at the current simulated time. */
    double currentPower() const;

    /** Energy consumed by this load so far, in joules. */
    double energyJoules() const;

    std::string_view name() const { return name_; }
    Plane plane() const { return plane_; }

  private:
    friend class EnergyMeter;

    /** Integrate the active segment through @p t (absolute). */
    double segmentEnergy(sim::Tick t) const;
    /** Power at absolute time @p t within the active segment. */
    double powerAt(sim::Tick t) const;
    /** Close the active segment at now and open a new one. */
    void closeSegment();

    EnergyMeter &meter_;
    const char *name_;
    Plane plane_;
    double accumulatedJ_ = 0.0;
    // Active segment: from segStart_ power goes linearly from p0_ to p1_
    // at segEnd_, then stays at p1_. Constant power is p0_ == p1_.
    sim::Tick segStart_ = 0;
    sim::Tick segEnd_ = 0;
    double p0_ = 0.0;
    double p1_ = 0.0;
};

/** Registry and aggregator over all power loads. */
class EnergyMeter
{
  public:
    explicit EnergyMeter(sim::Simulation &sim) : sim_(sim) {}

    EnergyMeter(const EnergyMeter &) = delete;
    EnergyMeter &operator=(const EnergyMeter &) = delete;

    /** Instantaneous total power on @p plane, watts. */
    double planePower(Plane plane) const;

    /** Total energy consumed on @p plane so far, joules. */
    double planeEnergy(Plane plane) const;

    /** Instantaneous power across all planes. */
    double totalPower() const;

    /** Total energy across all planes. */
    double totalEnergy() const;

    /** All registered loads (for breakdown reports). */
    const std::vector<PowerLoad *> &loads() const { return loads_; }

    /** Owning simulation (time source). */
    sim::Simulation &sim() { return sim_; }
    const sim::Simulation &sim() const { return sim_; }

  private:
    friend class PowerLoad;

    sim::Simulation &sim_;
    std::vector<PowerLoad *> loads_;
};

} // namespace apc::power

#endif // APC_POWER_ENERGY_METER_H
